"""Dense linear algebra over prime fields GF(p) on numpy integer matrices.

All routines take matrices of plain integers and a prime modulus and
reduce entries mod p themselves: rref, rank, kernel vector.  They serve
matrix ranks, the basis pair's rref of [G | I] (independence and G^-1),
the kernel vector of a dependent column slice and the one rref of the
affine-orbit check; the word searches use no elimination.
"""

from __future__ import annotations

import numpy as np


def rref(mat, p: int):
    """Reduced row echelon form over GF(p).

    Returns (rref_matrix, rank, pivot_columns).  The input is copied,
    never mutated.
    """
    a = np.array(mat, dtype=np.int64) % p
    n_rows, n_cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, r, pivots


def rank(mat, p: int) -> int:
    """Rank over GF(p).

    Reduces a column prefix that starts at 4x the row count and doubles
    until it has full row rank or is the whole matrix.  A wide matrix of
    full row rank, as the construction's matrices are, is done after a few
    prefix columns instead of row operations across all of them.
    """
    a = np.asarray(mat)
    n_rows, n_cols = a.shape
    width = 4 * n_rows
    while True:
        r = rref(a[:, :width], p)[1]
        if r == n_rows or width >= n_cols:
            return r
        width *= 2


def kernel_vector(mat, p: int) -> np.ndarray:
    """The right kernel vector of mat over GF(p) with 1 at its first free column and 0 at the others.

    Read off rref, each pivot column taking minus its row's entry in that
    free column; ValueError when the columns are independent.
    """
    a, rank, pivots = rref(mat, p)
    free = [c for c in range(a.shape[1]) if c not in pivots]
    if not free:
        raise ValueError(f"the {a.shape[1]} columns are independent over GF({p})")
    vec = np.zeros(a.shape[1], dtype=np.int64)
    vec[free[0]] = 1
    vec[pivots] = -a[:rank, free[0]] % p
    return vec
