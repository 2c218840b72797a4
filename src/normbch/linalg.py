"""Dense linear algebra over prime fields GF(p) on numpy integer matrices.

All routines take matrices of plain integers and a prime modulus and
reduce entries mod p themselves.  They serve matrix ranks, the
inverses of the change-of-basis matrices and kernels of single column
slices; the exhaustive word searches in verify.py work on syndromes and
need no elimination.
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


def kernel_basis(mat, p: int) -> np.ndarray:
    """Basis of the right kernel of mat over GF(p), one basis vector per row.

    Basis vectors are ordered by ascending free column, which makes the
    first vector a deterministic canonical choice.
    """
    a, _, pivots = rref(mat, p)
    n_cols = a.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = np.zeros((len(free), n_cols), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, c in enumerate(pivots):
            basis[i, c] = (-a[row, f]) % p
    return basis


def invert(mat, p: int) -> np.ndarray:
    """Inverse of a square matrix over GF(p); ValueError if singular."""
    a = np.array(mat, dtype=np.int64) % p
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    aug, _, pivots = rref(np.hstack([a, np.eye(n, dtype=np.int64)]), p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over GF(%d)" % p)
    return aug[:, n:]
