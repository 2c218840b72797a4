"""The affine-orbit check of the construction's codes.

The maps x -> a*x + b (a nonzero) preserve the base code and act doubly
transitively on the locators (Kasami, Lin and Peterson, 1967), so every
weight-v word is an image of a representative: a word whose support
holds locator 1 (position n-1) and locator 0 (position n).  survey, the
orbit check of both the distance route and the line check, moves those
columns first, as the first pivots of one rref.  A representative is
(c, a, z): z a weight-(v-2) kernel word of the rows below the pivots, on
the other columns, and c, a minus the pivot rows dotted with z.  One
pass of linalg.kernel_words per weight finds every z, and the words with
c and a nonzero, scaled to a = 1, are the representatives.

Distance >= d holds when no (d-1)-subset of columns is dependent.  On
the augmented matrix of the construction, with the blocks of (q, m, d)
and n = q^m, certifies decides this: survey builds and checks the
construction, and the file's rows must equal the build.  By the BCH
bound no base-code word is lighter than d-1, which survey checks.  A
representative whose locators t all lie in GF(q), with coefficients
c_t, is settled by one sum.  Its image under x -> a*x + b has norm
syndrome N(hat a) * sum_t c_t N(u + t), u = hat b / hat a, as hat is
GF(q)-linear and N multiplicative.  N(u + t) is monic of degree d-2 in
t and the word kills t^j for j <= d-3, so that is N(hat a) * f with
f = sum_t c_t t^(d-2), nonzero by Vandermonde, which survey checks
too.  At d = 3 the file is [1; y], the base rows of d = 4, and survey
runs at d = 4 on it: its pivot check makes locators 1 and 0
independent, and the affine maps carry that pair onto any other.  Any
other matrix or target, or a locator outside GF(q) (which occurs only
outside the proven range), falls back to the generic engine of
verify.py, so its counterexamples are the only ones reported; a failed
self-check raises RuntimeError in both commands.  A representative
search over the memory cap is refused, not passed on: the engine's pass
at c = n includes a weight-(v-2) pass on all n columns with at least as
many rows, so it could never certify either, only search prefixes.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .construct import CodeParams, ParityCheckMatrix, augmented_blocks, augmented_matrix, validate_params
from .errors import within_field_budget


def certifies(matrix: ParityCheckMatrix, d: int) -> bool:
    """Whether the affine-orbit route proves distance >= d for matrix.

    The route takes only the augmented matrix of (q, m, d) with this d
    and n = q^m: the blocks of augmented_blocks and a GF(q^mu) within
    the field budget, checked before any build, and the rows of
    augmented_matrix, which survey builds and checks.  Distance >= d
    holds when every representative has its locators in GF(q) (module
    docstring).  At d = 3 the rows [1; y] are the base rows of d = 4,
    surveyed as such.  False (any other matrix, a GF(q^mu) beyond the
    budget, or a locator outside GF(q)) leaves the verdict to the
    generic engine; an error inside the survey propagates.
    """
    q, n = matrix.q, matrix.n
    m = next((m for m in range(1, n.bit_length()) if q**m == n), 0)  # 0 when n is no power q^m, m >= 1
    if d < 3 or not m or len(matrix.blocks) != d - 1:  # the count first: a huge d has a huge layout
        return False
    params = validate_params(q, m, d)
    if matrix.blocks != augmented_blocks(params) or not within_field_budget(q, params.mu):
        return False
    rebuilt, representatives, on = survey(validate_params(q, m, max(d, 4)), lambda _: augmented_matrix(params))
    return np.array_equal(rebuilt.rows, matrix.rows) and on == len(representatives)  # on < len: off GF(q)


def _representatives(reduced: np.ndarray, rank: int, q: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """The weight-v words (v >= 3) of a row space that hold the last two columns, coefficient 1 on the last.

    reduced and rank are the rref of the rows with the last two columns
    moved first, as its first two pivots.  One pass (module docstring);
    returns (supports, coeffs) as linalg.kernel_words does, columns ascending.
    """
    n = reduced.shape[1]
    supports, coeffs = linalg.kernel_words(reduced[2:rank, 2:], q, v - 2)
    c, a = -(reduced[:2, 2:][:, supports] * coeffs).sum(axis=2) % q
    keep = (c != 0) & (a != 0)
    inv = np.array([0, *(pow(x, -1, q) for x in range(1, q))])[a[keep], None]
    coeffs = np.hstack([coeffs, c[:, None], a[:, None]])[keep] * inv % q
    return np.hstack([supports[keep], np.broadcast_to([n - 2, n - 1], (len(coeffs), 2))]), coeffs


def survey(params: CodeParams, build) -> tuple[ParityCheckMatrix, np.ndarray, int]:
    """The orbit check of (q, m, d): build(params), its weight-(d-1) representatives' locators and on-line count.

    The largest pass, weight min(d-1, n) - 2 on n - 2 columns, is sized
    before the build, on the rows below the pivots of full-rank base
    rows.  One rref of the build's first 1 + (d-3)m rows, its base rows,
    with locators 1 and 0 first, serves every step, and a failed step
    raises RuntimeError.  Those columns must be its first two pivots, as
    at d >= 4 (so no representative has weight 2).  One pass per weight
    d-1 down to 3 follows, largest first.  The rows permuted by x -> e*x
    and x -> x+1, which generate the affine maps, must reduce to zero
    against the rref.  No representative may be lighter than d-1: any
    d-2 columns of [1; y; ...; y^(d-3)] are independent over GF(q^m).
    A representative is on a line when its locators all lie below q,
    and there are C(q-2, d-3) of them, one per (d-3)-subset of GF(q)
    minus {0, 1}, as the base code kills t^j for j <= d-3.  Last, each
    has f = sum_t c_t t^(d-2) nonzero: f is the normalizing constant of
    its Lagrange weights, c_t = f / prod_(s != t)(t - s), as their sum
    against t^(d-2), a divided difference of x^(d-2), is 1.
    """
    q, n, d = params.q, params.n, params.d
    r = 1 + (d - 3) * params.m
    if n > 2:  # the largest pass; at n = 2 there is none
        linalg.pass_slots(r - 2, n - 2, q, min(d - 1, n) - 2)
    matrix = build(params)
    rows = matrix.rows[:r]
    reduced, rank, pivots = linalg.rref(np.roll(rows, 2, axis=1), q)  # columns n-2, n-1, 0, 1, ...
    if pivots[:2] != [0, 1]:
        raise RuntimeError("the last two columns are dependent")
    weights = range(d - 1, 2, -1)  # a weight above n has no pass, as kernel_words finds no word
    found = [_representatives(reduced, rank, q, v) for v in weights]
    locators, field = matrix.locators, matrix.locators.field
    ys = locators.encoded(np.arange(n))
    for image in (field.mul(ys, field.e.val), field.add(ys, 1)):
        moved = rows.take(np.roll(locators.columns(image), 2), axis=1)
        if any(((row[pivots] @ reduced[:rank] - row) % q).any() for row in moved):  # a row at a time
            raise RuntimeError("the row space fails the affine invariance test")
    for v, (supports, _) in zip(weights, found):
        if v < d - 1 and len(supports):
            raise RuntimeError(f"{len(supports)} representatives of weight {v}, below the minimum weight {d - 1}")
    supports, coeffs = found[0]
    locs = ys[supports]
    line = (locs < q).all(axis=1)
    if (on := int(line.sum())) != (want := math.comb(q - 2, d - 3)):
        raise RuntimeError(f"{on} on-line representatives of weight {d - 1}, expected {want}")
    powers = np.array([pow(t, d - 2, q) for t in range(q)])  # t^(d-2) for each t in GF(q)
    if zero := int(((coeffs[line] * powers[locs[line]]).sum(axis=1) % q == 0).sum()):
        raise RuntimeError(f"{zero} on-line representatives of weight {d - 1} with f = sum_t c_t t^{d - 2} = 0")
    return matrix, locs, on
