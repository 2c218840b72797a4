"""Exhaustive distance certification, and the searches the line check shares.

The distance check here and the line check of lines.py run on
_kernel_words, an exhaustive form of Stern's syndrome-collision search:
a weight-v kernel word z splits into x on its first ceil(v/2) positions
and -y on the rest, with Hx = Hy.  Sorting the syndromes Hx of every x
together with the Hy of every y and pairing equal ones with
max supp(x) < min supp(y) yields each word exactly once; the first
coefficient of x is fixed to 1, giving one word per scalar class.
Passes over a fixed memory cap are refused up front by _pass_slots.

Both also use the affine orbits of the base code.  The maps
x -> a*x + b (a nonzero) preserve the base code and act doubly
transitively on the locators (Kasami, Lin and Peterson, 1967), so every
weight-v word is an image of a representative: a word whose support
holds locator 1 (position n-1) and locator 0 (position n).  _survey,
the orbit check of both, moves those columns first, as the first pivots
of one rref.  A representative is (c, a, z): z a weight-(v-2) kernel
word of the rows below the pivots, on the other columns, and c, a minus
the pivot rows dotted with z.  One pass per weight finds every z, and
the words with c and a nonzero, scaled to a = 1, are the
representatives.

Distance >= d holds when no (d-1)-subset of columns is dependent.  On
the augmented matrix of the construction, with the blocks of (q, m, d)
and n = q^m, the orbit route decides this: _survey builds and checks
the construction, and the file's rows must equal the build.  By the BCH
bound no base-code word is lighter than d-1, which _survey checks.  A
representative whose locators t all lie in GF(q), with coefficients
c_t, is settled by one sum.  Its image under x -> a*x + b has norm
syndrome N(hat a) * sum_t c_t N(u + t), u = hat b / hat a, as hat is
GF(q)-linear and N multiplicative.  N(u + t) is monic of degree d-2 in
t and the word kills t^j for j <= d-3, so that is N(hat a) * f with
f = sum_t c_t t^(d-2), nonzero by Vandermonde, which _survey checks
too.  At d = 3 the file is [1; y], the base rows of d = 4, and _survey
runs at d = 4 on it: its pivot check makes locators 1 and 0
independent, and the affine maps carry that pair onto any other.  Any
other matrix or target, or a locator outside GF(q) (which occurs only
outside the proven range), falls back to the generic engine
below, so its counterexamples are the only ones reported; a failed
self-check raises RuntimeError in both commands.  A representative
search over the memory cap is refused, not passed on: the engine's pass
at c = n includes a weight-(v-2) pass on all n columns with at least as
many rows, so it could never certify either, only search prefixes.

The generic engine reports the colex-first dependent (d-1)-subset: the
colex-smallest superset of a word support.  When the first w columns
are dependent (as whenever w exceeds the rank), they are that subset,
and one rank settles it.  Otherwise, as colex order visits every subset
of the first c columns before the others, the search runs on column
prefixes of length 2w, 4w, ... and stops at the first prefix holding a
word; the w-column prefix is skipped, as its one w-subset is the one
the rank has just shown independent.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import NamedTuple

import numpy as np

from . import linalg
from .construct import CodeParams, Codeword, ParityCheckMatrix, augmented_blocks, augmented_matrix, validate_params
from .errors import DEFAULT_SUBSET_BUDGET, BudgetExceededError

# Memory cap of one collision pass; above it the pass is refused with
# BudgetExceededError before its tables are allocated.
MEMORY_CAP_BYTES = 1 << 30
_SLOT_BYTES = 40  # what a half-vector slot takes besides its syndrome entries


class DistanceCertificate(NamedTuple):
    """Outcome of one exhaustive distance check against a distance target.

    subsets_examined counts colex-order coverage: the full subset count
    when certified, or the 1-based colex rank of the first dependent
    subset otherwise.  Wall clock and thread count are metadata only.
    """

    matrix_sha256: str
    distance_bound: int
    subset_count: int
    subsets_examined: int
    verdict: str
    counterexample: Codeword | None
    elapsed_s: float
    threads: int

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def _pass_slots(r: int, n: int, q: int, v: int, words: int = 0) -> tuple[int, int]:
    """Slots of the x and y half tables of a weight-v pass on r rows and n columns, refused over the cap.

    x holds ceil(v/2) positions, lead one, y the rest, and each of words output words takes
    v + 1 more.  A slot is r syndrome entries plus _SLOT_BYTES (37 in all measured at r=8,
    q=7).  x + y is one binomial by Pascal's rule, counted by _subset_count (exact unless surely over).
    """
    per_slot = r * np.min_scalar_type(q - 1).itemsize + _SLOT_BYTES
    cap = MEMORY_CAP_BYTES // per_slot
    a, even = (v + 1) // 2, 1 - v % 2
    slots = _subset_count(n + 1 - even, a, cap, (q - 1, a - 1), (q, even))
    if (needed := slots + (v + 1) * words) > cap:
        raise BudgetExceededError(needed, cap, what="half-vectors")
    n_x = math.comb(n, a) * (q - 1) ** (a - 1)
    return n_x, slots - n_x


def _supports(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n), ascending in a row, rows in the order of itertools.combinations."""
    subsets, low = np.empty((1, 0), dtype=np.min_scalar_type(n)), np.zeros(1, dtype=np.intp)
    for _ in range(k):  # after each row, every larger value at or above its low
        counts = n - low
        last = np.arange(counts.sum()) + np.repeat(low - np.cumsum(counts) + counts, counts)
        subsets, low = np.column_stack([np.repeat(subsets, counts, axis=0), last.astype(subsets.dtype)]), last + 1
    return subsets


def _half_table(rows: np.ndarray, q: int, k: int, lead_one: bool, out: np.ndarray):
    """Supports and coefficients of every weight-k vector on the columns of rows.

    Coefficients run over 1..q-1, the first fixed to 1 with lead_one.
    Column s * len(coeffs) + i of out gets the syndrome of support s
    with coefficient row i.
    """
    supports = _supports(rows.shape[1], k)
    tails = list(itertools.product(range(1, q), repeat=k - lead_one))
    coeffs = np.array([(1,) * lead_one + t for t in tails], dtype=np.intp).reshape(len(tails), k)
    work = np.min_scalar_type(q * q)  # holds acc + c * h for acc, c, h < q
    cols = rows.astype(work)[:, supports]
    for i, pattern in enumerate(coeffs.tolist()):
        acc = 0
        for j, c in enumerate(pattern):
            acc = (acc + c * cols[:, :, j]) % q
        out[:, i :: len(coeffs)] = acc
    return supports, coeffs


def _kernel_words(rows: np.ndarray, q: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Every weight-v kernel word of rows over GF(q), one per scalar class: first coefficient 1.

    Returns (supports, coeffs), two (N, v) arrays of ascending 0-based
    column indices and their coefficients, in no particular order.
    Raises BudgetExceededError, counting half-vectors, when the pass
    would need more than MEMORY_CAP_BYTES; with v > n there is no such
    word, and nothing is checked.
    """
    r, n = rows.shape
    if v > n:
        return np.empty((0, v), dtype=np.intp), np.empty((0, v), dtype=np.intp)
    a = (v + 1) // 2
    n_x, n_y = _pass_slots(r, n, q, v)
    keys = np.empty((r, n_x + n_y), dtype=np.min_scalar_type(q - 1))
    xs, xc = _half_table(rows, q, a, True, keys[:, :n_x])
    # Hx = Hy makes the word (x, -y)
    ys, yc = _half_table(rows, q, v - a, False, keys[:, n_x:])

    # Sort by syndrome, then by max supp(x) or min supp(y).  Within one
    # syndrome the y rows then run in ascending min supp(y), and each x
    # pairs with the tail of them whose min exceeds its max.
    x_edge, y_edge = xs.max(axis=1), ys.min(axis=1, initial=n)  # an empty y has edge n
    edge = np.concatenate([np.repeat(x_edge, len(xc)), np.repeat(y_edge, len(yc))])
    edge = edge.astype(np.min_scalar_type(n))
    order = np.lexsort([edge, *keys])
    new_group = np.zeros(order.size, dtype=bool)
    for row in keys:
        row = row[order]
        new_group[1:] |= row[1:] != row[:-1]
    del keys
    key = np.cumsum(new_group)  # (syndrome group, edge), ascending
    key *= n + 1
    key += edge[order]
    x_at = np.flatnonzero(order < n_x)
    y_at = np.flatnonzero(order >= n_x)
    x_key, y_key = key[x_at], key[y_at]
    del key
    lo = np.searchsorted(y_key, x_key, side="right")
    counts = np.searchsorted(y_key, (x_key // (n + 1) + 1) * (n + 1)) - lo
    words = int(counts.sum())
    _pass_slots(r, n, q, v, words)  # and v + 1 slots per output word

    x_sup, x_coef = np.divmod(order[np.repeat(x_at, counts)], len(xc))
    y_pick = y_at[np.arange(words) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    y_sup, y_coef = np.divmod(order[y_pick] - n_x, len(yc))
    return np.hstack([xs[x_sup], ys[y_sup]]), np.hstack([xc[x_coef], q - yc[y_coef]])


def _subset_count(n: int, w: int, budget: int, *powers: tuple[int, int]) -> int:
    """C(n, w) times the powers b^e, or its math.lgamma estimate where that is surely over both the budget and 10^19.

    The exact value takes seconds at n ~ 10^6 and w ~ n/2.  The estimate's
    log10 lies at least tol from the budget's and from an integer, so a
    refusal prints the power of ten of the exact count.
    """
    bits = (math.lgamma(n + 1) - math.lgamma(w + 1) - math.lgamma(n - w + 1)) / math.log(2)
    bits += sum(e * math.log2(b) for b, e in powers)
    digits = bits * math.log10(2)
    tol = 1e-6 + 1e-15 * bits  # lgamma's rounding grows like n log n
    if digits < 19 or digits < math.log10(max(budget, 1)) + tol or abs(digits - round(digits)) < tol:
        return math.prod([math.comb(n, w), *(b**e for b, e in powers)])
    return int(2 ** (bits % 1 + 52)) << (int(bits) - 52)


def _colex_first_dependent(rows: np.ndarray, q: int, w: int) -> tuple[int, ...] | None:
    """The colex-first linearly dependent w-subset of columns, or None."""
    if linalg.rank(rows[:, :w], q) < w:  # the colex-first w-subset itself, whatever the weight of its word
        return tuple(range(w))
    n = rows.shape[1]
    small = np.arange(w)
    c = 2 * w  # the w-column prefix, proved independent above, holds no dependent subset
    while True:
        c = min(c, n)
        found = []
        for v in range(1, w + 1):
            supports, _ = _kernel_words(rows[:, :c], q, v)
            # the colex-smallest w-superset adds the smallest free indices
            free = ~(supports[:, :, None] == small).any(axis=1)
            fill = np.broadcast_to(small, free.shape)[free & (np.cumsum(free, axis=1) <= w - v)]
            found.append(np.sort(np.hstack([supports, fill.reshape(len(supports), w - v)]), axis=1))
        subsets = np.concatenate(found)
        if subsets.size:
            return tuple(int(i) for i in subsets[np.lexsort(subsets.T)[0]])
        if c == n:
            return None
        c *= 2


def _dependency_codeword(matrix: ParityCheckMatrix, columns: tuple[int, ...]) -> Codeword:
    """Canonical kernel vector on the given columns, first coefficient 1."""
    q = matrix.q
    slice_ = matrix.rows[:, list(columns)].astype(np.int64)
    vec = linalg.kernel_vector(slice_, q)
    vec = vec * pow(int(vec[np.flatnonzero(vec)[0]]), -1, q) % q
    keep = np.nonzero(vec)[0]
    return Codeword(
        tuple(int(columns[i]) + 1 for i in keep),
        tuple(int(vec[i]) for i in keep),
    )


def _orbit_certifies(matrix: ParityCheckMatrix, d: int) -> bool:
    """Whether the affine-orbit route proves distance >= d for matrix.

    The route takes only the augmented matrix of (q, m, d) with this d
    and n = q^m: the blocks of augmented_blocks, compared before any
    build, and the rows of augmented_matrix, which _survey builds and
    checks.  Distance >= d holds when every representative has its
    locators in GF(q) (module docstring).  At d = 3 the rows [1; y] are
    the base rows of d = 4, surveyed as such.  False (any other matrix,
    no field or basis pair within the budgets, or a locator outside
    GF(q)) leaves the verdict to the generic engine.
    """
    q, n = matrix.q, matrix.n
    m = next((m for m in range(1, n.bit_length()) if q**m == n), 0)  # 0 when n is no power q^m, m >= 1
    if d < 3 or not m or len(matrix.blocks) != d - 1:  # the count first: a huge d has a huge layout
        return False
    params = validate_params(q, m, d)
    if matrix.blocks != augmented_blocks(params):
        return False
    try:
        rebuilt, representatives, on = _survey(validate_params(q, m, max(d, 4)), lambda _: augmented_matrix(params))
    except ValueError:  # no field or basis pair within the budgets
        return False
    return np.array_equal(rebuilt.rows, matrix.rows) and on == len(representatives)  # on < len: off GF(q)


def min_distance_at_least(
    matrix: ParityCheckMatrix,
    d: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
    threads: int = 1,
) -> DistanceCertificate:
    """Certify distance >= d or produce a minimal dependency as a counterexample.

    The affine-orbit route certifies the construction's augmented
    matrices; every other case goes to the generic collision engine (see
    the module docstring).  BudgetExceededError, counting half-vectors,
    is raised when the route's search or an engine pass would exceed
    MEMORY_CAP_BYTES (module docstring).  The budget bounds the
    engine alone, its multi-pass prefix hunt: once the route declines,
    BudgetExceededError is raised when C(n, d-1) exceeds it, counted
    exactly unless surely over the budget and 10^19 (_subset_count).
    threads is recorded in the certificate and does not change the work.
    """
    if d < 2:
        raise ValueError("distance targets below 2 are meaningless")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if budget < 0:
        raise ValueError(f"the subset budget must be at least 0, got {budget}")
    start = time.perf_counter()
    n = matrix.n
    w = min(d - 1, n)
    if _orbit_certifies(matrix, d):
        columns, total = None, math.comb(n, w)
    else:
        total = _subset_count(n, w, budget)
        if total > budget:
            raise BudgetExceededError(total, budget)
        columns = _colex_first_dependent(matrix.rows, matrix.q, w)
    if columns is None:
        verdict, counterexample, examined = "certified", None, total
    else:
        counterexample = _dependency_codeword(matrix, columns)
        verdict, examined = "counterexample", 1 + sum(math.comb(c, i + 1) for i, c in enumerate(columns))
    return DistanceCertificate(
        matrix_sha256=matrix.sha256(),
        distance_bound=d,
        subset_count=total,
        subsets_examined=examined,
        verdict=verdict,
        counterexample=counterexample,
        elapsed_s=time.perf_counter() - start,
        threads=threads,
    )


def _representatives(reduced: np.ndarray, rank: int, q: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """The weight-v words (v >= 3) of a row space that hold the last two columns, coefficient 1 on the last.

    reduced and rank are the rref of the rows with the last two columns
    moved first, as its first two pivots.  One pass (module docstring);
    returns (supports, coeffs) as _kernel_words does, columns ascending.
    """
    n = reduced.shape[1]
    supports, coeffs = _kernel_words(reduced[2:rank, 2:], q, v - 2)
    c, a = -(reduced[:2, 2:][:, supports] * coeffs).sum(axis=2) % q
    keep = (c != 0) & (a != 0)
    inv = np.array([0, *(pow(x, -1, q) for x in range(1, q))])[a[keep], None]
    coeffs = np.hstack([coeffs, c[:, None], a[:, None]])[keep] * inv % q
    return np.hstack([supports[keep], np.broadcast_to([n - 2, n - 1], (len(coeffs), 2))]), coeffs


def _survey(params: CodeParams, build) -> tuple[ParityCheckMatrix, np.ndarray, int]:
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
        _pass_slots(r - 2, n - 2, q, min(d - 1, n) - 2)
    matrix = build(params)
    rows = matrix.rows[:r]
    reduced, rank, pivots = linalg.rref(np.roll(rows, 2, axis=1), q)  # columns n-2, n-1, 0, 1, ...
    if pivots[:2] != [0, 1]:
        raise RuntimeError("the last two columns are dependent")
    weights = range(d - 1, 2, -1)  # a weight above n has no pass, as _kernel_words finds no word
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
