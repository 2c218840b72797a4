"""Dense linear algebra over prime fields GF(p) on numpy integer matrices.

All routines take matrices of plain integers and a prime modulus and
reduce entries mod p themselves.  One elimination, row_operations,
gives the row operations t of a rref: rank is their pivot count, rref
the product t @ mat, kernel_vector reads the rref of a dependent column
slice, and the basis pair's G^-1 is the t of G.

The word searches use no elimination.  The distance engine of verify.py,
the orbit check of orbit.py and the word lists of lines.py run on
kernel_words, an exhaustive form of Stern's syndrome-collision search:
a weight-v kernel word z splits into x on its first ceil(v/2) positions
and -y on the rest, with Hx = Hy.  Sorting the syndromes Hx of every x
together with the Hy of every y, each x pairs with the y slots after it
in its syndrome group, those with max supp(x) < min supp(y): each word
once, the first coefficient of x fixed to 1, one word per scalar class.
A pass peaks within its pass_slots charge, refused up front over a cap.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import BudgetExceededError

# Memory cap of one collision pass; above it the pass is refused with
# BudgetExceededError before its tables are allocated.
MEMORY_CAP_BYTES = 1 << 30
_SLOT_BYTES = 40  # what a half-vector slot takes besides its syndrome entries
_GATHER_ENTRIES = 1 << 22  # the most column entries a half table gathers at once
_PRODUCT_ENTRIES = 1 << 18  # rref's product takes this many entries at a time, to peak at its output plus one chunk


def row_operations(mat, p: int) -> tuple[np.ndarray, int, list[int]]:
    """The row operations of mat's rref over GF(p): (t, rank, pivot_columns), the rref being t @ mat % p.

    Gauss-Jordan on [prefix | I], t what I becomes.  The column prefix starts at 4x the row count and
    doubles until it has full row rank or is the whole matrix, so it holds every pivot, and a wide
    matrix of full row rank, as the construction's are, needs no row operation beyond it.
    """
    mat = np.asarray(mat)
    n_rows, n_cols = mat.shape
    width = 4 * n_rows
    while True:
        width = min(width, n_cols)
        a = np.hstack([mat[:, :width] % p, np.eye(n_rows, dtype=np.int64)])
        pivots: list[int] = []
        for c in range(width):
            if (r := len(pivots)) == n_rows:
                break
            if (nz := np.flatnonzero(a[r:, c])).size:
                a[[r, r + nz[0]]] = a[[r + nz[0], r]]
                a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
                a = (a - np.outer(a[:, c] * (np.arange(n_rows) != r), a[r])) % p
                pivots.append(c)
        if len(pivots) == n_rows or width == n_cols:
            return a[:, width:], len(pivots), pivots
        width *= 2


def rref(mat, p: int):
    """Reduced row echelon form over GF(p), (rref_matrix, rank, pivot_columns): the int64 t @ mat of row_operations."""
    mat = np.asarray(mat)
    t, rank, pivots = row_operations(mat, p)
    out, step = np.empty(mat.shape, dtype=np.int64), max(1, _PRODUCT_ENTRIES // max(1, len(mat)))
    for lo in range(0, mat.shape[1], step):
        out[:, lo : lo + step] = t @ (mat[:, lo : lo + step] % p) % p
    return out, rank, pivots


def rank(mat, p: int) -> int:
    """Rank over GF(p): the pivot count of row_operations."""
    return row_operations(mat, p)[1]


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


def pass_slots(r: int, n: int, q: int, v: int, words: int = 0) -> tuple[int, int]:
    """Slots of the x and y half tables of a weight-v pass on r rows and n columns, refused over the cap.

    x holds ceil(v/2) positions, lead one, y the rest, and each of words output words takes
    v + 1 more.  A slot is r syndrome entries plus _SLOT_BYTES (the memory gates' passes peak
    at 0.84 of that at most, in a fresh process's RSS).  x + y is one binomial by Pascal's
    rule, counted by subset_count (exact unless surely over).
    """
    per_slot = r * np.min_scalar_type(q - 1).itemsize + _SLOT_BYTES
    cap = MEMORY_CAP_BYTES // per_slot
    a, even = (v + 1) // 2, 1 - v % 2
    slots = subset_count(n + 1 - even, a, cap, (q - 1, a - 1), (q, even))
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
    with coefficient row i.  The columns of the supports are gathered
    at most _GATHER_ENTRIES entries at a time, never rows[:, supports]
    whole.
    """
    supports = _supports(rows.shape[1], k)
    tails = list(itertools.product(range(1, q), repeat=k - lead_one))
    coeffs = np.array([(1,) * lead_one + t for t in tails], dtype=np.intp).reshape(len(tails), k)
    rows = rows.astype(np.min_scalar_type(q * q))  # holds acc + c * h for acc, c, h < q
    step, width = max(1, _GATHER_ENTRIES // max(1, rows.shape[0] * k)), len(coeffs)
    for lo in range(0, len(supports), step):
        cols = rows[:, supports[lo : lo + step]]
        for i, pattern in enumerate(coeffs.tolist()):
            acc = 0
            for j, c in enumerate(pattern):
                acc = (acc + c * cols[:, :, j]) % q
            out[:, lo * width + i : (lo + step) * width : width] = acc
    return supports, coeffs


def kernel_words(rows: np.ndarray, q: int, v: int) -> tuple[np.ndarray, np.ndarray]:
    """Every weight-v kernel word of rows over GF(q), one per scalar class: first coefficient 1.

    Returns (supports, coeffs), two (N, v) arrays of ascending 0-based
    column indices and their coefficients, in no particular order.  The
    y half table comes first, so the stable sort by syndrome, then by
    min supp(y) or max supp(x), puts each x just before the y slots it
    pairs with: the rest of its syndrome group.
    Raises BudgetExceededError, counting half-vectors, when the pass
    would need more than MEMORY_CAP_BYTES; with v > n there is no such
    word, and nothing is checked.  The half tables are charged before
    they are allocated, but the v + 1 slots of each output word only
    once the sort has counted the words: a pass admitted up front, and
    so the build before it, can still be refused after the sort.
    """
    r, n = rows.shape
    if v > n:
        return np.empty((0, v), dtype=np.intp), np.empty((0, v), dtype=np.intp)
    a = (v + 1) // 2
    n_x, n_y = pass_slots(r, n, q, v)
    keys = np.empty((r, n_y + n_x), dtype=np.min_scalar_type(q - 1))
    ys, yc = _half_table(rows, q, v - a, False, keys[:, :n_y])
    xs, xc = _half_table(rows, q, a, True, keys[:, n_y:])  # Hx = Hy makes the word (x, -y)

    edge = np.concatenate([np.repeat(ys.min(axis=1, initial=n), len(yc)), np.repeat(xs.max(axis=1), len(xc))])
    order = np.lexsort([edge, *keys])  # stable
    del edge
    new_group = np.zeros(order.size, dtype=bool)
    for row in keys:
        row = row[order]
        new_group[1:] |= row[1:] != row[:-1]
    del keys
    group = np.cumsum(new_group, dtype=np.min_scalar_type(order.size))
    del new_group
    y_at, x_at = np.flatnonzero(order < n_y), np.flatnonzero(order >= n_y)
    lo = np.searchsorted(y_at, x_at)
    counts = np.searchsorted(group[y_at], group[x_at], side="right") - lo
    del group
    words = int(counts.sum())
    pass_slots(r, n, q, v, words)  # and v + 1 slots per output word

    pairing = np.flatnonzero(counts)
    x_at, lo, counts = x_at[pairing], lo[pairing], counts[pairing]
    x_sup, x_coef = np.divmod(order[np.repeat(x_at, counts)] - n_y, len(xc))
    y_pick = y_at[np.arange(words) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    y_sup, y_coef = np.divmod(order[y_pick], len(yc))
    return np.hstack([xs[x_sup], ys[y_sup]]), np.hstack([xc[x_coef], q - yc[y_coef]])


def subset_count(n: int, w: int, budget: int, *powers: tuple[int, int]) -> int:
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
