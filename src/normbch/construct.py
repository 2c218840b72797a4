"""Locator tables and parity check matrices over GF(q).

Positions are 1-based: position j < n carries the locator e^j (e the
primitive element of GF(q^m)), position n carries the locator 0, so the
locators enumerate the whole field exactly once.  LocatorTable is the
one map between columns and locators, and it refuses columns and
encoded locators outside [0, n).  A matrix is a dense
numpy array over GF(q) with one column per position plus row-block
metadata; the base construction stacks an all-ones row with the
h-coordinates of the locator powers y_j^t for t = 1..d-3, and the
augmented construction appends s rows holding the leading g-coordinates
of the norm of each embedded locator.  Both are built a row block at a
time from the encoded locators of all n columns by the field's power:
the norm is the power norm_exponent, and locator 0 gives 0^t = 0.

Row and coordinate order is fixed (all-ones first, then t ascending,
then basis coordinate ascending) so that two builds with equal
parameters serialize to identical bytes.

The field code loads only where a field is built or an element made:
the builders, validate_params and the field checks import it when they
run, so reading a matrix file never compiles it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import _is_digit_below, _sha256_hex, is_prime, linalg
from .errors import DEFAULT_MAX_FIELD_SIZE

if TYPE_CHECKING:  # annotations only
    from .field import FieldElement

MAX_ALPHABET = int(np.iinfo(np.int16).max)  # matrix entries are int16


class CodeParams(NamedTuple):
    """Parameters (q, m, d) with derived sizes and recorded rule violations.

    Violations are data rather than exceptions so a caller can report
    every failed hypothesis at once; valid is simply "no violations".
    """

    q: int
    m: int
    d: int
    relaxed: bool
    s: int
    mu: int
    n: int
    violations: tuple[str, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def _alphabet_violation(q: int) -> str | None:
    """Why q cannot be a matrix alphabet, or None; generated and read matrices share this rule."""
    if q > MAX_ALPHABET:
        return f"q={q} exceeds {MAX_ALPHABET}, the largest alphabet of the int16 matrix entries"
    if not is_prime(q):
        return f"q={q} is not prime (this implementation supports prime alphabets)"


def _header_violation(q: int, n: int, r: int, blocks) -> str | None:
    """Why q, n, r and blocks cannot head a matrix file, or None; built and read matrices share this rule."""
    if alphabet := _alphabet_violation(q):
        return alphabet
    if n < 1:
        return f"n={n} is not a positive length"
    if n > DEFAULT_MAX_FIELD_SIZE:
        return f"n={n} exceeds the field size budget {DEFAULT_MAX_FIELD_SIZE}"
    if not blocks:
        return "the block list is empty"
    if unfit := [name for name, _ in blocks if not name.isprintable() or set(name) & set(" ,:")]:
        return f"block name {unfit[0]!r} is not printable text without spaces, ',' or ':'"
    if negative := [f"{name}:{count}" for name, count in blocks if count < 0]:
        return f"block {negative[0]} has a negative row count"
    if sum(count for _, count in blocks) != r:
        return f"block row counts do not sum to r={r}"


def validate_params(q: int, m: int, d: int, relaxed: bool = False) -> CodeParams:
    """Check every construction hypothesis for (q, m, d).

    Strict mode demands a prime extension degree m > (d-3)!; relaxed
    mode only demands that every divisor of m other than 1 exceeds
    (d-3)!.  No field within the size budget has a degree above
    log2(budget), so m is checked, and (d-3)! computed, only up to it.
    The rule table's row order is the order of the report.
    """
    from .field import norm_degrees

    max_degree = DEFAULT_MAX_FIELD_SIZE.bit_length() - 1
    sized = 1 <= m <= max_degree
    n = q**m if q >= 2 and sized else 0
    s, mu = norm_degrees(m, d) if d >= 3 and m >= 1 else (0, 0)
    fact = math.factorial(min(d - 3, max_degree)) if d >= 3 else 0
    fact_text = str(fact) if d - 3 <= max_degree else f"{d - 3}!"
    divisors = [t for t in range(2, m + 1) if m % t == 0 and t <= fact] if sized and d >= 3 and relaxed else []
    strict = sized and d >= 3 and not relaxed
    alphabet = _alphabet_violation(q)
    rules = (
        (d < 3, f"d={d} is below the minimum supported distance 3"),
        (m < 1, f"m={m} must be a positive extension degree"),
        (alphabet is not None, alphabet),
        (d >= 3 and q >= 2 and (d - 2) % q == 0, f"q={q} divides d-2 = {d - 2}"),
        (d >= 3 and q >= 2 and q < d - 1, f"q={q} is below d-1 = {d - 1}"),
        (divisors, f"m={m} has divisors {divisors} not exceeding (d-3)! = {fact_text} (relaxed rule)"),
        (strict and not is_prime(m), f"m={m} is not prime (strict rule; relaxed mode uses divisors)"),
        (strict and m <= fact, f"m={m} does not exceed (d-3)! = {fact_text}"),
        (q >= 2 and m >= 1 and (not sized or n > DEFAULT_MAX_FIELD_SIZE),
         f"n={q}^{m} exceeds the field size budget {DEFAULT_MAX_FIELD_SIZE}"),
    )
    return CodeParams(q, m, d, relaxed, s, mu, n, tuple(violation for fails, violation in rules if fails))


class _CodewordFields(NamedTuple):
    support: tuple[int, ...]
    coeffs: tuple[int, ...]


class Codeword(_CodewordFields):
    """Sparse codeword: sorted 1-based support with aligned nonzero coefficients."""

    __slots__ = ()

    def __new__(cls, support: tuple[int, ...], coeffs: tuple[int, ...]):
        if len(support) != len(coeffs):
            raise ValueError("support and coefficients differ in length")
        if any(j < 1 for j in support):
            raise ValueError("positions are 1-based")
        if any(a >= b for a, b in zip(support, support[1:])):
            raise ValueError("support must be strictly increasing")
        if any(c == 0 for c in coeffs):
            raise ValueError("coefficients must be nonzero")
        return super().__new__(cls, support, coeffs)

    @property
    def weight(self) -> int:
        return len(self.support)


class LocatorTable:
    """Column-to-locator map for one field: e^1, ..., e^(n-1), then 0.

    encoded maps arrays of 0-based columns to encoded locators by the
    field's power, locator one 1-based position; columns inverts encoded
    by the log.  Columns and encoded locators alike lie in [0, n), and
    both maps refuse any other value with a ValueError naming it.
    """

    def __init__(self, field):
        self.field = field
        self.n = field.size

    def _in_range(self, values, kind: str) -> np.ndarray:
        values = np.asarray(values)
        outside = (values < 0) | (values >= self.n)
        if outside.any():
            raise ValueError(f"{kind} {values[outside].flat[0]} out of range [0, {self.n})")
        return values

    def encoded(self, columns) -> np.ndarray:
        """Encoded locators of 0-based columns: e^(j+1) for column j < n-1, 0 for column n-1."""
        columns = self._in_range(columns, "column")
        return self.field.power(self.field.e.val, columns + 1) * (columns != self.n - 1)

    def locator(self, position: int) -> FieldElement:
        return self.field.elem(self.encoded(position - 1).item())

    def columns(self, vals) -> np.ndarray:
        """0-based columns of an array of encoded locators: n-1 for 0, j for e^(j+1)."""
        vals = self._in_range(vals, "locator")
        return np.where(vals == 0, self.n - 1, (self.field.log_array(vals) - 1) % (self.n - 1))


class ParityCheckMatrix:
    """Dense GF(q) parity check matrix with block metadata and locators.

    Rows are reduced mod q (float entries must be integral) and read-only, so the cached rank holds.
    """

    def __init__(self, q, rows, blocks, locators=None):
        self.blocks = tuple((str(name), int(count)) for name, count in blocks)
        rows = np.asarray(rows)
        r, n = rows.shape
        if violation := _header_violation(q, n, r, self.blocks):
            raise ValueError(violation)
        if rows.dtype.kind == "f" and not (integral := np.isfinite(rows) & (rows == np.round(rows))).all():
            raise ValueError(f"entry {rows[~integral][0]} is not an integer")
        self.q = q
        # reduced in a dtype that holds q and each entry exactly (unsigned rows in an unsigned one), then narrowed
        wide = np.promote_types(rows.dtype, np.uint16 if rows.dtype.kind == "u" else np.int16)
        self.rows = np.ascontiguousarray(np.remainder(rows, q, dtype=wide).astype(np.int16, copy=False))
        self.rows.flags.writeable = False
        self.locators = locators
        self._rank: int | None = None

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    @property
    def row_count(self) -> int:
        return self.rows.shape[0]

    def rank(self) -> int:
        if self._rank is None:
            self._rank = linalg.rank(self.rows, self.q)
        return self._rank

    def dimension(self) -> int:
        return self.n - self.rank()

    def to_text(self) -> str:
        """The matrix file text, rendered on each call; no matrix keeps it.

        Each row is its entries in decimal, one space apart, ending in a
        newline.  The body is one byte array: each entry's slot, a space
        and its digits padded on the left with zero bytes, is read from a
        table of the q values; dropping the zero bytes and each row's
        first space leaves the text.
        """
        blocks = ",".join(f"{name}:{count}" for name, count in self.blocks)
        header = f"q={self.q} n={self.n} r={self.row_count} blocks={blocks}\n"
        width = len(str(self.q - 1))
        table = "".join(" " + str(v).rjust(width, "\0") for v in range(self.q)).encode()
        slots = np.frombuffer(table, dtype=np.uint8).reshape(self.q, 1 + width)[self.rows]
        slots[:, :1, 0] = 0
        r = self.row_count  # the row width is given, as reshape cannot infer one when r = 0
        newlines = np.full((r, 1), ord("\n"), dtype=np.uint8)
        body = np.hstack([slots.reshape(r, self.n * (1 + width)), newlines])
        return header + body[body != 0].tobytes().decode("ascii")

    def sha256(self) -> str:
        return _sha256_hex(self.to_text().encode())  # the built-in hash: no libcrypto mapped

    def __repr__(self):
        return f"ParityCheckMatrix(q={self.q}, {self.row_count}x{self.n}, blocks={self.blocks})"


def require_buildable(params: CodeParams) -> None:
    # Matrices can be built for experiments even when the distance
    # hypotheses fail, but the field itself must exist.
    from .field import check_field_size

    if params.d < 3:
        raise ValueError(f"d={params.d} is below 3; no matrix is defined")
    if params.m < 1 or _alphabet_violation(params.q):
        raise ValueError("matrix construction needs a prime q and positive m: " + "; ".join(params.violations))
    check_field_size(params.q, params.m)


def augmented_blocks(params: CodeParams) -> tuple[tuple[str, int], ...]:
    """Row blocks of augmented_matrix(params): ones:1, pow1:m, ..., pow(d-3):m, norm:s; bch_matrix has all but norm."""
    return (("ones", 1), *((f"pow{t}", params.m) for t in range(1, params.d - 2)), ("norm", params.s))


def bch_matrix(params: CodeParams) -> ParityCheckMatrix:
    """Base matrix: all-ones row, then h-coordinates of y_j^t for t = 1..d-3.

    Row block t holds the coordinates of the power t of every encoded
    locator y_j.  The extended position n has locator 0, so its column
    is 1 in the all-ones row and, as 0^t = 0, 0 elsewhere.  Row count
    is (d-3)m + 1.
    """
    from .field import make_field

    require_buildable(params)
    loc = LocatorTable(make_field(params.q, params.m))
    m, field = params.m, loc.field
    ys = loc.encoded(np.arange(params.n))
    rows = np.ones((1 + (params.d - 3) * m, params.n), dtype=np.int16)
    for t in range(1, params.d - 2):
        rows[1 + (t - 1) * m : 1 + t * m] = field.coords_array(field.power(ys, t))
    return ParityCheckMatrix(params.q, rows, augmented_blocks(params)[:-1], locators=loc)


def augmented_matrix(params: CodeParams) -> ParityCheckMatrix:
    """Base matrix plus s norm rows (leading g-coordinates of norm(embed(y_j))).

    All locators are embedded at once (embed_hat as a linear map on
    coordinate columns) and normed by one power of GF(q^mu), the
    exponent norm_exponent; locator 0 embeds and norms to 0.  Every norm
    value provably lies in the GF(q^s) subfield spanned by g_1..g_s; the
    build checks that the trailing coordinates vanish and treats a
    nonzero one as a basis construction bug.  Row count is
    (d-3)m + s + 1.  At d = 3, s = mu = m and the norm is the identity,
    so the matrix is [1; y]: the base rows of d = 4.
    """
    from .field import make_basis_pair, norm_exponent

    require_buildable(params)
    bp = make_basis_pair(params.q, params.m, params.d)  # refuses GF(q^mu) beyond the budget before the base rows
    base = bch_matrix(params)
    q, s = params.q, params.s
    embedded = bp.embed_array(base.locators.encoded(np.arange(params.n)))
    coords = bp.g_coords(bp.field_mu.power(embedded, norm_exponent(q, s, params.d)))
    if coords[s:].any():
        raise RuntimeError("norm value has coordinates outside the g-prefix; basis construction bug")
    rows = np.vstack([base.rows, coords[:s].astype(np.int16)])
    return ParityCheckMatrix(q, rows, augmented_blocks(params), locators=base.locators)


def syndrome(matrix: ParityCheckMatrix, word: Codeword) -> np.ndarray:
    """matrix times the sparse word, as a length-r vector over GF(q)."""
    if word.support and word.support[-1] > matrix.n:
        raise ValueError(f"support position {word.support[-1]} exceeds n={matrix.n}")
    cols = matrix.rows[:, [j - 1 for j in word.support]].astype(np.int64)
    return (cols @ np.array([c % matrix.q for c in word.coeffs], dtype=np.int64)) % matrix.q


def apply_affine_permutation(
    word: Codeword, a: FieldElement, b: FieldElement, loc: LocatorTable
) -> Codeword:
    """Remap each support locator x to the position of a + b*x; b must be nonzero.

    The coefficient attached to each locator is unchanged; only the
    support order is refreshed.
    """
    if not b:
        raise ValueError("affine permutations need a nonzero multiplier")
    if a.field is not loc.field or b.field is not loc.field:
        from .field import FieldMismatchError

        raise FieldMismatchError("affine map over a different field")
    xs = loc.encoded(np.array(word.support, dtype=np.intp) - 1)
    images = loc.columns(loc.field.add(a.val, loc.field.mul(b.val, xs))) + 1
    pairs = sorted(zip(images.tolist(), word.coeffs))
    return Codeword(tuple(j for j, _ in pairs), tuple(c for _, c in pairs))


def read_matrix_file(path) -> ParityCheckMatrix:
    """Parse a matrix file; locators and params are not reconstructed.

    The body is read by one np.loadtxt call into int16, which holds any
    entry below q.  When that fails, as on a token int16 cannot hold, or
    when the body holds what loadtxt takes but the format does not, a
    line-by-line pass raises ValueError naming the first bad line: a wrong
    entry count, or an entry that is not ASCII digits below q.  A bad
    header, and one that _header_violation refuses, are named as line 1, a
    wrong row count by the file alone.
    """
    with open(path, encoding="utf-8") as fh:  # as _run writes it, whatever the locale
        header, *body = fh.read().rstrip().splitlines() or [""]
    try:
        fields = dict(part.split("=", 1) for part in header.split())
        q, n, r = (int(fields.pop(key)) for key in "qnr")
        blocks = [(name, int(c)) for name, c in (b.split(":") for b in fields.pop("blocks").split(","))]
        if fields:
            raise ValueError
    except (KeyError, ValueError):
        form = "q=<prime> n=<n> r=<r> blocks=<name:count,...>"
        raise ValueError(f"{path}:1: header {header!r} is not {form}") from None
    if violation := _header_violation(q, n, r, blocks):
        raise ValueError(f"{path}:1: {violation}")
    if len(body) != r:
        raise ValueError(f"{path}: {len(body)} rows after the header, expected r={r}")
    try:  # an empty body skips loadtxt, which warns on it
        rows = np.loadtxt(body, dtype=np.int16, ndmin=2, comments=None) if r else np.zeros(0, dtype=np.int16)
    except ValueError:
        rows = None
    # loadtxt skips blank lines, takes signs and reads some non-ASCII letters as digits; by line, not to copy the file
    if r and (rows is None or rows.shape != (r, n) or (rows >= q).any() or any(
            "+" in line or "-" in line or not (line.isascii() or all(c.isascii() or c.isspace() for c in set(line)))
            for line in body)):
        for number, line in enumerate(body, start=2):
            entries = line.split()
            if len(entries) != n:
                raise ValueError(f"{path}:{number}: {len(entries)} entries, expected n={n}")
            bad = [e for e in entries if not _is_digit_below(e, q)]
            if bad:
                raise ValueError(f"{path}:{number}: entry {bad[0]!r} is not a digit in [0, {q})")
    return ParityCheckMatrix(q, rows.reshape(r, n), blocks)  # every entry checked below q
