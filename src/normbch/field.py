"""Arithmetic in GF(p) and its extension fields, with explicit bases.

An element of GF(p^k) is an integer in [0, p^k): its base-p digits, low
digit first, are the coordinates in the polynomial basis
{1, x, ..., x^(k-1)} modulo the field's defining polynomial.  The
defining polynomial is the lexicographically smallest monic polynomial
of degree k (coefficients compared low degree first) modulo which x has
multiplicative order p^k - 1; the residue class of x is then the
canonical primitive element e.  The search tests one candidate at a
time by order, x^N = 1 and x^(N/r) != 1 for the primes r dividing
N = p^k - 1, drops it at its first failed exponent, and skips constant
terms whose norm cannot generate GF(p)*.  The antilog table (the powers
of e) is built once, for the chosen modulus, and the log table is its
inverse permutation; both are numpy arrays.  The search and the table
take every power of x from the float64 companion matrix of y -> x*y, so
the products run through BLAS: the search squares it, and the table
multiplies blocks of consecutive powers by a power of it.  This fixed
choice makes every field, basis and matrix in the package
bit-reproducible across runs.

Arithmetic works on encoded values, ints or numpy arrays that broadcast:
add sums the base-p digits mod p, as polynomial coordinates add
coordinate-wise; mul is a sum of logs and power a log times the
exponent, each masking zero.  FieldElement, the element-at-a-time API,
is their scalar case.  Matrices are built a column array at a time with
them and with log_array, coords_array and encode_array.  An
element lies in the prime field exactly when its encoding is below p, as
its only nonzero digit is then the constant one.

Field towers pair GF(q^m) with GF(q^mu), mu = s*(d-2) (norm_degrees),
through two bases: h, the polynomial basis of GF(q^m), and g, a product
basis of GF(q^mu) over GF(q) whose first s members span the subfield
GF(q^s).  make_basis_pair computes g as one array of powers of the
primitive element, and BasisPair checks it on arrays.  embed_hat carries
h-coordinates, which are polynomial coordinates, onto g-coordinates (a
GF(q)-linear injection); norm is the multiplicative norm of GF(q^mu)
onto that subfield, the power norm_exponent.

Fields and basis pairs are immutable after construction and safe to
share across threads; all arithmetic is pure.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from . import _prime_factors, is_prime, linalg
from .errors import DEFAULT_MAX_FIELD_SIZE, within_field_budget


class FieldMismatchError(ValueError):
    """Raised when elements of different fields are combined."""


def _companion(tail, p: int) -> np.ndarray:
    """The float64 matrix of y -> x*y modulo the monic x^k + tail, on coordinate columns, low degree first."""
    mult = np.eye(len(tail), k=-1)
    mult[:, -1] = -np.asarray(tail) % p
    return mult


def _x_power(tail, exponent: int, p: int) -> np.ndarray:
    """Coordinates of x^exponent, exponent >= 1, modulo the monic x^k + tail.

    Squares and multiplies the companion matrix; the first column of
    the matrix of x^exponent is its coordinate vector.
    """
    mult = _companion(tail, p)
    acc = mult
    for bit in bin(exponent)[3:]:
        acc = _mod(acc @ acc, p)
        if bit == "1":
            acc = _mod(mult @ acc, p)
    return acc[:, 0]


def _primitive_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic f of degree k with x of order p^k - 1 mod f.

    Candidates are the tails (c0, ..., c_{k-1}), c0 most significant.  A
    residue x of order N = p^k - 1 has norm (-1)^k * c0 generating GF(p)*,
    so each c0 failing that is skipped; each other candidate is kept
    when x^N = 1 and x^(N/r) != 1 for every prime r dividing N, and
    dropped at its first failed exponent.  Only a field has N units, so
    the winner is irreducible and x primitive.
    """
    order = p**k - 1
    checks = [(order, True)] + [(order // r, False) for r in _prime_factors(order)]
    unit_factors = _prime_factors(p - 1)
    for c0 in range(1, p):
        if any(pow((-1) ** k * c0 % p, (p - 1) // r, p) == 1 for r in unit_factors):
            continue
        for rest in itertools.product(range(p), repeat=k - 1):
            tail = (c0, *rest)
            if all(np.array_equal(_x_power(tail, exponent, p), np.eye(k)[0]) == want for exponent, want in checks):
                return tail + (1,)
    raise RuntimeError(f"no primitive polynomial of degree {k} over GF({p})")


def _powers_of_x(modulus, p: int) -> np.ndarray:
    """Encoded x^0, ..., x^(p^k - 2) modulo a primitive modulus, one block at a time.

    A block holds about sqrt(p^k) consecutive powers as coordinate
    columns; multiplying it by the matrix of x^width gives the next one,
    so no array of all p^k coordinate vectors is built.
    """
    k = len(modulus) - 1
    n = p**k - 1
    mult = _companion(modulus[:-1], p)
    block = np.eye(k, 1)
    while block.shape[1] ** 2 < n:
        block = np.hstack([block, _mod(mult @ block, p)])
        mult = _mod(mult @ mult, p)
    weights = p ** np.arange(k, dtype=np.float64)
    out = np.empty(n, dtype=np.int64)
    width = block.shape[1]
    for start in range(0, n, width):
        out[start : start + width] = (weights @ block)[: n - start]
        block = _mod(mult @ block, p)
    return out


def _mod(a, p: int):
    # Products of reduced k x k matrices stay below k * p^2 <= 2^40 < 2^53
    # within DEFAULT_MAX_FIELD_SIZE, and on such integers this is exact: a / p
    # is correctly rounded, and a fractional quotient is too far from the
    # next integer to round onto it.  In place after the division: a new
    # array per step made the GF(2^20) modulus search about 1.5x slower.
    out = a / p
    np.floor(out, out=out)
    out *= p
    return np.subtract(a, out, out=out)


class FieldElement:
    """Immutable element of a Field; supports +, -, *, /, ** and hashing."""

    __slots__ = ("field", "val")

    def __init__(self, field: "Field", val: int):
        self.field = field
        self.val = val

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected a FieldElement, got {type(other).__name__}")
        if self.field is not other.field:
            raise FieldMismatchError(
                f"elements of GF({self.field.p}^{self.field.degree}) and "
                f"GF({other.field.p}^{other.field.degree}) cannot be combined"
            )

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.field, int(self.field.add(self.val, other.val)))

    def __sub__(self, other):
        self._check(other)
        return self + -other

    def __neg__(self):
        return self * self.field.scalar(-1)

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.field, int(self.field.mul(self.val, other.val)))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if not self.val and exponent < 0:
            raise ZeroDivisionError("zero cannot be raised to a negative power")
        return FieldElement(self.field, int(self.field.power(self.val, exponent)))

    def inverse(self) -> "FieldElement":
        if not self.val:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self ** -1

    def __bool__(self) -> bool:
        return self.val != 0

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field is other.field and self.val == other.val

    def __hash__(self):
        return hash((self.field, self.val))

    def __repr__(self):
        return f"gf({self.field.p}^{self.field.degree}):{self.val}"


class Field:
    """GF(p^k) with the deterministically chosen primitive modulus.

    Use make_field instead of constructing directly: its cache holds the
    one instance of each field, so elements compare fields by identity.
    """

    def __init__(self, p: int, degree: int):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if degree < 1:
            raise ValueError(f"extension degree must be positive, got {degree}")
        size = p**degree
        self.p = p
        self.degree = degree
        self.size = size
        self.modulus = _primitive_modulus(p, degree)
        self._weights = p ** np.arange(degree, dtype=np.int64)
        self._exp = _powers_of_x(self.modulus, p)
        self._log = np.zeros(size, dtype=np.int64)
        self._log[self._exp] = np.arange(size - 1)
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)
        self.e = FieldElement(self, self._exp.item(1 % (size - 1)))

    # arithmetic on encoded values: each operand is an int or a numpy array, and arrays broadcast;
    # mul and power mask zero by multiplying with a 0/1 test, so their int operands give numpy scalars
    def add(self, a, b):
        """a + b: the base-p digits are polynomial coordinates, so they add mod p; int operands give an int."""
        return sum((a // w + b // w) % self.p * w for w in self._weights.tolist())

    def mul(self, a, b):
        """a * b: the sum of the logs, where neither is zero."""
        return self._exp[(self._log[a] + self._log[b]) % (self.size - 1)] * ((a != 0) & (b != 0))

    def power(self, a, k):
        """a^k: the log times k mod size - 1, so negative k inverts; 0^0 = 1 and 0^k = 0 for k > 0."""
        return self._exp[self._log[a] * (k % (self.size - 1)) % (self.size - 1)] * ((a != 0) | (k == 0))

    # maps between encoded values, logs and coordinates, for building matrices column-wise
    def log_array(self, vals) -> np.ndarray:
        """Discrete logs base e of an array of nonzero encoded values."""
        return self._log[vals]

    def coords_array(self, vals) -> np.ndarray:
        """Coordinates of an array of encoded values; column j belongs to vals[j]."""
        return np.asarray(vals)[None, :] // self._weights[:, None] % self.p

    def encode_array(self, coords) -> np.ndarray:
        """Encoded values of coordinate columns (inverse of coords_array)."""
        return self._weights @ coords

    def elem(self, val: int) -> FieldElement:
        if not 0 <= val < self.size:
            raise ValueError(f"element value {val} out of range [0, {self.size})")
        return FieldElement(self, val)

    def scalar(self, c: int) -> FieldElement:
        """The prime-subfield element with constant coordinate c."""
        return FieldElement(self, c % self.p)

    def __repr__(self):
        return f"Field(GF({self.p}^{self.degree}), modulus={list(self.modulus)})"


@lru_cache(maxsize=None)
def make_field(p: int, total_degree: int) -> Field:
    """GF(p^total_degree) with the deterministic modulus choice.

    Cached on (p, total_degree), so every call for one field returns the
    same object and their elements interoperate directly; a refusal is
    not cached.
    """
    check_field_size(p, total_degree)
    return Field(p, total_degree)


def check_field_size(p: int, total_degree: int) -> None:
    """Refuse p^total_degree above DEFAULT_MAX_FIELD_SIZE."""
    if not within_field_budget(p, total_degree):
        raise ValueError(f"field size {p}^{total_degree} exceeds the budget {DEFAULT_MAX_FIELD_SIZE}")


def norm_degrees(m: int, d: int) -> tuple[int, int]:
    """(s, mu) for GF(q^m) at distance d >= 3: the norm maps GF(q^mu), mu = s*(d-2), onto GF(q^s), s = ceil(m/(d-2))."""
    s = -(-m // (d - 2))
    return s, s * (d - 2)


def norm_exponent(q: int, s: int, d: int) -> int:
    """The norm's exponent 1 + q^s + ... + q^((d-3)s) = (q^mu - 1)/(q^s - 1); e to it generates GF(q^s)*."""
    return sum(q ** (t * s) for t in range(d - 2))


class BasisPair:
    """The polynomial basis h = {1, e, ..., e^(m-1)} of GF(q^m) and a basis g of GF(q^mu), for embed_hat.

    g is an array of encoded GF(q^mu) values.  Invariants validated at
    construction: g is linearly independent over GF(q), at least as long
    as h, and its first s members lie in (hence span) the subfield
    GF(q^s) of GF(q^mu); the two fields share their characteristic.
    The row operations of G's rref decide independence (its rank) and are G^-1.
    """

    def __init__(self, field_m: Field, field_mu: Field, s: int, g):
        g = np.asarray(g, dtype=np.int64)
        p = field_mu.p
        if field_m.p != p:
            raise FieldMismatchError("the two fields have different characteristics")
        if g.shape != (field_mu.degree,) or ((g < 0) | (g >= field_mu.size)).any():
            raise ValueError(f"g must hold {field_mu.degree} encoded values in [0, {field_mu.size})")
        if field_m.degree > len(g):
            raise ValueError("h is longer than g, so embed_hat could not be injective")
        if not 1 <= s <= len(g) or field_mu.degree % s != 0:
            raise ValueError(f"subfield prefix length s={s} incompatible with degree {field_mu.degree}")
        g_mat = field_mu.coords_array(g)
        self._g_inv, rank, _ = linalg.row_operations(g_mat, p)
        if rank < len(g):
            raise ValueError("g is not linearly independent over the prime field")
        outside = np.flatnonzero(field_mu.power(g[:s], p**s) != g[:s])  # GF(p^s) holds the roots of y^(p^s) = y
        if len(outside):
            raise ValueError(f"g_{outside[0] + 1} does not lie in the subfield of size {p**s}")
        self.g = g
        self.s = s
        self.field_m = field_m
        self.field_mu = field_mu
        # h-coordinates are polynomial coordinates, so embed_hat is G's first m columns
        self._embed = g_mat[:, : field_m.degree]

    def embed_array(self, vals) -> np.ndarray:
        """embed_hat on an array of encoded GF(q^m) values."""
        coords = self._embed @ self.field_m.coords_array(vals) % self.field_m.p
        return self.field_mu.encode_array(coords)

    def g_coords(self, vals) -> np.ndarray:
        """Coordinates in the g basis of an array of encoded GF(q^mu) values, one column each."""
        return self._g_inv @ self.field_mu.coords_array(vals) % self.field_mu.p

    def __repr__(self):
        return (
            f"BasisPair(GF({self.field_m.p}^{self.field_m.degree}) -> "
            f"GF({self.field_mu.p}^{self.field_mu.degree}), s={self.s})"
        )


def make_basis_pair(q: int, m: int, d: int) -> BasisPair:
    """Standard basis pair for parameters (q, m, d).

    h is the polynomial basis {1, e, ..., e^(m-1)} of GF(q^m).  g is the
    product basis {beta_i * gamma_j} of GF(q^mu), where beta runs over
    the powers {1, b, ..., b^(s-1)} of the generator b = E^step of the
    GF(q^s) subfield, step = (q^mu - 1)/(q^s - 1) = norm_exponent, and
    gamma over {1, E, ..., E^(d-3)} for the primitive element E;
    gamma_1 = 1 forces g_1..g_s = beta_1..beta_s, so the subfield prefix
    property holds by construction.  g_(j*s + i) = E^(i*step + j) comes
    from one call of power.
    """
    if d < 3:
        raise ValueError("d must be at least 3")
    if m < 1:
        raise ValueError("m must be positive")
    s, mu = norm_degrees(m, d)
    check_field_size(q, mu)  # GF(q^mu) contains GF(q^m): refused first, before either is built
    field_m = make_field(q, m)
    field_mu = make_field(q, mu)
    step = norm_exponent(q, s, d)
    g = field_mu.power(field_mu.e.val, np.arange(d - 2)[:, None] + step * np.arange(s)).ravel()
    return BasisPair(field_m, field_mu, s, g)


def embed_hat(x: FieldElement, bp: BasisPair) -> FieldElement:
    """Carry the h-coordinates of x onto the g basis.

    GF(q)-linear and injective: if x = sum(alpha_i * h_i) then the image
    is sum(alpha_i * g_i).
    """
    if x.field is not bp.field_m:
        raise FieldMismatchError("element does not belong to the h-basis field")
    return FieldElement(bp.field_mu, bp.embed_array([x.val]).item())


def norm(x: FieldElement, d: int) -> FieldElement:
    """Multiplicative norm of GF(q^mu) onto its subfield GF(q^s), mu = s*(d-2).

    Computes x ** norm_exponent(q, s, d).  The result y satisfies
    y ** (q^s) == y, i.e. it lies in the subfield; it is returned as an
    element of GF(q^mu).
    """
    field = x.field
    if d < 3:
        raise ValueError("d must be at least 3")
    s, mu = norm_degrees(field.degree, d)
    if mu != field.degree:
        raise ValueError(f"field degree {field.degree} is not a multiple of d-2 = {d - 2}")
    return x ** norm_exponent(field.p, s, d)
