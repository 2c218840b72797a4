import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from normbch import (
    BasisPair,
    Field,
    FieldMismatchError,
    embed_hat,
    make_basis_pair,
    make_field,
    norm,
)
from normbch import field as field_module
from normbch.field import DEFAULT_MAX_FIELD_SIZE, _x_power, is_prime
from oracles import (
    is_irreducible,
    multiplicative_order,
    order_of_x,
    poly_mod,
    poly_mul,
    poly_powmod,
    powers_of_x,
    residue_of_x_is_primitive,
)
from test_verify import AUGMENTED_INSTANCES

F5 = make_field(5, 1)
F25 = make_field(5, 2)
F125 = make_field(5, 3)

# Moduli chosen by the original search, which walked the orbit of x for
# every candidate; any faster search must choose the same ones.
PINNED_MODULI = {
    (5, 5): (2, 0, 0, 0, 3, 1),
    (5, 6): (2, 0, 0, 0, 0, 1, 1),
    (7, 4): (3, 0, 1, 1, 1),
    (3, 8): (2, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 12): (1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1),
}
SMALL_FIELDS = [(p, k) for p in (2, 3, 5, 7) for k in range(1, 14) if p**k <= 5**6]
REFERENCE_FIELDS = [(2, 1), (2, 3), (2, 8), (3, 4), (5, 3), (7, 2), (11, 2), (13, 1)]


class TestMakeField:
    def test_prime_field(self):
        assert F5.size == 5
        assert multiplicative_order(F5.e) == 4

    def test_gf125_primitive_order(self):
        # order checked by repeated multiplication, independent of the tables
        assert multiplicative_order(F125.e) == 124

    def test_non_prime_p_rejected(self):
        with pytest.raises(ValueError):
            make_field(4, 2)

    def test_degree_zero_rejected(self):
        for build in (make_field, Field):
            with pytest.raises(ValueError, match="^extension degree must be positive, got 0$"):
                build(5, 0)

    def test_size_budget(self):
        with pytest.raises(ValueError, match=f"exceeds the budget {DEFAULT_MAX_FIELD_SIZE}$"):
            make_field(2, 25)

    def test_size_budget_for_any_degree(self):
        # 5^3000000 would have over 4300 digits; the check never computes it
        with pytest.raises(ValueError, match=r"5\^3000000 exceeds the budget"):
            make_field(5, 3_000_000)

    def test_cached_on_field_only(self):
        assert make_field(5, 3) is make_field(5, 3) is F125

    @pytest.mark.parametrize("p,k", [(5, 1), (5, 2), (5, 3), (3, 2), (3, 4), (7, 3)])
    def test_modulus_is_monic_irreducible_primitive(self, p, k):
        field = make_field(p, k)
        mod = list(field.modulus)
        assert mod[-1] == 1
        assert is_irreducible(mod, p)
        assert residue_of_x_is_primitive(mod, p)

    def test_modulus_is_lex_smallest(self):
        # scan every lex-smaller monic candidate with the oracle arithmetic
        for p, k in [(5, 3), (2, 8), (3, 5), (5, 4), (7, 3)]:
            chosen = make_field(p, k).modulus[:-1]
            for tail in itertools.product(range(p), repeat=k):
                if tail >= chosen:
                    break
                assert not residue_of_x_is_primitive(list(tail) + [1], p)

    @pytest.mark.parametrize("p,k", PINNED_MODULI)
    def test_modulus_pinned(self, p, k):
        assert make_field(p, k).modulus == PINNED_MODULI[p, k]

    @pytest.mark.parametrize(
        "p,k,modulus",
        [(5, 7, (2, 0, 0, 0, 0, 0, 1, 1)), (5, 8, (2, 0, 0, 0, 0, 0, 2, 1, 1)), (2, 20, (1,) + (0,) * 16 + (1, 0, 0, 1)),
         (3, 12, (2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 1)), (13, 4, (2, 0, 2, 6, 1)),
         (3, 9, (1, 0, 0, 0, 0, 0, 2, 1, 0, 1)), (1021, 2, (10, 1, 1)), (32749, 1, (2, 1))],
    )
    def test_large_field_modulus(self, p, k, modulus):
        # GF(5^7) and GF(5^8) carry the d = 6 member (5,7,6); GF(2^20) is
        # the largest field within the default budget.  Of the fields the
        # d = 4..8 members build, GF(3^12), GF(13^4) and GF(3^9) take the
        # most candidates (42, 33 and 22); GF(1021^2) and GF(32749) have
        # the largest prime fields.
        assert make_field(p, k).modulus == modulus
        assert is_irreducible(list(modulus), p)
        assert order_of_x(list(modulus), p) == p**k - 1

    @pytest.mark.parametrize("p,k", SMALL_FIELDS)
    def test_tables_are_powers_of_x(self, p, k):
        field = make_field(p, k)
        assert [int(v) for v in field._exp] == powers_of_x(list(field.modulus), p)
        assert all(field._log[v] == i for i, v in enumerate(field._exp))

    def test_determinism(self):
        assert make_field(5, 3).modulus == F125.modulus == (2, 0, 1, 1)


class TestSearchKernel:
    """The two number-theoretic kernels of the modulus search, pinned directly."""

    @pytest.mark.parametrize("p,k", [(32749, 1), (2, 13), (5, 3), (5, 8)])
    def test_x_power_matches_the_antilog_table(self, p, k):
        field = make_field(p, k)
        rng = random.Random(p + k)
        exponents = [1, field.size - 2, field.size - 1] + [rng.randrange(1, 10 * field.size) for _ in range(30)]
        for exponent in exponents:
            power = _x_power(field.modulus[:-1], exponent, p).astype(np.int64)
            assert field.encode_array(power) == field.power(field.e.val, exponent)

    @pytest.mark.parametrize("p,k", [(2, 5), (3, 4), (7, 3), (13, 2)])
    def test_x_power_batch_matches_oracle(self, p, k):
        # a batch of arbitrary monic moduli, reducible ones included, each with its own companion matrix
        rng = random.Random(10 * p + k)
        tails = [[rng.randrange(p) for _ in range(k)] for _ in range(40)]
        for exponent in [1, 2, p**k - 1, rng.randrange(1, 10**6)]:
            for tail in tails:
                want = poly_powmod([0, 1], exponent, tail + [1], p)
                assert _x_power(tail, exponent, p).astype(np.int64).tolist() == want + [0] * (k - len(want))

    def test_is_prime_matches_a_sieve(self):
        limit = 10**4
        sieve = [False, False] + [True] * (limit - 1)
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
        assert [is_prime(n) for n in range(-3, limit + 1)] == [False] * 3 + sieve


class TestArithmetic:
    def test_axioms_random_triples(self):
        rng = random.Random(11)
        for _ in range(1000):
            a, b, c = (F125.elem(rng.randrange(125)) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_inverse_identity(self):
        assert F125.one.inverse() == F125.one
        rng = random.Random(12)
        for _ in range(1000):
            x = F125.elem(rng.randrange(1, 125))
            assert x * x.inverse() == F125.one

    def test_inverse_of_zero(self):
        for call in (F125.zero.inverse, lambda: F125.one / F125.zero):
            with pytest.raises(ZeroDivisionError, match="^zero has no multiplicative inverse$"):
                call()

    def test_pow_lagrange(self):
        assert F125.e ** (125 - 1) == F125.one
        assert F25.e ** (25 - 1) == F25.one

    def test_pow_zero_base(self):
        assert F125.zero**0 == F125.one
        assert F125.zero**7 == F125.zero
        with pytest.raises(ZeroDivisionError):
            F125.zero ** (-1)

    def test_pow_negative_exponent(self):
        x = F125.elem(17)
        assert x**-1 == x.inverse()

    def test_pow_matches_repeated_multiplication(self):
        for x in (F125.elem(v) for v in range(1, F125.size)):
            up, down, inv = F125.one, F125.one, x.inverse()
            for k in range(131):
                assert x**k == up and x ** (-k) == down
                up, down = up * x, down * inv

    def test_elem_range(self):
        assert F125.elem(F125.size - 1).val == 124
        for val in (-1, F125.size):
            with pytest.raises(ValueError, match=rf"element value {val} out of range \[0, 125\)"):
                F125.elem(val)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            F125.one + F25.one

    def test_non_element_rejected(self):
        x = F125.elem(17)
        for call, kind in [(lambda: x * 3, "int"), (lambda: x - "a", "str"), (lambda: x / 3, "int")]:
            with pytest.raises(TypeError, match=f"^expected a FieldElement, got {kind}$"):
                call()
        with pytest.raises(TypeError, match="^unsupported operand type"):
            x**1.5
        assert x != 3 and x.__eq__(3) is NotImplemented

    @given(st.integers(0, 24), st.integers(0, 24))
    def test_sub_is_add_neg(self, a, b):
        x, y = F25.elem(a), F25.elem(b)
        assert x - y == x + (-y)

    @given(st.integers(0, 24), st.integers(1, 24))
    def test_div_mul_roundtrip(self, a, b):
        x, y = F25.elem(a), F25.elem(b)
        assert (x / y) * y == x


class TestAdditionReference:
    """Field.add against the log-domain sum a * (1 + b/a), and the sum, difference and negation of
    FieldElement against digit-wise arithmetic mod p."""

    @pytest.mark.parametrize("p,k", REFERENCE_FIELDS)
    def test_every_pair(self, p, k):
        field = make_field(p, k)
        coords = [tuple(c) for c in field.coords_array(np.arange(field.size)).T.tolist()]
        elements = list(zip((field.elem(v) for v in range(field.size)), coords))
        for x, cx in elements:
            assert coords[(-x).val] == tuple(-a % p for a in cx)
            for y, cy in elements:
                assert coords[(x + y).val] == tuple((a + b) % p for a, b in zip(cx, cy))
                assert coords[(x - y).val] == tuple((a - b) % p for a, b in zip(cx, cy))

    def test_gf2_20_sum_is_xor(self):
        field = make_field(2, 20)
        rng = random.Random(20)
        for _ in range(10_000):
            a, b = rng.randrange(field.size), rng.randrange(field.size)
            assert (field.elem(a) + field.elem(b)).val == a ^ b

    @pytest.mark.parametrize("p,k", REFERENCE_FIELDS)
    def test_every_pair_is_the_log_domain_sum(self, p, k):
        field = make_field(p, k)
        a, b = every_pair(field)
        assert (field.add(a, b) == log_domain_sum(field, a, b)).all()

    @pytest.mark.parametrize("p,k", [(2, 20), (1021, 2)])
    def test_random_pairs_are_the_log_domain_sum(self, p, k):
        field = make_field(p, k)
        a, b = np.random.default_rng(p).integers(field.size, size=(2, 10**5))
        a[:100], b[50:150] = 0, 0  # a zero operand, and both zero at 50..99
        b[150:250] = field.mul(a[150:250], p - 1)  # b = -a, where 1 + b/a = 0
        assert (field.add(a, b) == log_domain_sum(field, a, b)).all()

    def test_ints_scalars_and_arrays(self):
        for a, b in [(3, 7), (0, 9), (9, 0), (0, 0), (7, int(F125.mul(7, 4))), (124, 124)]:
            total = F125.add(a, b)
            assert type(total) is int and total == log_domain_sum(F125, a, b)
        x = np.arange(F125.size)
        assert (F125.add(x, 1) == log_domain_sum(F125, x, 1)).all()
        assert (F125.add(7, x) == log_domain_sum(F125, 7, x)).all()
        assert (F125.add(x, x[::-1]) == log_domain_sum(F125, x, x[::-1])).all()


def log_domain_sum(field, a, b):
    """a + b as a * (1 + b/a), where both are nonzero, and the other operand where one is zero.

    The Zech-logarithm formula: 1 + e^k is e^k with its constant digit
    raised by one mod p, and the logs come from log_array.
    """
    a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
    nonzero = (a != 0) & (b != 0)
    k = field.log_array(np.where(nonzero, b, 1)) - field.log_array(np.where(nonzero, a, 1))
    ratio = field.power(field.e.val, k % (field.size - 1))
    low = ratio % field.p
    return np.where(nonzero, field.mul(a, ratio - low + (low + 1) % field.p), a + b)


def every_pair(field):
    """Flat arrays a, b running over every pair of encoded elements, b fastest."""
    return np.divmod(np.arange(field.size**2), field.size)


class TestArrayArithmetic:
    """Field.add, mul and power on arrays against references that read no field table.

    FieldElement's operators call these same three, so it cannot serve as
    their reference: digits come from integer division, products from
    polynomial arithmetic modulo the field's modulus.
    """

    @pytest.mark.parametrize("p,k", REFERENCE_FIELDS)
    def test_add_is_the_digitwise_sum(self, p, k):
        field = make_field(p, k)
        a, b = every_pair(field)
        want = sum((a // p**i + b // p**i) % p * p**i for i in range(k))
        assert (field.add(a, b) == want).all()

    @pytest.mark.parametrize("p,k", REFERENCE_FIELDS)
    def test_mul_is_the_polynomial_product(self, p, k):
        field = make_field(p, k)
        table = field.mul(*every_pair(field)).reshape(field.size, field.size)
        assert (table == table.T).all()  # so the oracle runs on the pairs a <= b alone
        polys, modulus = [[v // p**i % p for i in range(k)] for v in range(field.size)], list(field.modulus)
        for a, b in itertools.combinations_with_replacement(range(field.size), 2):
            product = poly_mod(poly_mul(polys[a], polys[b], p), modulus, p)
            assert table[a, b] == sum(c * p**i for i, c in enumerate(product)), (a, b)

    @pytest.mark.parametrize("p,k", REFERENCE_FIELDS)
    def test_power_is_a_repeated_product(self, p, k):
        # from k = 0, where 0^0 = 1, to 2(size - 1), where 0^k = 0 throughout; k = -1 inverts
        field = make_field(p, k)
        x = np.arange(field.size)
        product = np.ones_like(x)
        for exponent in range(2 * (field.size - 1) + 1):
            assert (field.power(x, exponent) == product).all(), exponent
            product = field.mul(product, x)
        assert (field.mul(field.power(x[1:], -1), x[1:]) == 1).all()
        assert (field.power(x, 10**30 * (field.size - 1) + 1) == x).all()  # beyond int64, as a Python int

    def test_column_by_row_broadcasts(self):
        column, row = np.arange(F125.size)[:, None], np.arange(F125.size)
        a, b = every_pair(F125)
        for operation in (F125.add, F125.mul, F125.power):
            assert (operation(column, row) == operation(a, b).reshape(F125.size, F125.size)).all()


@pytest.mark.parametrize("p,k", [(13, 1), (2, 5), (3, 4), (5, 3), (7, 2)])
def test_prime_field_membership_is_an_encoding_below_p(p, k):
    # the encoding test against the Frobenius test x^p == x, its reference
    field = make_field(p, k)
    elements = [field.elem(v) for v in range(field.size)]
    assert [x.val < p for x in elements] == [x**p == x for x in elements]


class TestSerialization:
    def test_describe_format(self):
        assert F5.modulus == (2, 1)


class TestBasisPair:
    def test_s1_prefix_is_unit(self):
        bp = make_basis_pair(5, 2, 4)
        assert bp.s == 1
        assert bp.g[0] == 1

    def test_535_shape(self):
        bp = make_basis_pair(5, 3, 5)
        assert bp.s == 1
        assert len(bp.g) == 3
        assert bp.g[0] == 1

    def test_s2_prefix_in_subfield(self):
        bp = make_basis_pair(5, 3, 4)
        assert bp.s == 2 and bp.field_mu.degree == 4
        for i in range(2):
            g_i = bp.field_mu.elem(int(bp.g[i]))
            assert g_i**25 == g_i

    def test_prefix_spans_subfield(self):
        # the s-prefix consists of subfield elements and is independent,
        # so it spans GF(q^s); check coverage exhaustively
        bp = make_basis_pair(5, 3, 4)
        f = bp.field_mu
        g = [f.elem(int(v)) for v in bp.g]
        span = {(f.scalar(c1) * g[0] + f.scalar(c2) * g[1]).val for c1 in range(5) for c2 in range(5)}
        subfield = {x.val for x in (f.elem(v) for v in range(f.size)) if x**25 == x}
        assert span == subfield

    @pytest.mark.parametrize("q,m,d", [(5, 2, 4), (5, 3, 4), (5, 3, 5), (5, 5, 5), (7, 3, 5), (3, 2, 4)])
    def test_g_is_the_product_basis(self, q, m, d):
        # g_(j*s + i) = b^i * E^j, b = E^((q^mu - 1)/(q^s - 1)), by element arithmetic
        bp = make_basis_pair(q, m, d)
        f = bp.field_mu
        b = f.e ** ((f.size - 1) // (q**bp.s - 1))
        assert bp.g.tolist() == [(b**i * f.e**j).val for j in range(d - 2) for i in range(bp.s)]

    def test_g_coords_of_g_is_the_identity(self):
        # G^-1 is the row operations of the elimination that also tests g's independence
        for qmd in AUGMENTED_INSTANCES:
            bp = make_basis_pair(*qmd)
            assert (bp.g_coords(bp.g) == np.eye(len(bp.g), dtype=np.int64)).all(), qmd

    def test_dependent_basis_rejected(self):
        bp = make_basis_pair(5, 2, 4)
        with pytest.raises(ValueError, match="not linearly independent"):
            BasisPair(bp.field_m, bp.field_mu, 1, [bp.g[0], bp.g[0]])

    def test_h_longer_than_g_rejected(self):
        bp = make_basis_pair(5, 3, 4)  # GF(5^3) into GF(5^4); swapped, h has 4 members and g 3
        with pytest.raises(ValueError, match="injective"):
            BasisPair(bp.field_mu, bp.field_m, 1, bp.field_m.power(bp.field_m.e.val, np.arange(3)))

    def test_bad_prefix_rejected(self):
        bp = make_basis_pair(5, 3, 4)
        shuffled = bp.g[[2, 1, 0, 3]]  # E first, which lies outside GF(25)
        with pytest.raises(ValueError, match="g_1 does not lie in the subfield of size 25"):
            BasisPair(bp.field_m, bp.field_mu, 2, shuffled)

    def test_mixed_characteristics_rejected(self):
        with pytest.raises(FieldMismatchError, match="characteristics"):
            BasisPair(make_field(7, 2), F125, 1, F125.power(F125.e.val, np.arange(3)))

    def test_g_length_is_the_degree(self):
        bp = make_basis_pair(5, 3, 5)
        with pytest.raises(ValueError, match=r"g must hold 3 encoded values in \[0, 125\)"):
            BasisPair(bp.field_m, bp.field_mu, 1, bp.g[:2])

    def test_norm_field_refused_before_either_build(self, monkeypatch):
        # GF(7^7) fits the budget and GF(7^8) does not; neither is built before the refusal
        def build(p, degree):
            raise AssertionError(f"GF({p}^{degree}) built before the refusal")

        monkeypatch.setattr(field_module, "make_field", build)  # a cache hit cannot hide a build
        with pytest.raises(ValueError, match=r"^field size 7\^8 exceeds the budget 1048576$"):
            make_basis_pair(7, 7, 6)

    def test_prefix_length_must_divide_the_degree(self):
        bp = make_basis_pair(5, 3, 4)  # GF(5^4): s = 3 does not divide 4
        with pytest.raises(ValueError, match="^subfield prefix length s=3 incompatible with degree 4$"):
            BasisPair(bp.field_m, bp.field_mu, 3, bp.g)

    @pytest.mark.parametrize("m, d, message", [(3, 2, "d must be at least 3"), (0, 4, "m must be positive")])
    def test_parameters_refused(self, m, d, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_basis_pair(5, m, d)

    def test_g_outside_the_field_rejected(self):
        bp = make_basis_pair(5, 3, 5)
        with pytest.raises(ValueError, match=r"g must hold 3 encoded values in \[0, 125\)"):
            BasisPair(bp.field_m, bp.field_mu, 1, bp.g + [0, 0, 125])


class TestEmbed:
    BP535 = make_basis_pair(5, 3, 5)
    BP524 = make_basis_pair(5, 2, 4)

    def test_zero_maps_to_zero(self):
        assert embed_hat(self.BP535.field_m.zero, self.BP535) == self.BP535.field_mu.zero

    def test_basis_maps_to_basis(self):
        # h_i = e^i, the polynomial basis
        for bp in (self.BP535, self.BP524, make_basis_pair(5, 3, 4)):
            for i in range(bp.field_m.degree):
                assert embed_hat(bp.field_m.e**i, bp).val == bp.g[i]

    def test_linearity_random(self):
        bp = self.BP535
        fm = bp.field_m
        rng = random.Random(13)
        for _ in range(1000):
            a = fm.elem(rng.randrange(125))
            b = fm.elem(rng.randrange(125))
            lam = rng.randrange(5)
            left = embed_hat(a + fm.scalar(lam) * b, bp)
            right = embed_hat(a, bp) + bp.field_mu.scalar(lam) * embed_hat(b, bp)
            assert left == right

    @pytest.mark.parametrize("q,m,d", [(5, 2, 4), (5, 3, 5), (5, 3, 4)])
    def test_injective_exhaustive(self, q, m, d):
        bp = make_basis_pair(q, m, d)
        images = {embed_hat(bp.field_m.elem(v), bp).val for v in range(bp.field_m.size)}
        assert len(images) == bp.field_m.size

    def test_mismatched_field_rejected(self):
        with pytest.raises(FieldMismatchError):
            embed_hat(F25.one, self.BP535)


class TestNorm:
    def test_zero_one(self):
        f = make_basis_pair(5, 3, 5).field_mu
        assert norm(f.zero, 5) == f.zero
        assert norm(f.one, 5) == f.one

    @pytest.mark.parametrize("q,m,d", [(5, 3, 5), (5, 3, 4)])
    def test_multiplicative(self, q, m, d):
        f = make_basis_pair(q, m, d).field_mu
        rng = random.Random(14)
        for _ in range(1000):
            x = f.elem(rng.randrange(f.size))
            y = f.elem(rng.randrange(f.size))
            assert norm(x * y, d) == norm(x, d) * norm(y, d)

    @pytest.mark.parametrize("q,m,d", [(5, 2, 4), (5, 3, 5), (5, 3, 4)])
    def test_image_in_subfield_exhaustive(self, q, m, d):
        bp = make_basis_pair(q, m, d)
        f = bp.field_mu
        sub = q**bp.s
        for x in (f.elem(v) for v in range(f.size)):
            y = norm(x, d)
            assert y**sub == y

    def test_norm_of_primitive_has_subfield_order(self):
        bp = make_basis_pair(5, 3, 4)
        value = norm(bp.field_mu.e, 4)
        assert multiplicative_order(value) == 5**bp.s - 1

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            norm(F125.one, 4)  # degree 3 is not a multiple of d-2 = 2

    def test_distance_below_3_rejected(self):
        with pytest.raises(ValueError, match="^d must be at least 3$"):
            norm(F125.one, 2)

