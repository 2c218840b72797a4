import hashlib
import random
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from normbch import (
    _sha256_hex,
    Codeword,
    Field,
    FieldElement,
    FieldMismatchError,
    LocatorTable,
    ParityCheckMatrix,
    apply_affine_permutation,
    augmented_matrix,
    bch_matrix,
    construct_weight_word,
    enumerate_weight_words,
    linalg,
    make_field,
    min_distance_at_least,
    read_matrix_file,
    syndrome,
    validate_params,
    verify,
)


# (q, m, d, relaxed) and the exact report: every rule row fires in some case,
# and each pair of rows that can fire together does so in one case, in row order.
VIOLATION_REPORTS = [
    ((5, 3, -1, False), ("d=-1 is below the minimum supported distance 3",)),
    ((5, -2, 5, False), ("m=-2 must be a positive extension degree",)),
    ((4, 0, 2, False), ("d=2 is below the minimum supported distance 3", "m=0 must be a positive extension degree",
                        "q=4 is not prime (this implementation supports prime alphabets)")),
    ((1, 3, 5, True), ("q=1 is not prime (this implementation supports prime alphabets)",)),
    ((0, 4, 6, False), ("q=0 is not prime (this implementation supports prime alphabets)",
                        "m=4 is not prime (strict rule; relaxed mode uses divisors)", "m=4 does not exceed (d-3)! = 6")),
    ((4, 3, 6, False), ("q=4 is not prime (this implementation supports prime alphabets)", "q=4 divides d-2 = 4",
                        "q=4 is below d-1 = 5", "m=3 does not exceed (d-3)! = 6")),
    ((3, 4, 5, True), ("q=3 divides d-2 = 3", "q=3 is below d-1 = 4",
                       "m=4 has divisors [2] not exceeding (d-3)! = 2 (relaxed rule)")),
    ((3, 4, 5, False), ("q=3 divides d-2 = 3", "q=3 is below d-1 = 4",
                        "m=4 is not prime (strict rule; relaxed mode uses divisors)")),
    ((7, 8, 5, True), ("m=8 has divisors [2] not exceeding (d-3)! = 2 (relaxed rule)",
                       "n=7^8 exceeds the field size budget 1048576")),
    ((11, 6, 6, False), ("m=6 is not prime (strict rule; relaxed mode uses divisors)", "m=6 does not exceed (d-3)! = 6",
                         "n=11^6 exceeds the field size budget 1048576")),
    ((5, 3_000_000, 5, False), ("n=5^3000000 exceeds the field size budget 1048576",)),
    ((5, 3_000_000, 5, True), ("n=5^3000000 exceeds the field size budget 1048576",)),
    ((5, 3, 100_000, False), ("q=5 is below d-1 = 99999", "m=3 does not exceed (d-3)! = 99997!")),
    ((5, 3, 100_000, True), ("q=5 is below d-1 = 99999",
                             "m=3 has divisors [3] not exceeding (d-3)! = 99997! (relaxed rule)")),
    ((10**40 + 1, 1, 4, True), (f"q={10**40 + 1} exceeds 32767, the largest alphabet of the int16 matrix entries",
                                f"n={10**40 + 1}^1 exceeds the field size budget 1048576")),
    ((10**40 + 1, 1, 4, False), (f"q={10**40 + 1} exceeds 32767, the largest alphabet of the int16 matrix entries",
                                 "m=1 is not prime (strict rule; relaxed mode uses divisors)",
                                 "m=1 does not exceed (d-3)! = 1",
                                 f"n={10**40 + 1}^1 exceeds the field size budget 1048576")),
]


class TestValidateParams:
    def test_535_valid(self):
        p = validate_params(5, 3, 5)
        assert p.valid
        assert (p.s, p.mu, p.n) == (1, 3, 125)

    def test_335_invalid_two_reasons(self):
        p = validate_params(3, 3, 5)
        assert not p.valid
        assert len(p.violations) == 2
        joined = " ".join(p.violations)
        assert "divides d-2" in joined
        assert "below d-1" in joined

    def test_544_relaxed_valid(self):
        assert validate_params(5, 4, 4, relaxed=True).valid

    def test_544_strict_invalid(self):
        p = validate_params(5, 4, 4)
        assert not p.valid
        assert any("not prime" in v for v in p.violations)

    def test_relaxed_divisor_failure(self):
        p = validate_params(7, 4, 5, relaxed=True)
        assert not p.valid
        assert any("divisors" in v for v in p.violations)

    def test_non_prime_q(self):
        assert not validate_params(6, 3, 4).valid

    def test_d_below_three(self):
        p = validate_params(5, 3, 2)
        assert any("minimum supported distance" in v for v in p.violations)

    def test_small_characteristic_is_below_d_minus_one(self):
        # q <= d-3 implies q < d-1, so one rule reports both
        for q in range(2, 14):
            for d in range(max(4, q + 3), 17):
                params = validate_params(q, 3, d)
                assert not params.valid and any("below d-1" in v for v in params.violations), (q, d)

    @pytest.mark.parametrize(
        "q, m, d, relaxed, rule",
        [(5, 3_000_000, 5, False, "n=5^3000000 exceeds the field size budget"),
         (5, 100_000_000, 5, True, "n=5^100000000 exceeds the field size budget"),
         (5, 10**30, 4, False, "exceeds the field size budget"),
         (5, 3, 100_000, False, "m=3 does not exceed (d-3)! = 99997!"),
         (40009, 1, 4, True, "q=40009 exceeds 32767"),
         (10**40 + 1, 1, 4, True, "exceeds 32767")],
        ids=["m-3e6", "m-1e8-relaxed", "m-1e30", "d-1e5", "q-beyond-int16", "q-huge"],
    )
    def test_work_bounded_for_any_params(self, q, m, d, relaxed, rule):
        p = validate_params(q, m, d, relaxed=relaxed)
        assert any(rule in v for v in p.violations), p.violations

    @pytest.mark.parametrize("qmd_relaxed, report", VIOLATION_REPORTS,
                             ids=["%s-%s-%s-%s" % (q, m, d, "relaxed" if r else "strict")
                                  for (q, m, d, r), _ in VIOLATION_REPORTS])
    def test_violations_are_reported_in_rule_order(self, qmd_relaxed, report):
        q, m, d, relaxed = qmd_relaxed
        assert validate_params(q, m, d, relaxed=relaxed).violations == report


class TestLocators:
    def test_prime_field_permutation(self):
        loc = LocatorTable(make_field(5, 1))
        vals = loc.encoded(np.arange(loc.n)).tolist()
        assert sorted(vals) == [0, 1, 2, 3, 4]
        assert vals[-1] == 0

    def test_last_nonzero_position_is_one(self):
        loc = LocatorTable(make_field(5, 2))
        assert loc.locator(24) == loc.field.one
        assert loc.locator(25) == loc.field.zero

    def test_all_distinct(self):
        loc = LocatorTable(make_field(5, 2))
        assert len(set(loc.encoded(np.arange(loc.n)).tolist())) == 25

    @pytest.mark.parametrize("q, m", [(2, 5), (3, 4), (5, 1), (5, 3), (7, 2), (13, 2)])
    def test_encoded_agrees_with_locator_and_position(self, q, m):
        # and with the rule it replaced for GF(q): column j < n-1 holds e^(j+1), which lies in
        # GF(q) exactly when (n-1)/(q-1) divides j+1; the last column holds 0
        loc = LocatorTable(make_field(q, m))
        n = loc.n
        ys = loc.encoded(np.arange(n))
        assert ys.tolist() == [loc.locator(j).val for j in range(1, n + 1)]
        assert [int(loc.columns(loc.field.elem(y).val)) + 1 for y in ys.tolist()] == list(range(1, n + 1))
        assert loc.columns(ys).tolist() == list(range(n))
        divisible = [(j + 1) % ((n - 1) // (q - 1)) == 0 for j in range(n - 1)] + [True]
        assert (ys < q).tolist() == divisible
        assert loc.encoded([[n - 1, 0], [1, n - 1]]).tolist() == [[0, ys[0]], [ys[1], 0]]

    def test_position_roundtrip(self):
        loc = LocatorTable(make_field(5, 2))
        for j in range(1, 26):
            assert loc.columns(loc.locator(j).val) + 1 == j

    @pytest.mark.parametrize("call, message", [
        (lambda loc: loc.encoded([25, 26, -1]), "column 25 out of range"),
        (lambda loc: loc.columns([-1]), "locator -1 out of range"),
        (lambda loc: loc.columns([25]), "locator 25 out of range"),
        (lambda loc: loc.locator(0), "column -1 out of range"),
        (lambda loc: loc.locator(26), "column 25 out of range"),
    ], ids=["encoded", "columns-negative", "columns-n", "locator-0", "locator-n+1"])
    def test_range_rule(self, call, message):
        # columns and encoded locators both lie in [0, n); nothing outside aliases onto a column
        with pytest.raises(ValueError, match=re.escape(message + " [0, 25)")):
            call(LocatorTable(make_field(5, 2)))


class TestBchMatrix:
    def test_shape_and_rank_524(self, h524):
        assert (h524.row_count, h524.n) == (3, 25)
        assert h524.rank() == 3

    def test_extended_column(self, h524, ha524):
        for m in (h524, ha524):
            col = m.rows[:, m.n - 1]
            assert col[0] == 1
            assert not col[1:].any()

    def test_ones_row(self, h524):
        assert (h524.rows[0] == 1).all()

    def test_blocks(self, h535):
        assert h535.blocks == (("ones", 1), ("pow1", 3), ("pow2", 3))

    @pytest.mark.parametrize("build", [bch_matrix, augmented_matrix], ids=["bch", "augmented"])
    @pytest.mark.parametrize("qmd, message", [
        ((5, 2, 2), "d=2 is below 3; no matrix is defined"),
        ((4, 2, 4), "matrix construction needs a prime q and positive m: "
                    "q=4 is not prime (this implementation supports prime alphabets)"),
        ((5, 0, 4), "matrix construction needs a prime q and positive m: m=0 must be a positive extension degree"),
    ], ids=["d-2", "q-4", "m-0"])
    def test_unbuildable_parameters_refused(self, build, qmd, message):
        # called directly, as the API allows: each builder checks its parameters before it makes a field
        with pytest.raises(ValueError) as err:
            build(validate_params(*qmd))
        assert str(err.value) == message


class TestAugmentedMatrix:
    def test_shape_524(self, ha524):
        assert (ha524.row_count, ha524.n) == (4, 25)
        assert ha524.rank() == 4

    def test_shape_535(self, ha535):
        assert (ha535.row_count, ha535.n) == (8, 125)
        assert ha535.rank() == 8
        assert ha535.dimension() == 117

    def test_norm_entry_extended_position_zero(self, ha535):
        assert ha535.rows[-1, -1] == 0

    def test_rank_bound(self, ha535, params535):
        p = params535
        assert ha535.rank() <= (p.d - 3) * p.m + p.s + 1
        assert ha535.dimension() >= p.n - (p.d - 3) * p.m - p.s - 1

    def test_row_space_contains_base(self, h535, ha535):
        stacked = np.vstack([h535.rows, ha535.rows])
        assert linalg.rank(stacked, 5) == ha535.rank()

    def test_norm_field_refused_before_the_base_rows(self, monkeypatch):
        # GF(7^7) is within the budget and GF(7^8), where the norm lives, is not
        def built(*args, **kwargs):
            raise AssertionError("base rows built before the refusal")

        monkeypatch.setattr("normbch.construct.bch_matrix", built)
        with pytest.raises(ValueError, match=r"^field size 7\^8 exceeds the budget 1048576$"):
            augmented_matrix(validate_params(7, 7, 6))

    def test_d3_builds(self):
        # at d = 3, s = mu = m and the norm is the identity: [1; y], the base rows of d = 4
        p = validate_params(5, 2, 3)
        matrix = augmented_matrix(p)
        assert matrix.blocks == (("ones", 1), ("norm", 2))
        assert np.array_equal(matrix.rows, bch_matrix(validate_params(5, 2, 4)).rows)
        assert bch_matrix(p).row_count == 1

    def test_columns_never_proportional(self, ha524):
        q = ha524.q
        cols = ha524.rows.T
        for i in range(ha524.n):
            for j in range(i + 1, ha524.n):
                for c in range(1, q):
                    assert ((cols[i] * c) % q != cols[j]).any()

    def test_determinism(self, params535, ha535):
        again = augmented_matrix(params535)
        assert again.to_text() == ha535.to_text()
        assert again.sha256() == ha535.sha256()


class TestCodeword:
    def test_validation(self):
        with pytest.raises(ValueError):
            Codeword((3, 2), (1, 1))
        with pytest.raises(ValueError):
            Codeword((1, 2), (1, 0))
        with pytest.raises(ValueError):
            Codeword((0, 2), (1, 1))
        assert Codeword((1, 5), (2, 3)).weight == 2

    def test_empty_syndrome(self, h524):
        assert syndrome(h524, Codeword((), ())).tolist() == [0, 0, 0]

    def test_syndrome_reduces_the_coefficients(self):
        # 4 * 2^62 would wrap in int64, and 2^64 does not fit it: each coefficient is reduced mod q first
        matrix = ParityCheckMatrix(5, [[4, 3]], [("x", 1)])
        assert syndrome(matrix, Codeword((1,), (2**62,))).tolist() == [1]
        assert syndrome(matrix, Codeword((1,), (2**64,))).tolist() == [4]

    def test_single_coordinate_syndrome(self, ha524):
        word = Codeword((7,), (3,))
        s = syndrome(ha524, word)
        assert (s == (ha524.rows[:, 6] * 3) % 5).all()
        assert s.any()

    def test_out_of_range_position(self, h524):
        with pytest.raises(ValueError):
            syndrome(h524, Codeword((26,), (1,)))


class TestAffinePermutation:
    def test_identity(self, h524):
        loc = h524.locators
        f = loc.field
        word = Codeword((1, 5, 9), (1, 2, 3))
        assert apply_affine_permutation(word, f.zero, f.one, loc) == word

    def test_zero_multiplier_rejected(self, h524):
        loc = h524.locators
        with pytest.raises(ValueError):
            apply_affine_permutation(Codeword((1,), (1,)), loc.field.one, loc.field.zero, loc)

    def test_position_beyond_n_rejected(self, h524):
        loc = h524.locators
        with pytest.raises(ValueError, match=re.escape("column 25 out of range [0, 25)")):
            apply_affine_permutation(Codeword((1, 26), (1, 1)), loc.field.zero, loc.field.one, loc)

    def test_map_over_another_field_rejected(self, h524):
        other = make_field(5, 3)
        with pytest.raises(FieldMismatchError, match="^affine map over a different field$"):
            apply_affine_permutation(Codeword((1,), (1,)), other.zero, other.one, h524.locators)

    def test_is_position_bijection(self, h524):
        loc = h524.locators
        f = loc.field
        a, b = f.elem(7), f.elem(19)
        images = {int(loc.columns((a + b * loc.locator(j)).val)) + 1 for j in range(1, 26)}
        assert images == set(range(1, 26))

    def test_preserves_membership_random(self, h524):
        loc = h524.locators
        f = loc.field
        pool = enumerate_weight_words(h524, 3)
        rng = random.Random(21)
        for _ in range(100):
            word = pool[rng.randrange(len(pool))]
            a = f.elem(rng.randrange(25))
            b = f.elem(rng.randrange(1, 25))
            moved = apply_affine_permutation(word, a, b, loc)
            assert not syndrome(h524, moved).any()


def _text_by_entry(matrix):
    """The matrix text rendered one entry at a time, as to_text once did."""
    blocks = ",".join(f"{name}:{count}" for name, count in matrix.blocks)
    lines = [f"q={matrix.q} n={matrix.n} r={matrix.row_count} blocks={blocks}"]
    lines += [" ".join(map(str, row)) for row in matrix.rows.tolist()]
    return "\n".join(lines) + "\n"


def _rows_by_entry(body, q, n):
    """The matrix body rule one entry at a time: the rows, or the first bad line's number and message."""
    rows = []
    for number, line in enumerate(body, start=2):
        entries = line.split()
        if len(entries) != n:
            return number, f"{len(entries)} entries, expected n={n}"
        bad = [e for e in entries if not (e.isascii() and e.isdecimal() and int(e) < q)]
        if bad:
            return number, f"entry {bad[0]!r} is not a digit in [0, {q})"
        rows.append([int(e) for e in entries])
    return rows


class TestFiles:
    def test_matrix_roundtrip(self, ha535, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(ha535.to_text())
        back = read_matrix_file(path)
        assert back.q == ha535.q
        assert back.blocks == ha535.blocks
        assert (back.rows == ha535.rows).all()
        assert back.to_text() == ha535.to_text()

    @settings(max_examples=200)  # about 40% of the draws are refused
    @given(data=st.data())
    def test_matrix_file_roundtrip_property(self, tmp_path_factory, data):
        # The constructor refuses the matrix, and the reader its text, or the text reads back equal.
        q = data.draw(st.sampled_from([2, 3, 5, 7, 11, 32749, 4, 40009]))
        r = data.draw(st.integers(0, 4))
        n = data.draw(st.integers(0, 6))
        entries = data.draw(st.lists(st.integers(0, min(q, 32768) - 1), min_size=r * n, max_size=r * n))
        rows = np.array(entries, dtype=np.int64).reshape(r, n)
        cuts = sorted(data.draw(st.sets(st.integers(1, r - 1)))) if r > 1 else []
        counts = [b - a for a, b in zip([0] + cuts, cuts + [r])]
        names = data.draw(st.lists(st.text(max_size=4) | st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True),
                                   min_size=len(counts), max_size=len(counts)))
        blocks = list(zip(names, counts)) if r or data.draw(st.booleans()) else []
        header = f"q={q} n={n} r={r} blocks=" + ",".join(f"{name}:{count}" for name, count in blocks)
        text = "\n".join([header] + [" ".join(map(str, row)) for row in rows.tolist()]) + "\n"
        path = tmp_path_factory.mktemp("roundtrip") / "m.txt"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        try:
            matrix = ParityCheckMatrix(q, rows, blocks)
        except ValueError:
            with pytest.raises(ValueError):
                read_matrix_file(path)
            return
        assert matrix.to_text() == text
        back = read_matrix_file(path)
        assert (back.q, back.blocks, back.sha256()) == (q, matrix.blocks, matrix.sha256())
        assert back.rows.tolist() == rows.tolist()

    def test_matrix_file_in_other_spacing(self, tmp_path):
        # tabs, runs of spaces and leading zeros are not the written form; the line reader takes them
        path = tmp_path / "m.txt"
        path.write_text("q=5 n=3 r=2 blocks=dense:2\n1\t0  4 \n004 3 2\n")
        assert read_matrix_file(path).rows.tolist() == [[1, 0, 4], [4, 3, 2]]

    def test_matrix_file_entries_across_lines(self, tmp_path):
        # the right entry count in all, split across the lines wrongly
        path = tmp_path / "m.txt"
        path.write_text("q=5 n=3 r=2 blocks=dense:2\n1 2 3 4\n0 1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: 4 entries, expected n=3$"):
            read_matrix_file(path)

    @given(data=st.data())
    def test_reader_agrees_with_entry_by_entry_rule(self, tmp_path_factory, data):
        # Entries in [0, q), leading zeros allowed, apart by any whitespace; one line, or none,
        # has an entry too many or too few, or an entry at or above q, with a sign or with
        # letters (non-ASCII digits among them) that np.loadtxt may take as digits.
        q = data.draw(st.sampled_from([2, 5, 11, 32749]))
        n = data.draw(st.integers(1, 4))
        r = data.draw(st.integers(1, 4))
        entry = st.builds(lambda zeros, v: zeros + str(v), st.text("0", max_size=2), st.integers(0, q - 1))
        odd = st.integers(q, q + 1).map(str) | st.text("0123456789+-\u0664x\u01fe", min_size=1, max_size=4)
        separator = st.text(" \t\xa0", min_size=1, max_size=2)
        bad_line = data.draw(st.integers(0, 2 * r))  # r or more: every line good
        lines = []
        for k in range(r):
            entries = data.draw(st.lists(entry, min_size=n, max_size=n))
            if k == bad_line:
                entries = data.draw(st.lists(entry | odd, min_size=n - 1, max_size=n + 1))
            spaces = data.draw(st.lists(separator, min_size=len(entries) + 1, max_size=len(entries) + 1))
            lines.append("".join(s + e for s, e in zip(spaces, entries + [""])))
        path = tmp_path_factory.mktemp("reader") / "m.txt"
        path.write_text(f"q={q} n={n} r={r} blocks=dense:{r}\n" + "\n".join(lines) + "\n", encoding="utf-8")
        body = path.read_text(encoding="utf-8").rstrip().splitlines()[1:]
        assume(len(body) == r)  # a blank last line is a row count error, not a line's
        expected = _rows_by_entry(body, q, n)
        if isinstance(expected, list):
            assert read_matrix_file(path).rows.tolist() == expected
        else:
            with pytest.raises(ValueError) as err:
                read_matrix_file(path)
            assert str(err.value) == f"{path}:{expected[0]}: {expected[1]}"

    @pytest.mark.parametrize(
        "text, message",
        [("q=5 n=3 r=2 blocks=x:2\n1 2 3\n+4 0 1\n", ":3: entry '+4' is not a digit in [0, 5)"),
         ("q=5 n=3 r=2 blocks=x:2\n1 2 3\n0 -0 1\n", ":3: entry '-0' is not a digit in [0, 5)"),
         ("q=5 n=3 r=2 blocks=x:2\n1 2 3\n1 9999999999999999999 0\n",
          ":3: entry '9999999999999999999' is not a digit in [0, 5)"),
         ("q=5 n=3 r=3 blocks=x:3\n1 2 3\n\n1 2 3\n", ":3: 0 entries, expected n=3"),
         ("q=5 n=3 r=2 blocks=x:2\n1 2 3\n\u0664 0 1\n", ":3: entry '\u0664' is not a digit in [0, 5)"),
         ("q=32749 n=1 r=1 blocks=x:1\n1\u01fe2\n", ":2: entry '1\u01fe2' is not a digit in [0, 32749)"),
         ("q=5 n=3 r=2 blocks=x:2\n1 2 3\n", ": 1 rows after the header, expected r=2"),
         ("q=5 n=0 r=0 blocks=x:0\n", ":1: n=0 is not a positive length"),
         ("q=5 n=3 r=2 blocks=ones:3,pow1:-1\n1 1 1\n0 1 2\n", ":1: block pow1:-1 has a negative row count"),
         ("q=5 n=3 r=2 blocks=ones:1,pow1:2\n1 1 1\n0 1 2\n", ":1: block row counts do not sum to r=2"),
         ("q=5 n=3 r=1 blocks=a\x01:1\n1 1 1\n",
          ":1: block name 'a\\x01' is not printable text without spaces, ',' or ':'"),
         ("q=5 n=3 r=1 blocks=x:1 extra=1\n1 1 1\n",
          ":1: header 'q=5 n=3 r=1 blocks=x:1 extra=1' is not q=<prime> n=<n> r=<r> blocks=<name:count,...>"),
         # tokens int16 cannot hold, which fail the int16 loadtxt; the line pass names them as any entry >= q
         *((f"q={q} n=2 r=2 blocks=x:2\n1 0\n{q - 1} {token}\n", f":3: entry '{token}' is not a digit in [0, {q})")
           for q in (5, 32749) for token in ("32768", "65535", "99999"))],
        ids=["plus-sign", "minus-zero", "beyond-int64", "blank-line", "arabic-indic-digit", "latin-letter",
             "row-count", "zero-length", "negative-block", "block-sum", "unprintable-name", "unknown-key",
             *(f"beyond-int16-{token}-q{q}" for q in (5, 32749) for token in ("32768", "65535", "99999"))],
    )
    def test_matrix_file_refusals_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "m.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_matrix_file(path)
        assert str(err.value) == f"{path}{message}"

    @pytest.mark.parametrize(
        "q, shape, blocks, message",
        [(4, (1, 3), [("x", 1)], "q=4 is not prime (this implementation supports prime alphabets)"),
         (40009, (1, 3), [("x", 1)], "q=40009 exceeds 32767, the largest alphabet of the int16 matrix entries"),
         (5, (1, 0), [("x", 1)], "n=0 is not a positive length"),
         (5, (0, 2**20 + 1), [("x", 0)], "n=1048577 exceeds the field size budget 1048576"),
         (5, (0, 3), [], "the block list is empty"),
         (5, (1, 3), [("a b", 1)], "block name 'a b' is not printable text without spaces, ',' or ':'"),
         (5, (1, 3), [("a,b", 1)], "block name 'a,b' is not printable text without spaces, ',' or ':'"),
         (5, (1, 3), [("x", 0), ("a:b", 1)], "block name 'a:b' is not printable text without spaces, ',' or ':'"),
         (5, (1, 3), [("a\tb", 1)], "block name 'a\\tb' is not printable text without spaces, ',' or ':'"),
         (5, (1, 3), [("a\u2028", 1)], "block name 'a\\u2028' is not printable text without spaces, ',' or ':'")],
        ids=["q-4", "q-40009", "n-0", "n-2^20+1", "no-blocks", "space", "comma", "colon", "tab", "line-separator"],
    )
    def test_header_rule_refused_on_construction(self, q, shape, blocks, message):
        # the reader's header rule, so no program builds a matrix whose file the reader refuses
        with pytest.raises(ValueError) as err:
            ParityCheckMatrix(q, np.ones(shape, dtype=np.int64), blocks)
        assert str(err.value) == message

    def test_largest_entry_of_the_largest_alphabet_read(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("q=32749 n=3 r=1 blocks=x:1\n32748 0 1\n")
        assert read_matrix_file(path).rows.tolist() == [[32748, 0, 1]]

    def test_reader_peak_within_5x_the_file(self, tmp_path):
        # the body is parsed straight into int16 and its lines are checked unjoined: 3.2 times the file here
        path = tmp_path / "aug2935.txt"
        path.write_text(augmented_matrix(validate_params(29, 3, 5)).to_text())
        tracemalloc.start()
        try:
            matrix = read_matrix_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matrix.rows.shape == (8, 24389)
        assert peak < 5 * path.stat().st_size

    def test_rows_read_only(self, tmp_path):
        # so the cached rank always describes the rows, whether built or read
        path = tmp_path / "m.txt"
        path.write_text("q=5 n=2 r=1 blocks=x:1\n1 2\n")
        for matrix in (ParityCheckMatrix(5, [[1, 2]], [("x", 1)]), read_matrix_file(path)):
            assert matrix.rank() == 1
            with pytest.raises(ValueError, match="read-only"):
                matrix.rows[0] = 0
            assert matrix.rows.tolist() == [[1, 2]]

    def test_unsigned_entries_reduced_exactly(self):
        # in float64, which int16 and uint64 promote to, 2^63 + 3 and 2^64 - 1 round to powers of two
        rows = np.array([[2**63 + 3, 2**64 - 1, 2**53 + 1]], dtype=np.uint64)
        assert ParityCheckMatrix(5, rows, [("x", 1)]).rows.tolist() == [[1, 0, 3]]
        assert ParityCheckMatrix(5, np.array([[255, 7]], dtype=np.uint8), [("x", 1)]).rows.tolist() == [[0, 2]]

    @pytest.mark.parametrize("entries, first", [([[2.7, 1.0]], "2.7"), ([[1.0, 2.5], [np.nan, 0.0]], "2.5"),
                                                ([[1.0, 0.0], [np.nan, np.inf]], "nan"), ([[-np.inf, 1.0]], "-inf")])
    def test_non_integral_entries_refused(self, entries, first):
        with pytest.raises(ValueError) as err:
            ParityCheckMatrix(5, np.array(entries), [("x", len(entries))])
        assert str(err.value) == f"entry {first} is not an integer"

    def test_entries_reduced_before_they_are_narrowed(self):
        # narrowed to int16 first, 40000 would wrap to -25536 and 2^40 + 3 to 3; a list takes any int size
        rows = np.array([[40000, 7, -1, 2**40 + 3]], dtype=np.int64)
        assert ParityCheckMatrix(5, rows, [("x", 1)]).rows.tolist() == [[0, 2, 4, 4]]
        assert ParityCheckMatrix(5, [[40000, 1]], [("x", 1)]).rows.tolist() == [[0, 1]]
        # integral floats are taken, and reduced exactly
        floats = np.array([[5.0, -1.0, 2.0**60 + 2**8]])
        assert ParityCheckMatrix(5, floats, [("x", 1)]).rows.tolist() == [[0, 4, (2**60 + 2**8) % 5]]

    def test_negative_block_count_refused_on_construction(self):
        # so no program builds a matrix whose header the reader refuses
        with pytest.raises(ValueError, match="^block pow1:-1 has a negative row count$"):
            ParityCheckMatrix(5, np.ones((2, 3)), [("ones", 3), ("pow1", -1)])
        assert ParityCheckMatrix(5, np.ones((2, 3)), [("x", 0), ("ones", 2)]).blocks == (("x", 0), ("ones", 2))

    def test_matrix_file_without_rows(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("q=5 n=3 r=0 blocks=x:0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # np.loadtxt warns on an empty body
            matrix = read_matrix_file(path)
        assert matrix.rows.shape == (0, 3)
        assert matrix.to_text() == path.read_text()  # the width of a row comes from n, not the entries
        assert capsys.readouterr() == ("", "")

    @given(data=st.data())
    def test_to_text_matches_per_entry_rendering(self, data):
        q = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13, 101, 32749]))
        r = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 12))
        entry = st.integers(0, q - 1) | st.sampled_from([0, 1, q - 1])
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=r, max_size=r))
        for i in data.draw(st.sets(st.integers(0, r - 1))):
            rows[i] = [0] * n
        matrix = ParityCheckMatrix(q, rows, [("dense", r)])
        assert matrix.to_text() == _text_by_entry(matrix)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (7, 1), (3, 5)])
    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 101, 32749])
    def test_to_text_shapes(self, q, shape):
        full = np.arange(shape[0] * shape[1]).reshape(shape) * 7919 % q  # mixed widths
        for rows in (full, np.zeros(shape, dtype=np.int64), full * (np.arange(shape[0]) % 2)[:, None]):
            matrix = ParityCheckMatrix(q, rows, [("dense", shape[0])])
            assert matrix.to_text() == _text_by_entry(matrix)

    def test_matrix_text_format(self, h524):
        first = h524.to_text().splitlines()[0]
        assert first == "q=5 n=25 r=3 blocks=ones:1,pow1:2"

    def test_field_description(self):
        assert make_field(5, 2).modulus == (2, 1, 1)


# sha256 of the matrix text as the element-by-element build wrote it.
# (7,2,5) fails the hypotheses (m = 2 does not exceed (d-3)!) but still
# builds, with m = 2 below mu = 3.
PINNED_SHA256 = {
    (5, 2, 4, "aug"): "988c52af8609dcf38a38dff8c5e74de8f180eb900d4bd8cb1822c0ab2f8997ba",
    (5, 2, 4, "bch"): "34aeccad37742e15b75f8bbf408ffcb1510343e4d879ebe47239579317b9a38a",
    (5, 3, 5, "aug"): "9093651095b9527c735c5fd30a7fe503c8914aad20a9c43a5c0e29b91b559b3a",
    (5, 3, 5, "bch"): "29c946851f3c25674f59365651ba32d8585896c1fbf1e4e7e021504d92115f54",
    (5, 5, 5, "aug"): "efeb42408b73802a4eee4904266f70464447c041fb424ecba17123084839a520",
    (7, 3, 5, "aug"): "ab5279911d46cbafcba87af1df2e13932d03970679ae654decd4b12380eeb0c3",
    (7, 3, 5, "bch"): "c95152367af4090fbd782d0c4fd70d97a8059f4634c32968d842ad5f2bb57dda",
    (3, 2, 4, "aug"): "ab9b5b6f419c54e59296c682620c655b33558c9db1f5254019580c4e4d8ce260",
    (7, 2, 5, "aug"): "db1435b38a0ae2670880100108158c80ad02324d9238204a067019a1d8bf596c",
    # Two-digit entries.
    (11, 3, 5, "aug"): "5f80e96a6a9d8eed64d7ce14f3e3233af50e5728f4826942bd159a6d020851c0",
    (11, 3, 5, "bch"): "b651428147bc8dfce63da9d9d4e54a8c705b2fcf62c8ef825cf1354653153726",
    (13, 3, 5, "aug"): "70baea606d12e377de5646e0e1cfffaf8df33c444214ad1f2624c6b09b5c9bf2",
    (13, 3, 5, "bch"): "de1093db3cc7f8a3d1327ac4907f0c0abe8a9009c560a746271361700ddbfd8e",
}


@pytest.mark.parametrize("q,m,d,kind", PINNED_SHA256)
def test_matrix_sha256_pinned(q, m, d, kind):
    params = validate_params(q, m, d)
    matrix = augmented_matrix(params) if kind == "aug" else bch_matrix(params)
    assert matrix.sha256() == PINNED_SHA256[q, m, d, kind]
    assert hashlib.sha256(matrix.to_text().encode()).hexdigest() == PINNED_SHA256[q, m, d, kind]


@pytest.mark.parametrize("q,m,d", [(5, 3, 5), (5, 5, 5)])
def test_build_reads_tables_only(q, m, d, monkeypatch):
    # the basis pair, the rows, the orbit route's certificate and the separation witness come from the
    # field tables, not from FieldElement arithmetic; the generic engine is blocked, so the route itself
    # certifies (5,3,5)
    def element_arithmetic(*args):
        raise AssertionError("FieldElement arithmetic on the build path")

    for operator in ("__mul__", "__pow__", "__add__", "__sub__", "__neg__", "__truediv__", "inverse"):
        monkeypatch.setattr(FieldElement, operator, element_arithmetic)
    monkeypatch.setattr(Field, "scalar", element_arithmetic)
    monkeypatch.setattr(verify, "_colex_first_dependent", lambda *args: pytest.fail("the generic engine ran"))
    params = validate_params(q, m, d)
    matrix = augmented_matrix(params)
    assert matrix.sha256() == PINNED_SHA256[q, m, d, "aug"]
    if (q, m, d) == (5, 3, 5):
        assert min_distance_at_least(matrix, d).certified
        word, _ = construct_weight_word(params)  # the separation witness, too
        assert word.weight == 4
        assert not syndrome(bch_matrix(params), word).any()


@pytest.mark.parametrize("data", [b"", b"abc", bytes(range(256)) * (1 << 14)], ids=["empty", "short", "4MB"])
def test_builtin_sha256_equals_hashlib(data, monkeypatch):
    want = hashlib.sha256(data).hexdigest()
    monkeypatch.setattr(hashlib, "sha256", None)  # the built-in module answers alone
    assert _sha256_hex(data) == want


def test_sha256_falls_back_to_hashlib(monkeypatch):
    # a build without the built-in hashes: importing either module fails
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    real, calls = hashlib.sha256, []
    monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(data) or real(data))
    assert _sha256_hex(b"abc") == real(b"abc").hexdigest()
    assert calls == [b"abc"]
