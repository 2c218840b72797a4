import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normbch import (
    BudgetExceededError,
    Codeword,
    FieldMismatchError,
    LocatorTable,
    ParityCheckMatrix,
    augmented_matrix,
    bch_matrix,
    apply_affine_permutation,
    construct_weight_word,
    embed_hat,
    enumerate_weight_words,
    make_basis_pair,
    make_field,
    min_distance_at_least,
    norm,
    on_affine_line,
    syndrome,
    validate_params,
    vandermonde_check,
    verify_lines_theorem,
)
from normbch import linalg, orbit, verify
from normbch.construct import augmented_blocks
from normbch.linalg import _half_table, kernel_words, pass_slots, subset_count
from normbch.lines import _orbit_size
from normbch.orbit import _representatives, certifies, survey
from normbch.verify import _colex_first_dependent
from oracles import (
    closed_form_representatives,
    colex_first_dependent,
    dependency_word,
    find_line_bruteforce,
    macwilliams_weights,
    min_distance_enumeration,
    syndrome_words,
    weight_words,
)

# (q, m, d) with q in {2,3,5,7} and d = 4..6 whose full enumeration (the
# oracle below) takes about a second or less, proven and experimental.
ORBIT_INSTANCES = [
    (2, 1, 4), (2, 2, 4), (2, 3, 4), (2, 4, 4), (2, 5, 4), (2, 6, 4), (2, 7, 4),
    (2, 2, 5), (2, 3, 5), (2, 4, 5), (2, 5, 5), (2, 6, 5),
    (2, 2, 6), (2, 3, 6), (2, 4, 6), (2, 5, 6), (2, 6, 6), (2, 7, 6),
    (3, 1, 4), (3, 2, 4), (3, 3, 4), (3, 4, 4), (3, 5, 4),
    (3, 2, 5), (3, 3, 5), (3, 4, 5), (3, 5, 5), (3, 6, 5),
    (3, 2, 6), (3, 3, 6), (3, 4, 6),
    (5, 1, 4), (5, 2, 4), (5, 3, 4), (5, 1, 5), (5, 2, 5), (5, 3, 5), (5, 1, 6), (5, 2, 6),
    (7, 1, 4), (7, 2, 4), (7, 1, 5), (7, 2, 5), (7, 1, 6), (7, 2, 6),
]


# Augmented (q, m, d) with q in {2,3,5,7} and d = 4..6 on which the generic
# engine runs in about a second or less, inside and outside the hypotheses.
# (5,2,5), (7,2,5) and (5,4,5) fail them and have distance 4.
AUGMENTED_INSTANCES = [
    (2, 1, 4), (2, 2, 4), (2, 3, 4), (2, 4, 4), (2, 5, 4), (2, 6, 4), (2, 7, 4), (2, 8, 4),
    (2, 1, 5), (2, 2, 5), (2, 3, 5), (2, 4, 5), (2, 5, 5), (2, 6, 5), (2, 7, 5), (2, 8, 5),
    (2, 1, 6), (2, 2, 6), (2, 3, 6), (2, 4, 6), (2, 5, 6), (2, 6, 6), (2, 7, 6),
    (3, 1, 4), (3, 2, 4), (3, 3, 4), (3, 4, 4), (3, 5, 4), (3, 6, 4),
    (3, 1, 5), (3, 2, 5), (3, 3, 5), (3, 4, 5), (3, 5, 5),
    (3, 1, 6), (3, 2, 6), (3, 3, 6), (3, 4, 6), (3, 5, 6),
    (5, 1, 4), (5, 2, 4), (5, 3, 4), (5, 4, 4), (5, 1, 5), (5, 2, 5), (5, 3, 5), (5, 4, 5),
    (5, 1, 6), (5, 2, 6),
    (7, 1, 4), (7, 2, 4), (7, 3, 4), (7, 1, 5), (7, 2, 5), (7, 3, 5), (7, 1, 6), (7, 2, 6),
]

# The augmented instances above with distance below d.  Each has a
# representative with a locator outside GF(q), so the orbit route
# declines it and the generic engine finds the counterexample.
DECLINED_INSTANCES = [
    (2, 3, 5), (2, 4, 5), (2, 5, 5), (2, 6, 5), (2, 7, 5), (2, 8, 5),
    (3, 3, 6), (3, 4, 6), (3, 5, 6), (5, 2, 5), (5, 4, 5), (5, 2, 6), (7, 2, 5),
]

# The augmented instances above, outside the hypotheses, with distance d
# and a representative with a locator outside GF(q): the orbit route
# declines them and the generic engine certifies them.
OFF_LINE_CERTIFIED = [(2, 2, 5), (3, 2, 6), (7, 2, 6)]


def certificate_fields(cert):
    """Everything a certificate records except its wall clock."""
    return (cert.matrix_sha256, cert.distance_bound, cert.subset_count, cert.subsets_examined,
            cert.verdict, cert.counterexample, cert.threads)


def must_not_run(*args, **kwargs):
    raise AssertionError("called where it must not run")


def reduced_with_last_two_first(rows, q):
    """The rref of rows with the last two columns moved first, as survey takes it: (reduced, rank, pivots)."""
    n = rows.shape[1]
    return linalg.rref(rows[:, [n - 2, n - 1, *range(n - 2)]], q)


def representatives(rows, q, v):
    """_representatives of rows whose last two columns are independent, from their rref."""
    reduced, rank, pivots = reduced_with_last_two_first(rows, q)
    assert pivots[:2] == [0, 1]
    return _representatives(reduced, rank, q, v)


def representatives_per_coefficient(rows, q, v):
    """Reference for _representatives: one collision pass per coefficient c of the second-to-last column.

    rows @ z = t with t = -(h_last + c * h_before) is [-t | rows[:, :-2]] @ (1, z) = 0, so z is read off
    the weight-(v-1) kernel words with first coefficient 1 that hold column 0.
    """
    n = rows.shape[1]
    found = []
    for c in range(1, q):
        lifted = np.hstack([(rows[:, -1:].astype(np.int64) + c * rows[:, -2:-1]) % q, rows[:, :-2]])
        supports, coeffs = kernel_words(lifted, q, v - 1)
        hold = supports[:, 0] == 0
        tail = np.ones((int(hold.sum()), 1), dtype=np.intp)
        supports = np.hstack([supports[hold, 1:] - 1, (n - 2) * tail, (n - 1) * tail])
        found.append((supports, np.hstack([coeffs[hold, 1:], c * tail, tail])))
    supports, coeffs = zip(*found)
    return np.concatenate(supports), np.concatenate(coeffs)


def sorted_words(supports, coeffs):
    return sorted(map(tuple, np.hstack([supports, coeffs]).tolist()))


def encoded_support(loc, word):
    """The encoded locators of a word's support, by one array call of the column-to-locator map."""
    return loc.encoded(np.array(word.support) - 1).tolist()


def lines_by_enumeration(params):
    """(words_found, on_line, violation_count) from every weight-(d-1) word and its line test."""
    matrix = bch_matrix(params)
    words = enumerate_weight_words(matrix, params.d - 1)
    loc = matrix.locators
    violations = [w for w in words if on_affine_line([loc.field.elem(y) for y in encoded_support(loc, w)]) is None]
    return len(words), len(words) - len(violations), len(violations)


class TestMinDistance:
    def test_certified_524(self, ha524):
        cert = min_distance_at_least(ha524, 4)
        assert cert.certified
        assert cert.subset_count == 2300
        assert cert.subsets_examined == 2300
        assert cert.counterexample is None

    def test_counterexample_on_base_535(self, h535):
        cert = min_distance_at_least(h535, 5)
        assert cert.verdict == "counterexample"
        word = cert.counterexample
        assert word.weight == 4
        assert not syndrome(h535, word).any()
        assert cert.subsets_examined < cert.subset_count

    def test_doubling_starts_at_twice_the_weight(self, h535, monkeypatch):
        # the 4-column prefix is the one 4-subset the rank shortcut has shown independent
        widths = []
        monkeypatch.setattr(linalg, "kernel_words", lambda *args: widths.append(args[0].shape[1]) or kernel_words(*args))
        cert = min_distance_at_least(h535, 5)
        assert widths == [8] * 4 + [16] * 4 + [32] * 4
        word = cert.counterexample
        assert (word.support, word.coeffs) == ((1, 7, 23, 30), (1, 2, 4, 3))
        assert cert.subsets_examined == 25307

    def test_d2_with_nonzero_columns(self, h524):
        assert min_distance_at_least(h524, 2).certified

    @pytest.mark.parametrize("n, w, budget, shown", [
        (125, 4, 1000, None),  # below 10^19: printed in full
        (200, 100, math.comb(200, 100) - 1, None),  # within the margin of the budget
        (200, 100, math.comb(200, 100), None),
        (200, 100, 10**40, "about 10^58 subsets needed, budget is about 10^40"),
        (1042441, 521220, 20_000_000, "about 10^313802 subsets needed, budget is 20000000"),  # exact: seconds
    ], ids=["below-10^19", "just-over-budget", "at-budget", "estimate-10^58", "estimate-10^313802"])
    def test_subset_count_exact_where_it_shows(self, n, w, budget, shown, monkeypatch):
        comb, calls = math.comb, []

        def counted(n, k):
            calls.append((n, k))
            return must_not_run() if k > 10**4 else comb(n, k)

        monkeypatch.setattr(math, "comb", counted)
        count = subset_count(n, w, budget)
        if shown is None:
            assert (calls, count) == ([(n, w)], comb(n, w))
        else:
            assert (calls, count > budget) == ([], True)
            assert str(BudgetExceededError(count, budget)) == shown

    def test_count_near_a_power_of_ten_is_exact(self):
        # C(1, 1) * 10^30: the estimate's log10 lies within tol of an integer, so the count is exact
        count = subset_count(1, 1, 1, (10, 30))
        assert (count, str(BudgetExceededError(count, 1))) == (10**30, "about 10^30 subsets needed, budget is 1")

    @pytest.mark.parametrize("q", [2, 3, 7, 101])
    def test_pass_count_estimate_matches_the_exact_count(self, q, monkeypatch):
        # on a grid of passes and caps, a pass refused from the estimate is one the exact count refuses,
        # with the same line, and one within the cap gets its exact half-table sizes
        comb, calls, estimated = math.comb, [], 0
        monkeypatch.setattr(math, "comb", lambda n, k: calls.append(n) or comb(n, k))
        per_slot = 3 * np.min_scalar_type(q - 1).itemsize + 40
        for n in range(60, 241, 30):
            for v in range(1, n + 1, 7):
                a = (v + 1) // 2
                n_x = comb(n, a) * (q - 1) ** (a - 1)
                slots = n_x + comb(n, v - a) * (q - 1) ** (v - a)
                for cap in {10**18, 10**30, slots // 10, slots - 1, slots, slots + 1}:
                    monkeypatch.setattr(linalg, "MEMORY_CAP_BYTES", cap * per_slot)
                    calls.clear()
                    try:
                        assert (pass_slots(3, n, q, v), slots <= cap) == ((n_x, slots - n_x), True)
                    except BudgetExceededError as err:
                        assert str(err) == str(BudgetExceededError(slots, cap, "half-vectors"))
                        estimated += not calls
        assert estimated > 100

    def test_refused_from_the_estimate(self, monkeypatch):
        # a 1 x 2^20 all-ones matrix at d = 2^19 + 1 needs C(2^20, 2^19) subsets, whose exact count takes seconds
        comb = math.comb
        monkeypatch.setattr(math, "comb", lambda n, k: must_not_run() if k > 10**4 else comb(n, k))
        monkeypatch.setattr(verify, "_colex_first_dependent", must_not_run)
        ones = ParityCheckMatrix(2, np.ones((1, 1 << 20), dtype=np.int16), [("ones", 1)])
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=r"^about 10\^315649 subsets needed, budget is 20000000$"):
            min_distance_at_least(ones, (1 << 19) + 1)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("needed, power", [(10**19 - 1, 18), (10**19, 19), (10**20 - 1, 19)],
                             ids=["10^19-1", "10^19", "10^20-1"])
    def test_printed_power_of_ten_is_exact(self, needed, power):
        # math.log10 rounds 10^19 - 1 and 10^20 - 1 onto the next integer
        assert str(BudgetExceededError(needed, 1)) == f"about 10^{power} subsets needed, budget is 1"

    def test_budget_exceeded_carries_count(self, h535):
        # the base matrix goes to the generic engine, which needs every 4-subset of its 125 columns
        with pytest.raises(BudgetExceededError) as err:
            min_distance_at_least(h535, 5, budget=1000)
        assert err.value.needed == math.comb(125, 4)

    def test_d_below_two_rejected(self, h524):
        with pytest.raises(ValueError, match="^distance targets below 2 are meaningless$"):
            min_distance_at_least(h524, 1)

    def test_negative_budget_rejected(self, ha524, monkeypatch):
        # before any work; a zero budget stays valid, as the route's certificate needs none
        monkeypatch.setattr(orbit, "certifies", must_not_run)
        with pytest.raises(ValueError, match="^the subset budget must be at least 0, got -1$"):
            min_distance_at_least(ha524, 4, budget=-1)

    def test_thread_count_invariance(self, h535):
        certs = [min_distance_at_least(h535, 5, threads=t) for t in (1, 2, 3)]
        assert len({c.counterexample for c in certs}) == 1
        assert len({c.subsets_examined for c in certs}) == 1
        assert len({c.verdict for c in certs}) == 1

    def test_certified_implies_no_light_words(self, ha524):
        assert min_distance_at_least(ha524, 4).certified
        for w in (1, 2, 3):
            assert enumerate_weight_words(ha524, w) == []


class TestOrbitRoute:
    @pytest.mark.parametrize("qmd", AUGMENTED_INSTANCES, ids=lambda qmd: "%d-%d-%d" % qmd)
    def test_agrees_with_generic_engine(self, qmd, monkeypatch):
        params = validate_params(*qmd)
        matrix = augmented_matrix(params)
        w = min(params.d - 1, params.n)
        budget = math.comb(params.n, w)
        with monkeypatch.context() as patch:
            patch.setattr(orbit, "certifies", lambda matrix, d: False)
            generic = min_distance_at_least(matrix, params.d, budget=budget)
        by_route = qmd not in DECLINED_INSTANCES and qmd not in OFF_LINE_CERTIFIED
        assert certifies(matrix, params.d) == by_route
        with monkeypatch.context() as patch:
            if by_route:  # the route alone must certify
                patch.setattr(verify, "_colex_first_dependent", must_not_run)
            routed = min_distance_at_least(matrix, params.d, budget=budget)
        assert certificate_fields(routed) == certificate_fields(generic)
        assert generic.certified == (qmd not in DECLINED_INSTANCES)
        if budget <= 3000:
            want = colex_first_dependent(matrix.rows.tolist(), params.q, w)
            if want is None:
                assert routed.certified
            else:
                rank, cols = want
                assert routed.subsets_examined == rank
                word = routed.counterexample
                assert (word.support, word.coeffs) == dependency_word(matrix.rows.tolist(), params.q, cols)

    @pytest.mark.parametrize("qmd", [(5, 3, 5), (7, 3, 5), (11, 3, 5), (5, 5, 5), (13, 3, 5)], ids=str)
    def test_members_certify_by_line_norm_sums_alone(self, qmd, monkeypatch):
        monkeypatch.setattr(verify, "_colex_first_dependent", must_not_run)
        params = validate_params(*qmd)
        # at the default budget: from (7,3,5) on, C(n, d-1) exceeds it, and the budget bounds the engine alone
        assert min_distance_at_least(augmented_matrix(params), params.d).certified

    def test_2935_certified_at_the_default_budget(self, monkeypatch):
        # the budget bounds the engine alone, so even a zero budget leaves the route's certificate
        monkeypatch.setattr(verify, "_colex_first_dependent", must_not_run)
        matrix = augmented_matrix(validate_params(29, 3, 5))
        for cert in (min_distance_at_least(matrix, 5), min_distance_at_least(matrix, 5, budget=0)):
            assert (cert.verdict, cert.subset_count, cert.subsets_examined) == ("certified", 14738656119688501,
                                                                                14738656119688501)

    def test_745_refused_by_the_engine_budget_after_the_route(self, monkeypatch):
        # outside the hypotheses the route runs and declines; then C(2401, 4) is over the default budget,
        # and the refusal comes before the engine's first pass
        matrix = augmented_matrix(validate_params(7, 4, 5))
        routed = []
        monkeypatch.setattr(orbit, "certifies", lambda *args: routed.append(certifies(*args)))
        monkeypatch.setattr(verify, "_colex_first_dependent", must_not_run)
        with pytest.raises(BudgetExceededError, match="^1381247760200 subsets needed, budget is 20000000$"):
            min_distance_at_least(matrix, 5)
        assert routed == [False]

    def test_745_counterexample_pinned(self):
        # outside the hypotheses (m = 4 is not prime): the route declines, and the engine finds a weight-4 word
        # within the memory cap, so the run exits 1 rather than being refused
        matrix = augmented_matrix(validate_params(7, 4, 5))
        cert = min_distance_at_least(matrix, 5, budget=math.comb(2401, 4))
        word = cert.counterexample
        assert (cert.verdict, cert.subsets_examined) == ("counterexample", 15806708)
        assert (word.support, word.coeffs) == ((22, 23, 58, 142), (1, 4, 5, 4))
        assert not syndrome(matrix, word).any()

    def test_11_5_5_declined_before_the_build(self, monkeypatch):
        # n = 11^5 = 161,051 fits the field budget, but the basis pair's GF(11^6) does not: the route declines
        # on the header, and the engine then refuses C(161051, 4) subsets
        params = validate_params(11, 5, 5)
        matrix = ParityCheckMatrix(11, np.zeros((13, 11**5), dtype=np.int16), augmented_blocks(params))
        monkeypatch.setattr(orbit, "survey", must_not_run)
        monkeypatch.setattr(verify, "_colex_first_dependent", must_not_run)
        assert not certifies(matrix, 5)
        with pytest.raises(BudgetExceededError, match=r"^about 10\^19 subsets needed, budget is 20000000$"):
            min_distance_at_least(matrix, 5)

    def test_an_error_inside_the_survey_propagates(self, ha535, monkeypatch):
        # the route declines for named reasons before the survey, so an error inside it is never a decline
        def columns(self, vals):
            raise ValueError("columns patched to fail")

        monkeypatch.setattr(LocatorTable, "columns", columns)
        with pytest.raises(ValueError, match="^columns patched to fail$"):
            min_distance_at_least(ha535, 5)

    @staticmethod
    def fallback_cases():
        params = validate_params(5, 3, 5)
        aug = augmented_matrix(params)
        changed = aug.rows.copy()
        changed[-1, 7] = (changed[-1, 7] + 1) % 5
        scaled = aug.rows.copy()
        scaled[-1] = 2 * scaled[-1] % 5  # the same code from other rows
        base_blocks = [("ones", 1), ("pow1", 3), ("pow2", 3)]
        return {
            "bch-only": (bch_matrix(params), 5, False),
            "renamed-block": (ParityCheckMatrix(5, aug.rows, base_blocks + [("norms", 1)]), 5, False),
            "reordered-blocks": (
                ParityCheckMatrix(5, np.vstack([aug.rows[-1:], aug.rows[:-1]]), [("norm", 1)] + base_blocks), 5, False),
            "target-4": (aug, 4, False),
            "target-6": (aug, 6, False),
            "one-entry-changed": (ParityCheckMatrix(5, changed, aug.blocks), 5, True),
            "norm-row-scaled": (ParityCheckMatrix(5, scaled, aug.blocks), 5, True),
            "column-dropped": (ParityCheckMatrix(5, aug.rows[:, :-1], aug.blocks), 5, False),  # n = 124, no 5^m
        }

    @pytest.mark.parametrize("case", ["bch-only", "renamed-block", "reordered-blocks", "target-4", "target-6",
                                      "one-entry-changed", "norm-row-scaled", "column-dropped"])
    def test_other_matrices_fall_back(self, case, monkeypatch):
        matrix, d, passes_header = self.fallback_cases()[case]
        budget = math.comb(matrix.n, d - 1)
        if not passes_header:  # the header alone turns these away
            monkeypatch.setattr(orbit, "augmented_matrix", must_not_run)
        assert not certifies(matrix, d)
        cert = min_distance_at_least(matrix, d, budget=budget)
        certified = case in ("renamed-block", "reordered-blocks", "target-4", "norm-row-scaled", "column-dropped")
        assert cert.verdict == ("certified" if certified else "counterexample")
        if not certified:
            assert cert.counterexample.weight < d
            assert not syndrome(matrix, cert.counterexample).any()

    @given(data=st.data())
    def test_mutants_get_the_engine_verdict(self, ha524, ha535, data):
        # One mutation of a member's augmented matrix: the certificate must be the engine's alone, field for
        # field, and at n = 25 the colex-first dependent subset of the oracle.  A mutation that keeps the
        # rows or their span keeps the member's verdict.
        matrix, d = data.draw(st.sampled_from([(ha524, 4), (ha535, 5)]))
        q, rows, blocks = matrix.q, matrix.rows.copy(), list(matrix.blocks)
        (r, n), s = rows.shape, blocks[-1][1]
        kind = data.draw(st.sampled_from(["entry", "swap", "scale-norm", "add-base", "drop-block", "rename-block"]))
        if kind == "entry":
            i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, n - 1))
            rows[i, j] = (rows[i, j] + data.draw(st.integers(1, q - 1))) % q
        elif kind == "swap":
            j, k = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            rows[:, [j, k]] = rows[:, [k, j]]
        elif kind == "scale-norm":
            i = data.draw(st.integers(r - s, r - 1))
            rows[i] = rows[i] * data.draw(st.integers(2, q - 1)) % q
        elif kind == "add-base":
            i, k = data.draw(st.lists(st.integers(0, r - s - 1), min_size=2, max_size=2, unique=True))
            rows[k] = (rows[k] + rows[i]) % q
        else:
            b = data.draw(st.integers(0, len(blocks) - 1))
            name, count = blocks[b]
            if kind == "drop-block":
                start = sum(c for _, c in blocks[:b])
                rows = np.delete(rows, np.arange(start, start + count), axis=0)
                del blocks[b]
            else:
                names = [other for other, _ in blocks if other != name] + [name + "x"]
                blocks[b] = (data.draw(st.sampled_from(names)), count)
        mutant = ParityCheckMatrix(q, rows, blocks)
        w = d - 1
        budget = math.comb(n, w)
        routed = min_distance_at_least(mutant, d, budget=budget)
        with mock.patch.object(orbit, "certifies", lambda matrix, d: False):
            generic = min_distance_at_least(mutant, d, budget=budget)
        assert certificate_fields(routed) == certificate_fields(generic)
        if kind in ("scale-norm", "add-base", "rename-block"):
            assert routed.certified
        if n == 25:
            want = colex_first_dependent(mutant.rows.tolist(), q, w)
            assert routed.certified == (want is None)
            if want is not None:
                assert routed.subsets_examined == want[0]
                word = routed.counterexample
                assert (word.support, word.coeffs) == dependency_word(mutant.rows.tolist(), q, want[1])

    @pytest.mark.parametrize("qmd", [(5, 2, 4), (5, 3, 5), (2, 4, 5), (7, 2, 6)], ids=lambda qmd: "%d-%d-%d" % qmd)
    def test_invariance_check(self, qmd):
        params = validate_params(*qmd)
        q, d = params.q, params.d
        matrix = bch_matrix(params)

        def build(rows):  # the base rows replaced, the locators kept
            return lambda params: ParityCheckMatrix(q, rows, [("rows", len(rows))], matrix.locators)

        survey(params, build(matrix.rows))
        # x -> e*x keeps these rows, x -> x+1 does not; locator 0's column is zero, so the pivot check fails first
        with pytest.raises(RuntimeError, match="dependent"):
            survey(params, build(matrix.rows[1:]))
        swapped = matrix.rows[:, [1, 0, *range(2, matrix.n)]]  # locators e and e^2 trade columns
        with pytest.raises(RuntimeError, match="affine invariance"):
            survey(params, build(swapped))
        # a unit row on locator e's column leaves locators 1 and 0 independent, and its images under
        # x -> e*x and x -> x+1 leave the span, so only the invariance test can catch it; it comes first,
        # as survey reads the first 1 + (d-3)m rows, so the last base row drops out of the survey
        unit = np.vstack([np.eye(1, matrix.n, dtype=matrix.rows.dtype), matrix.rows])
        with pytest.raises(RuntimeError, match="affine invariance"):
            survey(params, build(unit))

    def test_lighter_representative_fails_the_self_check(self, ha535, lighter_representative, monkeypatch):
        # the BCH bound leaves no base word lighter than d-1, so a weight-3 representative at d = 5 is a bug,
        # not a matrix for the engine to judge
        monkeypatch.setattr(verify, "_colex_first_dependent", must_not_run)
        with pytest.raises(RuntimeError, match="^1 representatives of weight 3, below the minimum weight 4$"):
            min_distance_at_least(ha535, 5)

    def test_huge_target_declines_before_the_layout(self, ha524, monkeypatch):
        # C(25, 25) = 1 passes the budget at any target; a layout of d-1 blocks would not fit in memory
        monkeypatch.setattr(orbit, "augmented_blocks", must_not_run)
        cert = min_distance_at_least(ha524, 10**12)
        assert (cert.verdict, cert.subsets_examined) == ("counterexample", 1)

    def test_budget_refusal_comes_first(self, ha535, h535, monkeypatch):
        # the route runs first, and the budget bounds the engine alone: below C(125, 4) the augmented
        # matrix is certified, and the base matrix, which the route declines, is refused before any pass
        monkeypatch.setattr(verify, "_colex_first_dependent", must_not_run)
        assert min_distance_at_least(ha535, 5, budget=1000).subsets_examined == 9691375
        routed = []
        monkeypatch.setattr(orbit, "certifies", lambda *args: routed.append(certifies(*args)))
        with pytest.raises(BudgetExceededError, match="^9691375 subsets needed, budget is 1000$"):
            min_distance_at_least(h535, 5, budget=1000)
        assert routed == [False]

    def test_pass_surely_over_the_cap_declines_before_the_build(self, ha535, monkeypatch):
        # (5,3,5): the weight-4 representative pass searches weight 2 on 123 columns, 123 x halves and
        # 123 * 4 y halves; at 45 bytes a slot, 40 and the syndrome bytes of the 5 rows below the pivots,
        # one byte under 615 slots declines the build and refuses the run
        slots = 123 + 123 * 4
        monkeypatch.setattr(orbit, "augmented_matrix", must_not_run)
        monkeypatch.setattr(linalg, "MEMORY_CAP_BYTES", slots * 45 - 1)
        with pytest.raises(BudgetExceededError, match="^615 half-vectors needed, budget is 614$"):
            certifies(ha535, 5)
        monkeypatch.setattr(linalg, "MEMORY_CAP_BYTES", slots * 45)  # within the cap: the route builds
        with pytest.raises(AssertionError, match="must not run"):
            certifies(ha535, 5)

    def test_refusal_at_any_budget_before_the_build(self, ha535, monkeypatch):
        # the route's refusal is the run's: no subset budget hands the matrix to the engine
        monkeypatch.setattr(orbit, "augmented_matrix", must_not_run)
        monkeypatch.setattr(verify, "_colex_first_dependent", must_not_run)
        monkeypatch.setattr(linalg, "MEMORY_CAP_BYTES", 615 * 45 - 1)
        with pytest.raises(BudgetExceededError, match="^615 half-vectors needed, budget is 614$"):
            min_distance_at_least(ha535, 5, budget=10**30)

    def test_pass_over_the_cap_refuses_after_the_build(self, ha535, monkeypatch):
        # the pre-build check is the pass's own, 45 bytes a slot with the 5 syndrome bytes of the rows
        # below the pivots: 27,000 bytes refuse before the build, and the engine never runs
        built = []
        monkeypatch.setattr(orbit, "augmented_matrix", lambda params: built.append(params) or augmented_matrix(params))
        monkeypatch.setattr(verify, "_colex_first_dependent", must_not_run)
        monkeypatch.setattr(linalg, "MEMORY_CAP_BYTES", 27_000)
        with pytest.raises(BudgetExceededError, match="^615 half-vectors needed, budget is 600$"):
            min_distance_at_least(ha535, 5, budget=10**30)
        assert built == []

    @pytest.mark.parametrize("qmd", [(5, 2, 4), (5, 3, 5), (7, 3, 5)], ids=lambda qmd: "%d-%d-%d" % qmd)
    def test_refusal_loses_no_certificate(self, qmd, monkeypatch):
        # at every cap where the route refuses, the engine alone, at any subset budget, cannot certify either:
        # its pass over all n columns holds the route's search
        matrix = augmented_matrix(validate_params(*qmd))
        refused = 0
        for cap in np.geomspace(100, 10**6, 20).astype(int).tolist():
            monkeypatch.setattr(linalg, "MEMORY_CAP_BYTES", cap)
            try:
                assert certifies(matrix, qmd[2])
            except BudgetExceededError:
                refused += 1
                with monkeypatch.context() as patch:
                    patch.setattr(orbit, "certifies", lambda matrix, d: False)
                    with pytest.raises(BudgetExceededError, match="half-vectors"):
                        min_distance_at_least(matrix, qmd[2], budget=10**40)
        assert 0 < refused < 20  # the grid spans the route's reach


class TestRepresentatives:
    # every case below runs the reference in about a second or less (2.1 s in all)
    @pytest.mark.parametrize("qmd", sorted(set(ORBIT_INSTANCES) | set(AUGMENTED_INSTANCES)),
                             ids=lambda qmd: "%d-%d-%d" % qmd)
    def test_one_pass_matches_the_per_coefficient_loop(self, qmd):
        params = validate_params(*qmd)
        rows = bch_matrix(params).rows
        assert sorted_words(*representatives_per_coefficient(rows, params.q, 2)) == []
        for v in range(3, params.d):
            got = representatives(rows, params.q, v)
            assert sorted_words(*got) == sorted_words(*representatives_per_coefficient(rows, params.q, v))

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_one_pass_matches_on_random_rows(self, q):
        # random rows have short words, some with c = 0 or a zero coefficient on the last column, and
        # the first row with a nonzero entry in the second-to-last column need not be row 0 or hold a 1
        rng = np.random.default_rng(900 + q)
        dependent = 0
        for _ in range(40):
            r, n = int(rng.integers(2, 5)), int(rng.integers(3, 9))
            rows = rng.integers(0, q, size=(r, n)).astype(np.int16)
            rows[: rng.integers(r), -2] = 0
            rows[-1, -2] = rng.integers(1, q)
            reduced, rank, pivots = reduced_with_last_two_first(rows, q)
            if linalg.rank(rows[:, -2:], q) < 2:
                dependent += 1
                assert pivots[:2] != [0, 1]
                continue
            assert pivots[:2] == [0, 1]
            for v in range(2, min(n, 5) + 1):
                want = sorted(
                    (*(p - 1 for p in positions), n - 2, n - 1, *coeffs, c, 1)
                    for c in range(1, q)
                    for positions, coeffs in syndrome_words(rows[:, :-2].tolist(), q, v - 2,
                                                            (-(rows[:, -1] + c * rows[:, -2]) % q).tolist())
                )
                if v == 2:  # two independent columns hold no word
                    assert want == []
                else:
                    assert sorted_words(*_representatives(reduced, rank, q, v)) == want
        assert 0 < dependent < 40

    # the closed forms' instances: within the hypotheses, outside them (even m has roots in GF(q^2), off
    # every line) and characteristic 2, where every x gives a word
    @pytest.mark.parametrize("qmd", [
        (5, 3, 5), (7, 3, 5), (11, 3, 5), (13, 3, 5), (29, 3, 5), (5, 5, 5), (5, 2, 4), (7, 2, 4), (101, 2, 4),
        (3, 3, 4), (3, 5, 4), (5, 3, 4), (7, 3, 4),
        (5, 2, 5), (7, 2, 5), (5, 4, 5), (7, 4, 5), (11, 2, 5), (3, 3, 5), (3, 4, 5),
        (2, 3, 5), (2, 4, 5), (2, 5, 5), (2, 7, 5),
    ], ids=lambda qmd: "%d-%d-%d" % qmd)
    def test_closed_forms_match_the_pass(self, qmd):
        params = validate_params(*qmd)
        matrix = bch_matrix(params)
        reduced, rank, _ = reduced_with_last_two_first(matrix.rows, params.q)
        found = {v: sorted_words(*_representatives(reduced, rank, params.q, v)) for v in range(3, params.d)}
        assert found == {v: closed_form_representatives(matrix.locators, params.d, v) for v in found}
        assert found[params.d - 1] or params.q == 3  # at (3,m,5) every quadratic's roots are 0 and 1
        if params.q == 2:
            assert len(found[4]) == (params.n - 2) // 2

    def test_dependent_last_two_columns_raise(self):
        # the d = 3 base is the ones row alone, so locators 1 and 0 have equal columns; neither command surveys
        # it (the route surveys a d = 3 file's rows [1; y] at d = 4, check-lines refuses d < 4), so a d = 4
        # survey is given it as its build
        matrix = bch_matrix(validate_params(5, 2, 3))
        assert matrix.rows.shape[0] == 1
        with pytest.raises(RuntimeError, match="the last two columns are dependent"):
            survey(validate_params(5, 2, 4), lambda params: matrix)

    @pytest.mark.parametrize("v", [2, 3, 4])
    def test_one_kernel_pass_per_weight(self, v, monkeypatch):
        # at d = v + 2, weights d-1 down to 3, largest first: (5,2,4), (5,3,5) and the relaxed (7,2,6)
        (q, m), d = {2: (5, 2), 3: (5, 3), 4: (7, 2)}[v], v + 2
        passes = []
        monkeypatch.setattr(linalg, "kernel_words", lambda *args: passes.append(args) or kernel_words(*args))
        matrix, ys, on = survey(validate_params(q, m, d, relaxed=True), bch_matrix)
        assert [args[2] for args in passes] == [w - 2 for w in range(d - 1, 2, -1)]
        # weight d-1 holds the representatives, 35 of them off every line at (7,2,6); the lighter weights hold none
        assert (len(ys), on) == {2: (3, 3), 3: (3, 3), 4: (45, 10)}[v]
        assert all(len(representatives(matrix.rows, q, w)[0]) == 0 for w in range(3, d - 1))
        # no weight-2 word holds two independent columns alone
        assert representatives_per_coefficient(matrix.rows, q, 2)[0].size == 0

    def test_refusal_precedes_the_invariance_test(self, params535, h535, monkeypatch):
        # the weight-4 pass of (5,3,5) needs 123 + 123 * 4 half-vectors, refused before the build, let alone
        # before any locator is read
        monkeypatch.setattr(linalg, "MEMORY_CAP_BYTES", 1000)
        with pytest.raises(BudgetExceededError, match="615 half-vectors needed"):
            survey(params535, lambda params: ParityCheckMatrix(5, h535.rows, h535.blocks))

    def test_one_rref_of_the_base_rows(self, ha535, monkeypatch):
        base = ha535.rows[:-1]
        rref = linalg.rref
        on_base = []

        def spy(mat, p):
            if np.shape(mat) == base.shape:
                on_base.append(np.array(mat))
            return rref(mat, p)

        monkeypatch.setattr(linalg, "rref", spy)
        assert certifies(ha535, 5)
        assert len(on_base) == 1
        assert np.array_equal(on_base[0], base[:, [123, 124, *range(123)]])
        on_base.clear()
        report = verify_lines_theorem(validate_params(5, 3, 5))
        assert (report.words_found, report.on_line, report.violation_count) == (3875, 3875, 0)
        assert len(on_base) == 1


class TestLineNormIdentity:
    @pytest.mark.parametrize("qmd", [(5, 2, 4), (7, 2, 4), (5, 3, 5), (7, 3, 5)], ids=str)
    def test_image_norm_syndrome(self, qmd):
        # A representative with locators t in GF(q) and coefficients c_t has,
        # under x -> a*x + b, the norm syndrome N(hat a) * f with
        # f = sum_t c_t t^(d-2), and f is never 0.
        params = validate_params(*qmd)
        q, m, d, s = params.q, params.m, params.d, params.s
        aug = augmented_matrix(params)
        loc = aug.locators
        field = loc.field
        bp = make_basis_pair(q, m, d)
        supports, coeffs = representatives(aug.rows[:-s], q, d - 1)
        words = [Codeword(tuple(j), tuple(c)) for j, c in zip((supports + 1).tolist(), coeffs.tolist())]
        ys = loc.encoded(supports)
        in_gf_q = (field.power(ys, q) == ys).all(axis=1).tolist()
        assert (ys < q).all(axis=1).tolist() == in_gf_q
        assert any(in_gf_q)
        rng = random.Random("%d-%d-%d" % qmd)
        for word in (w for w, on in zip(words, in_gf_q) if on):
            f = sum(c * y ** (d - 2) for y, c in zip(encoded_support(loc, word), word.coeffs)) % q
            assert f != 0
            for _ in range(20):
                a, b = field.elem(rng.randrange(1, field.size)), field.elem(rng.randrange(field.size))
                image = apply_affine_permutation(word, b, a, loc)  # x -> b + a*x
                want = bp.g_coords([norm(embed_hat(a, bp), d).val])[:s, 0] * f % q
                assert syndrome(aug, image)[-s:].tolist() == want.tolist()


class TestEnumerate:
    def test_weight_zero_and_above_n(self, h524):
        assert enumerate_weight_words(h524, 0) == []
        assert enumerate_weight_words(h524, 26) == []

    def test_weight_one_nonzero_columns(self, h524):
        assert enumerate_weight_words(h524, 1) == []

    def test_weight3_words_of_524(self, h524):
        words = enumerate_weight_words(h524, 3)
        assert len(words) == 300  # one per 3-subset of each of the 30 affine lines
        for word in words:
            assert word.weight == 3
            assert word.coeffs[0] == 1
            assert not syndrome(h524, word).any()
        assert words == sorted(words, key=lambda w: (w.support, w.coeffs))

    def test_budget(self, h535, monkeypatch):
        # the one budget of the single pass is the memory cap
        monkeypatch.setattr(linalg, "MEMORY_CAP_BYTES", 1000)
        with pytest.raises(BudgetExceededError) as err:
            enumerate_weight_words(h535, 4)
        assert err.value.what == "half-vectors"

    def test_735_base_words_within_the_cap(self):
        # C(343, 4) = 566,685,735 subsets, one pass of 2.5 million half-vectors
        words = enumerate_weight_words(bch_matrix(validate_params(7, 3, 5)), 4)
        assert len(words) == 97755 == verify_lines_theorem(validate_params(7, 3, 5)).words_found

    def test_multidimensional_kernels(self):
        # an all-zero row makes every 2-subset kernel 2-dimensional;
        # full-support scalar classes per pair: (1,1) and (1,2) over GF(3)
        matrix = ParityCheckMatrix(3, np.zeros((1, 3), dtype=int), [("dense", 1)])
        words = enumerate_weight_words(matrix, 2)
        assert len(words) == 6
        assert all(w.coeffs[0] == 1 for w in words)
        assert len(set(words)) == 6


class TestOnAffineLine:
    F25 = make_field(5, 2)

    def test_constructed_line_found(self):
        f = self.F25
        rng = random.Random(31)
        for _ in range(50):
            a = f.elem(rng.randrange(25))
            b = f.elem(rng.randrange(1, 25))
            xs = [a + f.scalar(t) * b for t in (2, 1, 0)]
            line = on_affine_line(xs)
            assert line is not None
            assert line.lambdas == (2, 1, 0)
            for x, lam in zip(xs, line.lambdas):
                assert line.a + f.scalar(lam) * line.b == x

    def test_non_line_rejected(self):
        f = self.F25
        assert f.e**5 != f.e  # e is outside the prime subfield
        assert on_affine_line([f.zero, f.one, f.e]) is None

    def test_short_input_rejected(self):
        f = self.F25
        with pytest.raises(ValueError):
            on_affine_line([f.zero, f.one])

    def test_repeated_locators_rejected(self):
        f = self.F25
        with pytest.raises(ValueError):
            on_affine_line([f.zero, f.one, f.one])

    def test_locators_of_two_fields_rejected(self):
        f, other = self.F25, make_field(5, 3)
        with pytest.raises(FieldMismatchError, match="^locators from different fields$"):
            on_affine_line([f.zero, f.one, other.e])

    def test_agrees_with_bruteforce(self):
        f = self.F25
        rng = random.Random(32)
        for _ in range(40):
            vals = rng.sample(range(25), rng.choice([3, 4]))
            xs = [f.elem(v) for v in vals]
            assert (on_affine_line(xs) is not None) == find_line_bruteforce(xs)


class TestLinesTheorem:
    def test_524(self, params524):
        report = verify_lines_theorem(params524)
        assert report.words_found == 300
        assert report.violation_count == 0
        assert report.on_line == 300
        assert report.theorem_applies

    def test_invalid_params_need_experimental_flag(self):
        bad = validate_params(5, 2, 5)  # m = 2 does not exceed (d-3)! = 2
        assert not bad.valid
        with pytest.raises(ValueError):
            verify_lines_theorem(bad)
        report = verify_lines_theorem(bad, experimental=True)
        assert not report.theorem_applies
        assert report.words_found == report.on_line + report.violation_count
        assert report.violation_count == 200

    def test_d3_rejected(self):
        with pytest.raises(ValueError):
            verify_lines_theorem(validate_params(5, 2, 3))

    def test_735_pinned(self):
        report = verify_lines_theorem(validate_params(7, 3, 5))
        assert (report.words_found, report.on_line, report.violation_count) == (97755, 97755, 0)
        assert report.theorem_applies

    @pytest.mark.parametrize("qmd", ORBIT_INSTANCES, ids=lambda qmd: "%d-%d-%d" % qmd)
    def test_orbit_counting_matches_enumeration(self, qmd):
        params = validate_params(*qmd)
        report = verify_lines_theorem(params, experimental=not params.valid)
        assert (report.words_found, report.on_line, report.violation_count) == lines_by_enumeration(params)

    @pytest.mark.parametrize("qmd", ORBIT_INSTANCES, ids=lambda qmd: "%d-%d-%d" % qmd)
    def test_row_space_is_affine_invariant(self, qmd):
        # the row space, hence the code, is unchanged under the generators x -> e*x and x -> x+1
        matrix = bch_matrix(validate_params(*qmd))
        loc = matrix.locators
        field = loc.field
        xs = [field.elem(v) for v in loc.encoded(np.arange(matrix.n)).tolist()]
        for image in (lambda x: field.e * x, lambda x: x + field.one):
            perm = loc.columns([image(x).val for x in xs]).tolist()
            assert sorted(perm) == list(range(matrix.n))
            stacked = np.vstack([matrix.rows, matrix.rows[:, perm]])
            assert ParityCheckMatrix(matrix.q, stacked, [("stacked", len(stacked))]).rank() == matrix.rank()

    def test_orbit_size_must_be_whole(self):
        assert _orbit_size(1, 25, 3) == 100
        with pytest.raises(RuntimeError):
            _orbit_size(1, 5, 4)  # 20 images of one weight-4 class cannot make whole orbits of 12


def mutate_on_line_representatives(monkeypatch, loc, mutation):
    """Make every representative search drop its first on-line word, or repeat it."""

    def mutated(reduced, rank, q, v):
        supports, coeffs = _representatives(reduced, rank, q, v)
        on = np.flatnonzero((loc.encoded(supports) < q).all(axis=1))[:1]
        if mutation == "lost":
            return np.delete(supports, on, axis=0), np.delete(coeffs, on, axis=0)
        return np.vstack([supports, supports[on]]), np.vstack([coeffs, coeffs[on]])

    monkeypatch.setattr(orbit, "_representatives", mutated)


def with_on_line_words(instances):
    # C(q-2, d-3) on-line representatives, at least one when q >= d-1
    return [qmd for qmd in instances if qmd[0] >= qmd[2] - 1]


@pytest.mark.parametrize("mutation", ["lost", "invented"])
class TestOnLineCountGate:
    @pytest.mark.parametrize("qmd", with_on_line_words(ORBIT_INSTANCES), ids=lambda qmd: "%d-%d-%d" % qmd)
    def test_check_lines_raises(self, qmd, mutation, monkeypatch):
        params = validate_params(*qmd)
        mutate_on_line_representatives(monkeypatch, LocatorTable(make_field(params.q, params.m)), mutation)
        with pytest.raises(RuntimeError, match="on-line representatives of weight %d" % (params.d - 1)):
            verify_lines_theorem(params, experimental=True)

    @pytest.mark.parametrize("qmd", with_on_line_words(AUGMENTED_INSTANCES), ids=lambda qmd: "%d-%d-%d" % qmd)
    def test_orbit_route_raises(self, qmd, mutation, monkeypatch):
        params = validate_params(*qmd)
        matrix = augmented_matrix(params)
        mutate_on_line_representatives(monkeypatch, matrix.locators, mutation)
        monkeypatch.setattr(verify, "_colex_first_dependent", must_not_run)
        with pytest.raises(RuntimeError, match="on-line representatives of weight %d" % (params.d - 1)):
            min_distance_at_least(matrix, params.d)


class TestSeparationWitness:
    def test_524_exact_values(self, params524, h524):
        word, aug_synd = construct_weight_word(params524)
        loc = h524.locators
        by_locator = dict(zip(encoded_support(loc, word), word.coeffs))
        assert by_locator == {2: 1, 1: 3, 0: 1}
        assert not syndrome(h524, word).any()
        assert aug_synd.any()

    def test_535(self, params535, h535, ha535):
        word, aug_synd = construct_weight_word(params535)
        assert word.weight == 4
        assert not syndrome(h535, word).any()
        assert (syndrome(ha535, word) == aug_synd).all()
        assert aug_synd.any()

    @pytest.mark.parametrize("qmd", [(5, 2, 4), (7, 2, 4), (7, 3, 5), (11, 3, 5)], ids=str)
    def test_lagrange_weights_are_the_kernel_vector(self, qmd):
        params = validate_params(*qmd)
        base, aug = bch_matrix(params), augmented_matrix(params)
        word, aug_synd = construct_weight_word(params)
        assert word.weight == params.d - 1
        assert word.support[-1] == params.n and word.coeffs[-1] == 1  # locator 0
        assert not syndrome(base, word).any()
        assert (syndrome(aug, word) == aug_synd).all() and aug_synd.any()
        # d-1 columns of rank d-2: one kernel vector, whose free last entry is 1
        columns = base.rows[:, [j - 1 for j in word.support]]
        assert linalg.rank(columns, params.q) == params.d - 2
        assert linalg.kernel_vector(columns, params.q).tolist() == list(word.coeffs)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match="^parameters violate the hypotheses: q=3 divides d-2 = 3; "
                                             "q=3 is below d-1 = 4$"):
            construct_weight_word(validate_params(3, 3, 5))

    def test_d3_weight_2(self):
        # locators 1 and 0 with Lagrange weights q-1 and 1: the ones row kills the word, the norm rows do not
        params = validate_params(5, 2, 3)
        word, aug_synd = construct_weight_word(params)
        assert word == Codeword((24, 25), (4, 1))
        assert not syndrome(bch_matrix(params), word).any()
        assert aug_synd.tolist() == [0, 4, 0]


class TestVandermonde:
    def test_always_false_on_valid_inputs(self):
        rng = random.Random(33)
        for _ in range(200):
            q = rng.choice([5, 7, 11, 13])
            k = rng.randrange(2, min(q, 6) + 1)
            lambdas = rng.sample(range(q), k)
            xis = [rng.randrange(1, q) for _ in range(k)]
            assert vandermonde_check(q, lambdas, xis) is False

    def test_relaxed_range_has_solutions(self, params524):
        # dropping the top power admits the separation witness
        word, _ = construct_weight_word(params524)
        loc = bch_matrix(params524).locators
        lambdas = encoded_support(loc, word)
        xis = list(word.coeffs)
        assert vandermonde_check(5, lambdas, xis) is False
        for t in range(len(lambdas) - 1):
            assert sum(x * pow(l, t, 5) for x, l in zip(xis, lambdas)) % 5 == 0

    def test_repeated_lambdas_rejected(self):
        with pytest.raises(ValueError):
            vandermonde_check(5, [1, 1, 2], [1, 1, 1])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="^need equally many lambdas and coefficients$"):
            vandermonde_check(5, [1, 2, 3], [1, 1])

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            vandermonde_check(5, [1, 2], [1, 0])


class TestOracleEquivalence:
    def test_random_matrices_quick(self):
        rng = random.Random(34)
        done = 0
        while done < 6:
            q = rng.choice([3, 5])
            n = rng.randrange(8, 13)
            k_target = rng.randrange(2, 5)
            rows = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(n - k_target)])
            matrix = ParityCheckMatrix(q, rows, [("dense", rows.shape[0])])
            if matrix.dimension() > 5:
                continue
            true_d = min_distance_enumeration(rows.tolist(), q)
            if true_d is None:
                continue
            for d in range(2, true_d + 2):
                cert = min_distance_at_least(matrix, d)
                assert cert.certified == (d <= true_d)
            bad = min_distance_at_least(matrix, true_d + 1).counterexample
            assert bad.weight == true_d
            assert not syndrome(matrix, bad).any()
            done += 1


def _degenerate_matrix(rng, q):
    """Small random matrix, often with a zero column, a repeated column, or all zero."""
    n, r = rng.randrange(1, 11), rng.randrange(1, 5)
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(r)]
    kind = rng.randrange(4)
    for row in rows:
        if kind == 0:
            row[rng.randrange(n)] = 0
        elif kind == 1 and n > 1:
            row[n - 1] = row[0]
        elif kind == 2:
            row[:] = [0] * n
    return rows


class TestEngineAgainstOracles:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_certificates(self, q):
        rng = random.Random(600 + q)
        for _ in range(30):
            rows = _degenerate_matrix(rng, q)
            n = len(rows[0])
            matrix = ParityCheckMatrix(q, np.array(rows), [("dense", len(rows))])
            targets = [2, 3, 4, 5] + ([n + 1, n + 2] if n <= 7 else [])  # w >= n at the end
            for d in targets:
                w = min(d - 1, n)
                cert = min_distance_at_least(matrix, d)
                want = colex_first_dependent(rows, q, w)
                assert cert.subset_count == math.comb(n, w)
                if want is None:
                    assert cert.certified
                    assert cert.subsets_examined == cert.subset_count
                else:
                    rank, cols = want
                    assert cert.verdict == "counterexample"
                    assert cert.subsets_examined == rank
                    word = cert.counterexample
                    assert (word.support, word.coeffs) == dependency_word(rows, q, cols)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_word_lists(self, q):
        rng = random.Random(700 + q)
        for _ in range(30):
            rows = _degenerate_matrix(rng, q)
            n = len(rows[0])
            matrix = ParityCheckMatrix(q, np.array(rows), [("dense", len(rows))])
            for w in range(1, n + 1):
                if math.comb(n, w) * (q - 1) ** (w - 1) > 5000:
                    continue
                got = [(cw.support, cw.coeffs) for cw in enumerate_weight_words(matrix, w)]
                assert got == weight_words(rows, q, w)

    @pytest.mark.parametrize(
        "rows, positions, coeffs",
        [(np.zeros((8, 125), dtype=int), (1,), (1,)), (np.ones((1, 125), dtype=int), (1, 2), (1, 4))],
        ids=["all-zero", "all-ones"],
    )
    def test_degenerate_125_pinned(self, rows, positions, coeffs):
        matrix = ParityCheckMatrix(5, rows, [("dense", rows.shape[0])])
        started = time.perf_counter()
        cert = min_distance_at_least(matrix, 5)
        assert time.perf_counter() - started < 1.0
        assert cert.subsets_examined == 1
        assert cert.counterexample == Codeword(positions, coeffs)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_first_columns_check_agrees_with_the_engine_alone(self, q, monkeypatch):
        # with the first w columns dependent the check answers; without it the prefix search must
        # reach the same subset
        rng = random.Random(900 + q)
        cases = [(rows, w) for rows in (np.array(_degenerate_matrix(rng, q)) for _ in range(20))
                 for w in range(1, rows.shape[1] + 1)]
        with_check = [_colex_first_dependent(rows, q, w) for rows, w in cases]
        assert any(cols == tuple(range(w)) for cols, (_, w) in zip(with_check, cases))
        monkeypatch.setattr(linalg, "rank", lambda mat, p: np.shape(mat)[1])  # never below w
        assert [_colex_first_dependent(rows, q, w) for rows, w in cases] == with_check

    def test_first_columns_check_agrees_with_enumeration(self):
        # n <= 25, targets from 2 up to past the rank, where the check answers every one
        rng = random.Random(57)
        for q, n, k in [(2, 25, 8), (2, 20, 10), (3, 16, 6), (3, 25, 9), (5, 12, 4), (7, 10, 3)]:
            rows = np.array([[rng.randrange(q) for _ in range(n)] for _ in range(n - k)])
            matrix = ParityCheckMatrix(q, rows, [("dense", n - k)])
            true_d = min_distance_enumeration(rows.tolist(), q)
            for d in sorted({2, 3, true_d, true_d + 1, matrix.rank() + 2, n + 1}):
                cert = min_distance_at_least(matrix, d, budget=math.comb(n, min(d - 1, n)))
                assert cert.certified == (d <= true_d), (q, n, k, d)
                if not cert.certified:
                    assert not syndrome(matrix, cert.counterexample).any()
                    assert true_d <= cert.counterexample.weight <= d - 1
                    assert cert.counterexample.weight == true_d or d > true_d + 1

    def test_supports_are_itertools_combinations(self):
        # index arithmetic in place of itertools.combinations: the same rows in the same order, narrow entries
        for n, k in [(n, k) for n in range(9) for k in range(n + 1)] + [(300, 1), (300, 2), (40, 5)]:
            want = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp).reshape(math.comb(n, k), k)
            got = linalg._supports(n, k)
            assert (got.dtype, got.tolist()) == (np.min_scalar_type(n), want.tolist()), (n, k)

    def test_weight_beyond_length_is_empty_before_the_memory_cap(self, monkeypatch):
        monkeypatch.setattr(linalg, "MEMORY_CAP_BYTES", 0)
        supports, coeffs = kernel_words(np.ones((2, 5), dtype=np.int16), 5, 6)
        assert supports.shape == coeffs.shape == (0, 6)

    def test_memory_cap_refuses_up_front(self, monkeypatch):
        rng = np.random.default_rng(0)
        matrix = ParityCheckMatrix(7, rng.integers(0, 7, size=(2, 2000)), [("dense", 2)])
        half_vectors = math.comb(2000, 2) * 6 + math.comb(2000, 2) * 36
        with pytest.raises(BudgetExceededError) as err:
            enumerate_weight_words(matrix, 4)
        assert err.value.what == "half-vectors"
        assert err.value.needed == half_vectors
        assert err.value.budget < half_vectors
        # the distance engine's passes start on a 4-column prefix, which holds a dependent pair
        cert = min_distance_at_least(matrix, 5, budget=math.comb(2000, 4))
        assert cert.subsets_examined == 1
        assert cert.counterexample == Codeword((1, 3), (1, 3))
        # aug535 under another block name has no word below weight 5, so its search reaches the
        # weight-4 pass over all 125 columns; 4 MB refuses that pass before its tables exist
        aug = augmented_matrix(validate_params(5, 3, 5))
        renamed = ParityCheckMatrix(5, aug.rows, [*aug.blocks[:-1], ("norms", 1)])
        monkeypatch.setattr(linalg, "MEMORY_CAP_BYTES", 4_000_000)
        widths = []

        def half_table(rows, *args):
            widths.append(rows.shape[1])
            return _half_table(rows, *args)

        monkeypatch.setattr(linalg, "_half_table", half_table)
        with pytest.raises(BudgetExceededError) as err:
            min_distance_at_least(renamed, 5)
        assert err.value.what == "half-vectors"
        assert err.value.needed == math.comb(125, 2) * 4 + math.comb(125, 2) * 16
        assert err.value.budget == 4_000_000 // 48
        assert max(widths) == 125 and widths.count(125) == 6  # two tables for each of weights 1..3

    @pytest.mark.parametrize("q,r,n,v,seed,slots", [(2, 27, 126, 6, 7, 651_000), (5, 14, 600, 3, 1, 721_200),
                                                    (101, 3, 3000, 2, 4, 303_000)])
    def test_peak_within_the_charge(self, q, r, n, v, seed, slots):
        # the half tables gather their columns in chunks, never rows[:, supports] whole, and the pairing
        # frees each array at its last use, so the pass peaks within what pass_slots charges it: slots of
        # r + 40 bytes, 41.6 MiB at weight 6 on 27 x 126 over GF(2)
        rows = np.random.default_rng(seed).integers(0, q, (r, n))
        charge = sum(pass_slots(r, n, q, v)) * (r + linalg._SLOT_BYTES)
        assert charge == slots * (r + 40)
        tracemalloc.start()
        try:
            kernel_words(rows, q, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= charge

    def test_widest_prefix_pass_within_its_charge(self):
        # a whole engine run, which the parametrization above cannot take: the (5,3,5) augmented matrix with
        # its norm row doubled passes the route's header, is turned away at its row comparison, and is
        # certified by the prefix hunt, whose widest pass is weight 4 on all 125 columns
        aug = augmented_matrix(validate_params(5, 3, 5))
        rows = aug.rows.copy()
        rows[-1] = 2 * rows[-1] % 5
        matrix, (r, n) = ParityCheckMatrix(5, rows, aug.blocks), rows.shape
        assert not certifies(matrix, 5)
        charge = sum(pass_slots(r, n, 5, 4)) * (r + linalg._SLOT_BYTES)
        tracemalloc.start()
        try:
            cert = min_distance_at_least(matrix, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cert.verdict, cert.subsets_examined) == ("certified", 9_691_375)
        assert peak <= charge

    @pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM in /proc/self/status")
    def test_child_rss_growth_within_the_charge(self):
        # what tracemalloc does not see: the growth of a fresh process's peak RSS over the weight-3 pass on
        # 14 x 600 rows over GF(5), charged 721,200 slots of 54 bytes (37.1 MiB).  VmHWM, not ru_maxrss:
        # a child's ru_maxrss starts at the peak of the process that spawned it, here the test runner's
        probe = (
            "import re, numpy as np; from normbch.linalg import kernel_words\n"
            "hwm = lambda: re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1]\n"
            "rows = np.random.default_rng(1).integers(0, 5, (14, 600))\n"
            "before = hwm()\n"
            "kernel_words(rows, 5, 3)\n"
            "print(before, hwm())"
        )
        env = dict(os.environ)
        src = str(Path(linalg.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        before, after = map(int, proc.stdout.split())
        assert (after - before) * 1024 <= sum(pass_slots(14, 600, 5, 3)) * (14 + linalg._SLOT_BYTES)

    def test_chunked_gather_finds_the_same_words(self, monkeypatch):
        # 35 entries: x supports 2 at a time (4495 of them, the last chunk short), y supports 4 at a time (465)
        rows = np.random.default_rng(3).integers(0, 5, (4, 31))
        want = sorted_words(*kernel_words(rows, 5, 5))
        monkeypatch.setattr(linalg, "_GATHER_ENTRIES", 35)
        assert sorted_words(*kernel_words(rows, 5, 5)) == want
        assert len(want) > 10_000


def direct_weights(rows, q, w_max):
    """[A_0, ..., A_w_max] as q^-r times the sum over every u in GF(q)^r of K_w(wt(uH)), with K_w(j) the
    coefficient of z^w in (1 + (q-1)z)^(n-j) (1-z)^j, expanded one factor at a time."""
    n = len(rows[0])
    krawtchouk = []
    for j in range(n + 1):
        poly = [1] + [0] * w_max
        for lead in [q - 1] * (n - j) + [-1] * j:
            poly = [poly[0]] + [c + lead * below for c, below in zip(poly[1:], poly)]
        krawtchouk.append(poly)
    sums = [0] * (w_max + 1)
    for u in itertools.product(range(q), repeat=len(rows)):
        weight = sum(1 for column in zip(*rows) if sum(a * b for a, b in zip(u, column)) % q)
        sums = [total + k for total, k in zip(sums, krawtchouk[weight])]
    assert all(total % q ** len(rows) == 0 for total in sums)
    return [total // q ** len(rows) for total in sums]


class TestMacWilliams:
    """The MacWilliams oracle: the weight distribution from the row space, with no search for words."""

    @pytest.mark.parametrize("q,m,d", [(5, 2, 4), (3, 3, 4)])
    def test_the_direct_sum(self, q, m, d):
        rows = augmented_matrix(validate_params(q, m, d)).rows
        assert macwilliams_weights(rows, q, d + 1) == direct_weights(rows.tolist(), q, d + 1)

    @pytest.mark.parametrize("q,m,d,a_d", [(5, 2, 4, 6_600), (5, 3, 5, 635_500), (7, 2, 4, 135_240),
                                           (3, 3, 4, 432), (3, 5, 4, 126_360)])
    def test_no_word_below_d(self, q, m, d, a_d):
        params = validate_params(q, m, d)
        assert params.valid
        assert macwilliams_weights(augmented_matrix(params).rows, q, d) == [1] + [0] * (d - 1) + [a_d]

    def test_invalid_525_has_weight_4_words(self):
        params = validate_params(5, 2, 5)
        assert not params.valid
        assert macwilliams_weights(augmented_matrix(params).rows, 5, 4) == [1, 0, 0, 0, 160]

    @pytest.mark.parametrize("q,m,d", [(5, 2, 4), (3, 3, 4), (5, 2, 5)])
    def test_the_weights_sum_to_the_code_size(self, q, m, d):
        # A_0 + ... + A_n counts every kernel word once: q^(n - rank), the invalid (5,2,5) included
        rows = augmented_matrix(validate_params(q, m, d)).rows
        n = rows.shape[1]
        assert sum(macwilliams_weights(rows, q, n)) == q ** (n - linalg.rank(rows, q))

    @pytest.mark.parametrize("q,m,d,a_d", [(5, 2, 4, 6_600), (7, 2, 4, 135_240), (3, 3, 4, 432), (3, 5, 4, 126_360)])
    def test_the_engine_counts_a_d(self, q, m, d, a_d):
        aug = augmented_matrix(validate_params(q, m, d))
        assert (q - 1) * len(enumerate_weight_words(aug, d)) == macwilliams_weights(aug.rows, q, d)[d] == a_d

    def test_histogram_over_2_22_entries_refused(self):
        # (7,3,5) has 8 augmented rows: a 7^8-entry histogram, whose FFT takes about 1.3 GB
        rows = augmented_matrix(validate_params(7, 3, 5)).rows
        assert rows.shape[0] == 8
        with pytest.raises(ValueError, match="5764801 entries"):
            macwilliams_weights(rows, 7, 5)
