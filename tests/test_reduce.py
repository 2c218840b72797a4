import itertools
import random

import pytest

from normbch import (
    BudgetExceededError,
    ExplicitCode,
    read_codeword_list,
    reduce_alphabet,
    redundancy_ratio_identity,
    write_codeword_list,
)
from normbch.reduce import all_shift_counts

TOY = ExplicitCode(q=4, n=4, words=((0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2), (3, 3, 3, 3)))


def _random_code(rng, q, n, size):
    words = set()
    while len(words) < size:
        words.add(tuple(rng.randrange(q) for _ in range(n)))
    return ExplicitCode(q=q, n=n, words=tuple(sorted(words)))


class TestExplicitCode:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExplicitCode(q=3, n=2, words=((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            ExplicitCode(q=3, n=2, words=((0, 3),))
        with pytest.raises(ValueError):
            ExplicitCode(q=3, n=2, words=((0, 1, 2),))

    def test_min_distance(self):
        assert TOY.min_distance() == 4
        assert ExplicitCode(q=2, n=3, words=((0, 0, 0),)).min_distance() is None


class TestReduceExhaustive:
    def test_full_code_keeps_sub_alphabet_power(self):
        full = ExplicitCode(q=3, n=2, words=tuple(itertools.product(range(3), repeat=2)))
        result = reduce_alphabet(full, [0, 2])
        assert result.achieved == 4  # q1^n

    def test_toy_beats_average_floor(self):
        result = reduce_alphabet(TOY, [0, 1, 2])
        assert result.average == pytest.approx(81 * 4 / 256)
        assert result.floor == 2
        assert result.achieved >= result.floor
        assert result.achieved == 3
        assert result.guaranteed

    def test_distance_never_decreases(self):
        rng = random.Random(41)
        for _ in range(5):
            code = _random_code(rng, 4, 5, 8)
            result = reduce_alphabet(code, [0, 1, 2])
            if len(result.subcode.words) >= 2:
                assert result.subcode.min_distance() >= code.min_distance()

    def test_subcode_is_reencoded(self):
        result = reduce_alphabet(TOY, [1, 3])
        for word in result.subcode.words:
            assert all(0 <= v < 2 for v in word)
        assert result.subcode.q == 2

    def test_tie_break_lexicographic(self):
        code = ExplicitCode(q=2, n=2, words=((0, 0), (1, 1)))
        result = reduce_alphabet(code, [0, 1])
        assert result.shift == (0, 0)

    def test_counting_identity_exact(self):
        rng = random.Random(42)
        for q, n, size in [(4, 4, 4), (3, 6, 7), (6, 4, 9)]:
            code = _random_code(rng, q, n, size)
            for subset in ([0, 1], list(range(q - 1))):
                counts = all_shift_counts(code, subset)
                assert counts.shape[0] == q**n
                assert int(counts.sum()) == len(subset) ** n * len(code.words)

    def test_budget_guard(self):
        big = ExplicitCode(q=4, n=13, words=((0,) * 13,))
        with pytest.raises(BudgetExceededError):
            reduce_alphabet(big, [0, 1])

    def test_empty_result_is_valid(self):
        code = ExplicitCode(q=3, n=1, words=((0,), (1,), (2,)))
        result = reduce_alphabet(code, [0])
        assert result.achieved == 1  # one symbol always lands inside
        lonely = ExplicitCode(q=4, n=2, words=((0, 1), (2, 3)))
        res = reduce_alphabet(lonely, [0])
        assert res.achieved in (0, 1)

    def test_bad_subset_rejected(self):
        with pytest.raises(ValueError):
            reduce_alphabet(TOY, [0, 9])
        with pytest.raises(ValueError):
            reduce_alphabet(TOY, [])


class TestReduceSampled:
    def test_reports_without_guarantee(self):
        result = reduce_alphabet(TOY, [0, 1, 2], mode="sampled", trials=64, seed=7)
        assert result.mode == "sampled"
        assert not result.guaranteed
        assert result.trials == 64
        assert result.floor == 2
        assert 0 <= result.achieved <= 4

    def test_deterministic_for_fixed_seed(self):
        a = reduce_alphabet(TOY, [0, 1, 2], mode="sampled", trials=50, seed=3)
        b = reduce_alphabet(TOY, [0, 1, 2], mode="sampled", trials=50, seed=3)
        assert a.shift == b.shift and a.achieved == b.achieved

    @pytest.mark.parametrize("trials", [0, -3])
    def test_needs_a_trial(self, trials):
        with pytest.raises(ValueError, match="at least one trial"):
            reduce_alphabet(TOY, [0, 1, 2], mode="sampled", trials=trials)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            reduce_alphabet(TOY, [0, 1], mode="greedy")


class TestRatioIdentity:
    def test_example(self):
        lhs, rhs = redundancy_ratio_identity(16, 3, 4, 4**10)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_full_code_gives_zero(self):
        lhs, rhs = redundancy_ratio_identity(8, 3, 4, 4**8)
        assert lhs == pytest.approx(0.0, abs=1e-9)
        assert rhs == pytest.approx(0.0, abs=1e-9)

    def test_single_word(self):
        import math

        lhs, rhs = redundancy_ratio_identity(10, 3, 5, 1)
        assert lhs == pytest.approx(rhs, rel=1e-9)
        assert rhs == pytest.approx(10 / (math.log(10) / math.log(5)), rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            redundancy_ratio_identity(1, 3, 4, 5)


class TestFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "code.cwl"
        write_codeword_list(TOY, path)
        back = read_codeword_list(path, 4)
        assert back == TOY

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.cwl"
        path.write_text("")
        with pytest.raises(ValueError):
            read_codeword_list(path, 3)
