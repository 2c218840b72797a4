import hashlib
import itertools
import random
import time
import tracemalloc

import pytest

from normbch import (
    BudgetExceededError,
    ExplicitCode,
    read_codeword_list,
    reduce_alphabet,
)
from normbch import reduce as reduce_module
from normbch.reduce import DEFAULT_SHIFT_BUDGET, all_shift_counts
from oracles import shift_counts_bruteforce

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

    def test_no_words_gives_zero_counts(self):
        code = ExplicitCode(q=3, n=2, words=())
        assert all_shift_counts(code, [0, 1]).tolist() == [0] * 9

    def test_counts_match_the_bruteforce_oracle(self):
        rng = random.Random(43)
        for q, n in [(2, 1), (2, 12), (3, 3), (3, 7), (4, 2), (4, 6), (5, 5), (7, 1), (7, 4)]:
            code = _random_code(rng, q, n, min(q**n, rng.randrange(1, 25)))
            for subset in ([0], sorted(rng.sample(range(q), rng.randrange(1, q + 1))), list(range(q))):
                want = shift_counts_bruteforce(code.words, q, n, subset)
                assert all_shift_counts(code, subset).tolist() == want, (code, subset)

    @pytest.mark.parametrize("subset", [[4], [5], [-1]])
    def test_counts_reject_symbols_outside_the_alphabet(self, subset):
        with pytest.raises(ValueError, match=r"sub-alphabet symbols must lie in \[0, 4\)"):
            all_shift_counts(TOY, subset)

    def test_empty_subset_counts_nothing(self):
        assert all_shift_counts(TOY, []).tolist() == [0] * 256

    def test_counts_take_twelve_bytes_a_shift(self):
        # three int32 arrays of q2^n counts, the histogram, a roll and their sum, besides the words array
        code = _random_code(random.Random(12), 3, 12, 729)
        words_bytes = 8 * len(code.words) * code.n
        tracemalloc.start()
        try:
            all_shift_counts(code, [0, 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 3**12 + words_bytes + (1 << 16)

    def test_memory_bounded_on_a_large_code(self):
        # 2,120 words of length 6 over Z_4: one batch of all 4096 shifts as
        # int64 symbols would take 417 MB
        rng = random.Random(1)
        words = sorted({tuple(rng.randrange(4) for _ in range(6)) for _ in range(3000)})
        code = ExplicitCode(q=4, n=6, words=tuple(words))
        tracemalloc.start()
        try:
            result = reduce_alphabet(code, [0, 1, 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(words), result.achieved, result.shift) == (2120, 416, (3, 0, 3, 0, 0, 1))
        assert peak <= 4 * reduce_module._BATCH_BYTES

    def test_budget_guard(self):
        big = ExplicitCode(q=4, n=13, words=((0,) * 13,))
        with pytest.raises(BudgetExceededError):
            reduce_alphabet(big, [0, 1])

    @pytest.mark.parametrize("q2", [10**6, 10**7])
    def test_roll_steps_over_the_cap_allocate_nothing(self, q2):
        # 2,000 symbols at n = 1 take 2,000 q2 roll steps, over the cap, refused before the 4 q2-byte histogram
        code = ExplicitCode(q=q2, n=1, words=((0,), (1,), (2,)))
        subset = list(range(0, 4000, 2))
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match=f"^{2000 * q2} roll steps needed, budget is 1000000000$"):
                reduce_alphabet(code, subset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 0.1
        assert peak < q2

    def test_roll_steps_are_n_symbols_shifts(self, monkeypatch):
        # 3 axes, 2 symbols and 4^3 shifts: 384 steps, admitted at a cap of 384 and refused at 383; a
        # repeated symbol counts once
        code = _random_code(random.Random(13), 4, 3, 10)
        monkeypatch.setattr(reduce_module, "_ROLL_STEP_BUDGET", 384)
        assert all_shift_counts(code, [1, 0, 1]).tolist() == shift_counts_bruteforce(code.words, 4, 3, [0, 1])
        monkeypatch.setattr(reduce_module, "_ROLL_STEP_BUDGET", 383)
        with pytest.raises(BudgetExceededError, match="^384 roll steps needed, budget is 383$"):
            all_shift_counts(code, [0, 1])

    def test_the_largest_shift_count_is_admitted(self):
        # q2^n at the shift budget with every symbol: 7 * 10 * 10^7 roll steps, under the cap
        counts = all_shift_counts(ExplicitCode(q=10, n=7, words=((3,) * 7,)), range(10))
        assert (counts.size, int(counts.min()), int(counts.max())) == (DEFAULT_SHIFT_BUDGET, 1, 1)

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
        with pytest.raises(ValueError, match="^the sub-alphabet must not be empty$"):
            reduce_alphabet(TOY, [])


def _pinned_cases():
    """50 seeded random codes (q2 in 2..6, n in 1..6, 0..40 words) with a subset and a trial count."""
    rng = random.Random(2024)
    for i in range(50):
        q = rng.randrange(2, 7)
        n = rng.randrange(1, 7)
        size = i if i < 2 else rng.randrange(0, min(40, q**n) + 1)
        words = set()
        while len(words) < size:
            words.add(tuple(rng.randrange(q) for _ in range(n)))
        subset = sorted(rng.sample(range(q), rng.randrange(1, q + 1)))
        yield ExplicitCode(q=q, n=n, words=tuple(sorted(words))), subset, (1, 7, 30)[i % 3]


# Per case: the exhaustive shift and count, then the first 16 hex digits of
# the sha256 of every field of the exhaustive result and of the sampled
# results for seeds 0 and 3, followed by all_shift_counts (codes with words).
REDUCE_PINS = [
    ((0, 0), 0, "420de16cb788ae94"),  # q=5 n=2 |V|=0 subset=[0, 1, 2, 3, 4]
    ((2, 2), 1, "40c62dbeec3f942f"),  # q=6 n=2 |V|=1 subset=[1, 2, 3, 4]
    ((3, 4, 1, 3, 2, 1), 18, "6f220b223d1a032d"),  # q=6 n=6 |V|=21 subset=[0, 2, 3, 4, 5]
    ((0, 2), 1, "60ff2d87635fed26"),  # q=6 n=2 |V|=13 subset=[2]
    ((0, 0), 0, "c1331b035d994fb3"),  # q=2 n=2 |V|=0 subset=[0]
    ((0, 0), 12, "e52256360ac310ea"),  # q=6 n=2 |V|=12 subset=[0, 1, 2, 3, 4, 5]
    ((1, 0, 2, 1), 2, "7043ea8b06c42fab"),  # q=6 n=4 |V|=35 subset=[0, 3]
    ((0, 0, 0), 12, "f00dfe07b30894f5"),  # q=6 n=3 |V|=12 subset=[0, 1, 2, 3, 4, 5]
    ((0, 0, 0, 0, 0), 17, "6497f1ab149c738f"),  # q=3 n=5 |V|=17 subset=[0, 1, 2]
    ((0, 0, 2), 24, "6a1d9d06884449c8"),  # q=5 n=3 |V|=37 subset=[0, 1, 2, 4]
    ((0, 1), 1, "ec89d3bc2b814c75"),  # q=3 n=2 |V|=5 subset=[1]
    ((2, 3, 4, 2, 1), 21, "b5f528a56c9faeb3"),  # q=5 n=5 |V|=37 subset=[0, 1, 2, 3]
    ((0, 0, 0, 0, 0, 0), 4, "5e8f23e39490a046"),  # q=5 n=6 |V|=4 subset=[0, 1, 2, 3, 4]
    ((2, 4, 5), 1, "b80b9fe6dcc21495"),  # q=6 n=3 |V|=3 subset=[1]
    ((0, 0, 2, 3, 3, 2), 1, "f487372611138b32"),  # q=4 n=6 |V|=36 subset=[2]
    ((2, 3, 1, 1), 4, "6c56b688772ad1fe"),  # q=4 n=4 |V|=16 subset=[0, 1]
    ((0, 0), 6, "c38f604738660bf4"),  # q=3 n=2 |V|=6 subset=[0, 1, 2]
    ((1, 0), 7, "66cdd07df4bb9a79"),  # q=6 n=2 |V|=19 subset=[0, 4, 5]
    ((0, 0, 0, 0, 0), 7, "f5e7ded058496836"),  # q=2 n=5 |V|=7 subset=[0, 1]
    ((0, 0, 0, 0, 0), 22, "492718640f33a7c9"),  # q=3 n=5 |V|=22 subset=[0, 1, 2]
    ((0, 0), 1, "8519d85a7570bb36"),  # q=4 n=2 |V|=10 subset=[2]
    ((0, 3, 2), 17, "9ab8a1144c17e1c4"),  # q=4 n=3 |V|=32 subset=[0, 1, 2]
    ((0, 1, 3, 2), 2, "03333cf36fa43850"),  # q=4 n=4 |V|=5 subset=[0, 1]
    ((0, 0), 1, "b973f4cf61678612"),  # q=6 n=2 |V|=11 subset=[5]
    ((0, 0, 0, 0), 0, "9ff96b3715ce17e4"),  # q=5 n=4 |V|=0 subset=[0, 2]
    ((0, 1), 1, "8cb7083805af2553"),  # q=6 n=2 |V|=19 subset=[2]
    ((0, 0, 0, 0), 34, "db35ce053a8153ad"),  # q=5 n=4 |V|=34 subset=[0, 1, 2, 3, 4]
    ((0, 0, 0, 0, 0), 18, "866d9179f419fc4f"),  # q=2 n=5 |V|=18 subset=[0, 1]
    ((0, 0, 0), 0, "ce501ea1d2f697de"),  # q=2 n=3 |V|=0 subset=[0]
    ((2, 1), 8, "5869638694d30a50"),  # q=5 n=2 |V|=17 subset=[1, 3, 4]
    ((2, 0, 2, 0), 9, "04031cbe6065da9e"),  # q=3 n=4 |V|=20 subset=[0, 2]
    ((0, 0, 0, 0, 0), 18, "b3b9fe420f59b5ca"),  # q=3 n=5 |V|=18 subset=[0, 1, 2]
    ((2, 4, 2, 2, 1), 2, "7525cffbb10e7340"),  # q=6 n=5 |V|=9 subset=[0, 1]
    ((0, 0, 0, 0, 0), 19, "cd8395ee16b0fc48"),  # q=2 n=5 |V|=19 subset=[0, 1]
    ((0, 1), 1, "cc0a48a93ff405ee"),  # q=3 n=2 |V|=8 subset=[1]
    ((0, 0, 0, 0, 0, 0), 16, "f8f4554a10a4925f"),  # q=2 n=6 |V|=16 subset=[0, 1]
    ((2,), 3, "8190dce66e84a36d"),  # q=5 n=1 |V|=4 subset=[0, 2, 4]
    ((0, 0, 0, 0, 0), 15, "b6f6e9bdc6054908"),  # q=3 n=5 |V|=15 subset=[0, 1, 2]
    ((0,), 2, "5f43106a174f7eed"),  # q=4 n=1 |V|=3 subset=[0, 3]
    ((1,), 1, "3e78c733016ca1e2"),  # q=5 n=1 |V|=1 subset=[0, 2]
    ((1, 0, 2, 2, 3), 9, "696fea23c07a5aec"),  # q=6 n=5 |V|=10 subset=[0, 1, 2, 3, 5]
    ((0,), 0, "9a3ba7a2afbf56db"),  # q=5 n=1 |V|=0 subset=[0, 1, 3, 4]
    ((0, 0, 0, 0), 9, "f45ab15be74b65cf"),  # q=2 n=4 |V|=9 subset=[0, 1]
    ((0, 0), 15, "7ef156c4231bd527"),  # q=4 n=2 |V|=15 subset=[0, 1, 2, 3]
    ((3, 3), 2, "b2f105c7b124f773"),  # q=6 n=2 |V|=2 subset=[0, 1, 5]
    ((0, 3), 1, "8a61a539cbf47226"),  # q=5 n=2 |V|=14 subset=[1]
    ((0,), 0, "87a584b9912a7c68"),  # q=2 n=1 |V|=0 subset=[0, 1]
    ((0, 3), 1, "61b1ee65669404e0"),  # q=5 n=2 |V|=2 subset=[1]
    ((0, 0, 0, 0), 1, "e5400ee5b0f48f3d"),  # q=2 n=4 |V|=14 subset=[0]
    ((4, 0, 4, 2, 0), 9, "a50de907df09cd6a"),  # q=5 n=5 |V|=32 subset=[1, 2, 3]
]


@pytest.mark.parametrize("one_shift_per_batch", [False, True], ids=["default-batch", "one-shift-batch"])
def test_reduce_pinned(monkeypatch, one_shift_per_batch):
    if one_shift_per_batch:
        monkeypatch.setattr(reduce_module, "_BATCH_BYTES", 1)
    for (code, subset, trials), (shift, achieved, digest) in zip(_pinned_cases(), REDUCE_PINS, strict=True):
        results = [reduce_alphabet(code, subset)] + [
            reduce_alphabet(code, subset, trials=trials, seed=seed) for seed in (0, 3)
        ]
        assert (results[0].shift, results[0].achieved) == (shift, achieved)
        text = repr([(r.mode, r.shift, r.achieved, r.average, r.floor, r.guaranteed, r.trials, r.subcode)
                     for r in results])
        if code.words:
            text += repr(all_shift_counts(code, subset).tolist())
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest, (code, subset)


class TestReduceSampled:
    def test_reports_without_guarantee(self):
        result = reduce_alphabet(TOY, [0, 1, 2], trials=64, seed=7)
        assert result.mode == "sampled"
        assert not result.guaranteed
        assert result.trials == 64
        assert result.floor == 2
        assert 0 <= result.achieved <= 4

    def test_deterministic_for_fixed_seed(self):
        a = reduce_alphabet(TOY, [0, 1, 2], trials=50, seed=3)
        b = reduce_alphabet(TOY, [0, 1, 2], trials=50, seed=3)
        assert a.shift == b.shift and a.achieved == b.achieved

    @pytest.mark.parametrize("trials", [0, -3])
    def test_needs_a_trial(self, trials):
        with pytest.raises(ValueError, match="at least one trial"):
            reduce_alphabet(TOY, [0, 1, 2], trials=trials)

    def test_trials_count_against_the_budget(self):
        with pytest.raises(BudgetExceededError, match="shifts"):
            reduce_alphabet(TOY, [0, 1], trials=DEFAULT_SHIFT_BUDGET + 1)

    @pytest.mark.parametrize("trials", [None, 1], ids=["exhaustive", "sampled"])
    def test_alphabet_beyond_the_budget_allocates_nothing(self, trials):
        code = ExplicitCode(q=10**12, n=1, words=((5,),))
        with pytest.raises(BudgetExceededError):
            reduce_alphabet(code, [0, 1], trials=trials)


class TestFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "code.cwl"
        path.write_text(TOY.to_text())
        back = read_codeword_list(path, 4)
        assert back == TOY

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.cwl"
        path.write_text("")
        with pytest.raises(ValueError):
            read_codeword_list(path, 3)

    @pytest.mark.parametrize(
        "text, message",
        [("0 1\n1 x\n", ":2: symbol 'x' is not a digit in [0, 3)"),
         ("0 1\n\n2 -1\n", ":3: symbol '-1' is not a digit in [0, 3)"),
         ("0 1\n1 3\n", ":2: symbol '3' is not a digit in [0, 3)"),
         ("0 1\n1 \u0661\n", ":2: symbol '\u0661' is not a digit in [0, 3)"),
         ("0 1\n1 " + "9" * 5000 + "\n", ":2: symbol '" + "9" * 5000 + "' is not a digit in [0, 3)"),
         ("0 1\n2\n", ":2: 1 symbols, expected 2 as in the first word"),
         ("0 1\n1 1\n0 1\n", ":3: repeats the word of line 1"),
         ("\n \n", ": empty codeword list")],
        ids=["bad-token", "negative", "out-of-range", "arabic-indic-digit", "beyond-digit-limit", "short-word",
             "duplicate", "blank"],
    )
    def test_errors_name_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.cwl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_codeword_list(path, 3)
        assert str(err.value) == f"{path}{message}"

    def test_leading_zeros_and_blank_lines(self, tmp_path):
        path = tmp_path / "code.cwl"
        path.write_text("\n00 1\n\n2 02\n")
        assert read_codeword_list(path, 3) == ExplicitCode(q=3, n=2, words=((0, 1), (2, 2)))
