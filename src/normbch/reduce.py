"""Alphabet reduction by shift search.

Shifting a code componentwise and intersecting with a sub-alphabet
yields a smaller-alphabet code of no worse distance; averaging over all
shifts shows some shift retains at least ceil(q1^n * |V| / q2^n)
codewords.  The exhaustive mode counts every shift, so its best-shift
result carries that floor as a guarantee; the sampled mode only reports
the best of the shifts it tried next to the average bound, claiming
nothing.  The alphabet group is fixed to Z_q2 with componentwise
addition.  Ties between shifts go to the lexicographically smallest.

all_shift_counts, the exhaustive mode, applies C[s, x] = [x + s in S]
along each axis of the words' q2^n histogram (Yates, 1937) in three
int32 arrays: 12 bytes a shift, ~115 MiB at DEFAULT_SHIFT_BUDGET, which
q2^n must not exceed, and its n |S| rolls of q2^n steps must not exceed
_ROLL_STEP_BUDGET.  The sampled mode scans at most DEFAULT_SHIFT_BUDGET
trials in batches of at most _BATCH_BYTES, symbols in the smallest dtype
that holds a symbol plus a shift, 2(q2 - 1), and looked up in a table of
2*q2 entries without reducing mod q2.  The budgets are checked first.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

import numpy as np

from . import _is_digit_below
from .errors import BudgetExceededError

DEFAULT_SHIFT_BUDGET = 10_000_000
# The most roll steps, n |S| q2^n, of an exhaustive count: 10^9 take about 2 s on 10^7 shifts.
_ROLL_STEP_BUDGET = 10**9
# A batch takes at most 16 bytes per shift-row entry (int64 digits) and per
# (shift, codeword) pair (a symbol sum, its lookup and the running mask).
_BATCH_BYTES = 1 << 22


class _ExplicitCodeFields(NamedTuple):
    q: int
    n: int
    words: tuple[tuple[int, ...], ...]


class ExplicitCode(_ExplicitCodeFields):
    """A code given by its full codeword list over the alphabet Z_q."""

    __slots__ = ()

    def __new__(cls, q: int, n: int, words: tuple[tuple[int, ...], ...]):
        if q < 1:
            raise ValueError("alphabet size must be positive")
        if n < 1:
            raise ValueError("length must be positive")
        for w in words:
            if len(w) != n:
                raise ValueError(f"word {w} does not have length {n}")
            if any(not 0 <= v < q for v in w):
                raise ValueError(f"word {w} has symbols outside [0, {q})")
        if len(set(words)) != len(words):
            raise ValueError("codewords must be distinct")
        return super().__new__(cls, q, n, words)

    def min_distance(self) -> int | None:
        """Smallest pairwise Hamming distance; None for fewer than 2 words."""
        if len(self.words) < 2:
            return None
        return min(sum(x != y for x, y in zip(a, b)) for a, b in itertools.combinations(self.words, 2))

    def to_text(self) -> str:
        """The codeword-list text that read_codeword_list reads: one word per line, symbols space-separated."""
        return "".join(" ".join(map(str, w)) + "\n" for w in self.words)


class ReductionResult(NamedTuple):
    mode: str
    shift: tuple[int, ...]
    achieved: int
    average: float
    floor: int
    guaranteed: bool
    subcode: ExplicitCode
    trials: int | None


def _sub_alphabet(code: ExplicitCode, subset) -> list[int]:
    """The distinct sub-alphabet symbols in increasing order, each in [0, q2)."""
    subset = sorted(set(subset))
    if subset and (subset[0] < 0 or subset[-1] >= code.q):
        raise ValueError(f"sub-alphabet symbols must lie in [0, {code.q})")
    return subset


def _scan(code: ExplicitCode, subset: list[int], trials: int, rng: random.Random) -> tuple[int, tuple[int, ...]]:
    """The most words one of trials shifts drawn from rng moves into subset^n, and its smallest such shift."""
    if trials > DEFAULT_SHIFT_BUDGET:
        raise BudgetExceededError(trials, DEFAULT_SHIFT_BUDGET, what="shifts")
    if code.q > DEFAULT_SHIFT_BUDGET:  # the membership table below has 2 * q2 entries
        raise BudgetExceededError(code.q, DEFAULT_SHIFT_BUDGET, what="alphabet symbols")
    dtype = np.min_scalar_type(2 * (code.q - 1))
    words = np.array(code.words, dtype=dtype).reshape(-1, code.n)
    member = np.zeros(2 * code.q, dtype=bool)  # indexed by symbol + shift, not mod q2
    member[subset + [s + code.q for s in subset]] = True
    batch = max(1, _BATCH_BYTES // (16 * (code.n + len(words))))
    best = []  # per batch: minus its top count, then its smallest shift with that count
    for start in range(0, trials, batch):
        # batches are drawn in order, so the trials follow one seeded sequence
        draws = [rng.randrange(code.q) for _ in range(min(batch, trials - start) * code.n)]
        shifts = np.array(draws, dtype=dtype).reshape(-1, code.n)
        inside = np.ones((len(shifts), len(words)), dtype=bool)
        for i in range(code.n):
            inside &= member[words[:, i] + shifts[:, i, None]]
        counts = inside.sum(axis=1)
        top = np.lexsort([*shifts.T[::-1], -counts])[0]
        best.append((-int(counts[top]), tuple(int(v) for v in shifts[top])))
    count, shift = min(best)
    return -count, shift


def all_shift_counts(code: ExplicitCode, subset) -> np.ndarray:
    """Intersection size with subset^n for every shift, in lexicographic shift order."""
    q, n = code.q, code.n
    subset = _sub_alphabet(code, subset)
    if q**n > DEFAULT_SHIFT_BUDGET:
        raise BudgetExceededError(q**n, DEFAULT_SHIFT_BUDGET, what="shifts")
    if (steps := n * len(subset) * q**n) > _ROLL_STEP_BUDGET:
        raise BudgetExceededError(steps, _ROLL_STEP_BUDGET, what="roll steps")
    counts = np.zeros((q,) * n, dtype=np.int32)  # at most |V| <= q2^n, exact
    # a word v sits at -v, so rolling axis i by t moves it to t - v_i, the shift sending v_i to t
    counts[tuple((-np.array(code.words, dtype=np.int64).reshape(-1, n) % q).T)] = 1  # the words are distinct
    for axis in range(n):  # axis i is digit i, so C order is lexicographic
        rolled = np.zeros_like(counts)
        for t in subset:
            rolled += np.roll(counts, t, axis)
        counts = rolled
    return counts.ravel()


def _subcode(code: ExplicitCode, subset: list[int], shift: tuple[int, ...]) -> ExplicitCode:
    remap = {sym: i for i, sym in enumerate(subset)}
    member = set(subset)
    kept = []
    for w in code.words:
        shifted = tuple((v + t) % code.q for v, t in zip(w, shift))
        if all(v in member for v in shifted):
            kept.append(tuple(remap[v] for v in shifted))
    kept.sort()
    return ExplicitCode(q=len(subset), n=code.n, words=tuple(kept))


def reduce_alphabet(code: ExplicitCode, subset, trials: int | None = None, seed: int = 0) -> ReductionResult:
    """Best shift of the code into the sub-alphabet, with the retained subcode.

    Without trials the mode is exhaustive: it counts all q2^n shifts,
    returns the lexicographically smallest maximizer and guarantees the
    averaging floor ceil(q1^n * |V| / q2^n).  With trials (at least one)
    the mode is sampled: it tries that many seeded random shifts and
    reports its best without a guarantee.  Both are budget-guarded; an
    empty subcode is a legitimate outcome.
    """
    subset = _sub_alphabet(code, subset)
    if not subset:
        raise ValueError("the sub-alphabet must not be empty")
    q1 = len(subset)
    size_v = len(code.words)
    average = (q1**code.n) * size_v / code.q**code.n
    floor = -((q1**code.n) * size_v // -(code.q**code.n))

    if trials is None:
        counts = all_shift_counts(code, subset)  # its first maximizer is the lexicographically smallest
        best_count, shift = int(counts.max()), tuple(map(int, np.unravel_index(counts.argmax(), (code.q,) * code.n)))
    elif trials < 1:
        raise ValueError(f"sampled mode needs at least one trial, got {trials}")
    else:
        best_count, shift = _scan(code, subset, trials, random.Random(seed))

    sub = _subcode(code, subset, shift)
    if len(sub.words) != best_count:
        raise RuntimeError("shift count disagrees with the extracted subcode")
    return ReductionResult(
        mode="exhaustive" if trials is None else "sampled",
        shift=shift,
        achieved=best_count,
        average=average,
        floor=floor,
        guaranteed=trials is None,
        subcode=sub,
        trials=trials,
    )


def read_codeword_list(path, q: int) -> ExplicitCode:
    """Read one word per line, symbols space-separated; blank lines are skipped.

    Raises ValueError naming the file line when a symbol is not a digit in
    [0, q), a word's length differs from the first word's, or a word repeats.
    """
    words: dict[tuple[int, ...], int] = {}  # word -> its line
    with open(path, encoding="utf-8") as fh:  # as _run writes it, whatever the locale
        for number, line in enumerate(fh, start=1):
            symbols = line.split()
            bad = [v for v in symbols if not _is_digit_below(v, q)]
            if bad:
                raise ValueError(f"{path}:{number}: symbol {bad[0]!r} is not a digit in [0, {q})")
            if not symbols:
                continue
            word = tuple(int(v) for v in symbols)
            n = len(next(iter(words), word))
            if len(word) != n:
                raise ValueError(f"{path}:{number}: {len(word)} symbols, expected {n} as in the first word")
            if word in words:
                raise ValueError(f"{path}:{number}: repeats the word of line {words[word]}")
            words[word] = number
    if not words:
        raise ValueError(f"{path}: empty codeword list")
    return ExplicitCode(q=q, n=len(next(iter(words))), words=tuple(words))
