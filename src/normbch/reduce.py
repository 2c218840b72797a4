"""Alphabet reduction by shift search.

Shifting a code componentwise and intersecting with a sub-alphabet
yields a smaller-alphabet code of no worse distance; averaging over all
shifts shows some shift retains at least ceil(q1^n * |V| / q2^n)
codewords.  The exhaustive mode visits every shift, so its best-shift
result carries that floor as a guarantee; the sampled mode only reports
the best of the shifts it tried next to the average bound, claiming
nothing.  The alphabet group is fixed to Z_q2 with componentwise
addition.

Both modes and all_shift_counts count shifts in one batch scan.  It
visits q2^n shifts or the trials; that count and q2 itself must not
exceed DEFAULT_SHIFT_BUDGET, checked before any allocation.  Symbols sit
in the smallest dtype holding a symbol plus a shift, 2(q2 - 1), looked
up in a table of 2*q2 entries without reducing mod q2, and a batch
holds at most _BATCH_BYTES of working arrays.  Ties between shifts go
to the lexicographically smallest.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

import numpy as np

from . import _is_digit_below
from .errors import BudgetExceededError

DEFAULT_SHIFT_BUDGET = 10_000_000
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


def _scan(code: ExplicitCode, subset: list[int], total: int, shift_rows):
    """Yield (shifts, counts) per batch of the shift indices 0 .. total - 1, where
    shift_rows(start, stop) gives an index range's shifts (flat or as rows) and
    counts are the codewords each shift moves into subset^n."""
    if total > DEFAULT_SHIFT_BUDGET:
        raise BudgetExceededError(total, DEFAULT_SHIFT_BUDGET, what="shifts")
    if code.q > DEFAULT_SHIFT_BUDGET:  # the membership table below has 2 * q2 entries
        raise BudgetExceededError(code.q, DEFAULT_SHIFT_BUDGET, what="alphabet symbols")
    dtype = np.min_scalar_type(2 * (code.q - 1))
    words = np.array(code.words, dtype=dtype).reshape(-1, code.n)
    member = np.zeros(2 * code.q, dtype=bool)  # indexed by symbol + shift, not mod q2
    member[subset + [s + code.q for s in subset]] = True
    batch = max(1, _BATCH_BYTES // (16 * (code.n + len(words))))
    for start in range(0, total, batch):
        shifts = np.array(shift_rows(start, min(start + batch, total)), dtype=dtype).reshape(-1, code.n)
        inside = np.ones((len(shifts), len(words)), dtype=bool)
        for i in range(code.n):
            inside &= member[words[:, i] + shifts[:, i, None]]
        yield shifts, inside.sum(axis=1)


def _lexicographic_shifts(q: int, n: int):
    # shift_rows for all q^n shifts; digit 0 is the most significant, so index order is lexicographic
    return lambda start, stop: np.arange(start, stop)[:, None] // q ** np.arange(n - 1, -1, -1) % q


def all_shift_counts(code: ExplicitCode, subset) -> np.ndarray:
    """Intersection size with subset^n for every shift, in lexicographic shift order."""
    scan = _scan(code, sorted(set(subset)), code.q**code.n, _lexicographic_shifts(code.q, code.n))
    return np.concatenate([counts for _, counts in scan])


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

    Without trials the mode is exhaustive: it scans all q2^n shifts,
    returns the lexicographically smallest maximizer and guarantees the
    averaging floor ceil(q1^n * |V| / q2^n).  With trials (at least one)
    the mode is sampled: it tries that many seeded random shifts and
    reports its best without a guarantee.  Both are budget-guarded; an
    empty subcode is a legitimate outcome.
    """
    subset = sorted(set(subset))
    if not subset:
        raise ValueError("the sub-alphabet must not be empty")
    if subset[0] < 0 or subset[-1] >= code.q:
        raise ValueError(f"sub-alphabet symbols must lie in [0, {code.q})")
    q1 = len(subset)
    size_v = len(code.words)
    average = (q1**code.n) * size_v / code.q**code.n
    floor = -((q1**code.n) * size_v // -(code.q**code.n))

    if trials is None:
        total, shift_rows = code.q**code.n, _lexicographic_shifts(code.q, code.n)
    elif trials < 1:
        raise ValueError(f"sampled mode needs at least one trial, got {trials}")
    else:
        total, rng = trials, random.Random(seed)

        def shift_rows(start, stop):
            # batches are drawn in order, so the trials follow one seeded sequence
            return [rng.randrange(code.q) for _ in range((stop - start) * code.n)]

    best_count, shift = -1, ()
    for shifts, counts in _scan(code, subset, total, shift_rows):
        top = int(counts.max())
        tied = shifts[counts == top]
        cand = tuple(int(v) for v in tied[np.lexsort(tied.T[::-1])[0]])
        if top > best_count or (top == best_count and cand < shift):
            best_count, shift = top, cand

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
