"""Alphabet reduction by shift search.

Shifting a code componentwise and intersecting with a sub-alphabet
yields a smaller-alphabet code of no worse distance; averaging over all
shifts shows some shift retains at least ceil(q1^n * |V| / q2^n)
codewords.  The exhaustive mode visits every shift, so its best-shift
result carries that floor as a guarantee; the sampled mode only reports
the best of the shifts it tried next to the average bound, claiming
nothing.  The alphabet group is fixed to Z_q2 with componentwise
addition.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError

DEFAULT_SHIFT_BUDGET = 10_000_000
_SHIFT_BATCH = 1 << 12


@dataclass(frozen=True)
class ExplicitCode:
    """A code given by its full codeword list over the alphabet Z_q."""

    q: int
    n: int
    words: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("alphabet size must be positive")
        if self.n < 1:
            raise ValueError("length must be positive")
        for w in self.words:
            if len(w) != self.n:
                raise ValueError(f"word {w} does not have length {self.n}")
            if any(not 0 <= v < self.q for v in w):
                raise ValueError(f"word {w} has symbols outside [0, {self.q})")
        if len(set(self.words)) != len(self.words):
            raise ValueError("codewords must be distinct")

    def min_distance(self) -> int | None:
        """Smallest pairwise Hamming distance; None for fewer than 2 words."""
        if len(self.words) < 2:
            return None
        best = self.n
        for i, a in enumerate(self.words):
            for b in self.words[i + 1 :]:
                dist = sum(x != y for x, y in zip(a, b))
                if dist < best:
                    best = dist
        return best


@dataclass(frozen=True)
class ReductionResult:
    mode: str
    shift: tuple[int, ...]
    achieved: int
    average: float
    floor: int
    guaranteed: bool
    subcode: ExplicitCode
    trials: int | None


def _shift_counts(words: np.ndarray, member: np.ndarray, q: int, shifts: np.ndarray) -> np.ndarray:
    shifted = (words[None, :, :] + shifts[:, None, :]) % q
    return member[shifted].all(axis=2).sum(axis=1)


def _index_to_shifts(idx: np.ndarray, q: int, n: int) -> np.ndarray:
    # Digit 0 is the most significant, so numeric index order equals
    # lexicographic order on shift tuples.
    out = np.empty((idx.shape[0], n), dtype=np.int64)
    rem = idx.copy()
    for pos in range(n - 1, -1, -1):
        out[:, pos] = rem % q
        rem //= q
    return out


def all_shift_counts(code: ExplicitCode, subset) -> np.ndarray:
    """Intersection size with subset^n for every shift, in lexicographic shift order."""
    subset = sorted(set(subset))
    member = np.zeros(code.q, dtype=bool)
    member[subset] = True
    words = np.array(code.words, dtype=np.int64)
    total = code.q**code.n
    counts = np.empty(total, dtype=np.int64)
    for start in range(0, total, _SHIFT_BATCH):
        idx = np.arange(start, min(start + _SHIFT_BATCH, total), dtype=np.int64)
        counts[start : start + idx.shape[0]] = _shift_counts(
            words, member, code.q, _index_to_shifts(idx, code.q, code.n)
        )
    return counts


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


def reduce_alphabet(
    code: ExplicitCode,
    subset,
    mode: str = "exhaustive",
    trials: int = 1000,
    seed: int = 0,
    shift_budget: int = DEFAULT_SHIFT_BUDGET,
) -> ReductionResult:
    """Best shift of the code into the sub-alphabet, with the retained subcode.

    Exhaustive mode scans all q2^n shifts (budget-guarded), returns the
    lexicographically smallest maximizer and guarantees the averaging
    floor ceil(q1^n * |V| / q2^n).  Sampled mode tries `trials` (at least
    one) seeded random shifts and reports its best without a guarantee.
    An empty subcode is a legitimate outcome, not an error.
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
    member = np.zeros(code.q, dtype=bool)
    member[subset] = True
    words = np.array(code.words, dtype=np.int64) if code.words else np.zeros((0, code.n), dtype=np.int64)

    if mode == "exhaustive":
        total = code.q**code.n
        if total > shift_budget:
            raise BudgetExceededError(total, shift_budget, what="shifts")
        best_count = -1
        best_idx = 0
        for start in range(0, total, _SHIFT_BATCH):
            idx = np.arange(start, min(start + _SHIFT_BATCH, total), dtype=np.int64)
            counts = _shift_counts(words, member, code.q, _index_to_shifts(idx, code.q, code.n))
            top = int(counts.argmax())
            if int(counts[top]) > best_count:
                best_count = int(counts[top])
                best_idx = start + top
        shift = tuple(int(v) for v in _index_to_shifts(np.array([best_idx]), code.q, code.n)[0])
        result_trials = None
        guaranteed = True
    elif mode == "sampled":
        if trials < 1:
            raise ValueError(f"sampled mode needs at least one trial, got {trials}")
        rng = random.Random(seed)
        best_count = -1
        best_shift: tuple[int, ...] = (0,) * code.n
        for _ in range(trials):
            cand = tuple(rng.randrange(code.q) for _ in range(code.n))
            count = int(
                _shift_counts(words, member, code.q, np.array([cand], dtype=np.int64))[0]
            )
            if count > best_count or (count == best_count and cand < best_shift):
                best_count, best_shift = count, cand
        shift = best_shift
        result_trials = trials
        guaranteed = False
    else:
        raise ValueError(f"unknown mode {mode!r}; use 'exhaustive' or 'sampled'")

    sub = _subcode(code, subset, shift)
    if len(sub.words) != best_count:
        raise RuntimeError("shift count disagrees with the extracted subcode")
    return ReductionResult(
        mode=mode,
        shift=shift,
        achieved=best_count,
        average=average,
        floor=floor,
        guaranteed=guaranteed,
        subcode=sub,
        trials=result_trials,
    )


def redundancy_ratio_identity(n: int, q1: int, q2: int, size_v: int) -> tuple[float, float]:
    """Both sides of the redundancy-preservation identity, for numeric comparison.

    lhs treats the average-retained subcode over q1; rhs the original
    code over q2.  They agree analytically; callers compare within
    floating tolerance.
    """
    if n < 2 or q1 < 2 or q2 < 2 or size_v < 1:
        raise ValueError("need n >= 2, alphabet sizes >= 2 and a positive code size")
    log_q1 = math.log(q1)
    log_q2 = math.log(q2)
    log_v = math.log(size_v)
    log_avg = n + log_v / log_q1 - n * log_q2 / log_q1
    lhs = (n - log_avg) / (math.log(n) / log_q1)
    rhs = (n - log_v / log_q2) / (math.log(n) / log_q2)
    return lhs, rhs


def write_codeword_list(code: ExplicitCode, path) -> None:
    with open(path, "w") as fh:
        for w in code.words:
            fh.write(" ".join(str(v) for v in w) + "\n")


def read_codeword_list(path, q: int) -> ExplicitCode:
    words = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                words.append(tuple(int(v) for v in line.split()))
    if not words:
        raise ValueError("empty codeword list")
    return ExplicitCode(q=q, n=len(words[0]), words=tuple(words))
