"""Exhaustive distance certification: the verdict of min_distance_at_least.

The affine-orbit route of orbit.py certifies the construction's
augmented matrices; any other matrix or target goes to the generic
engine here, whose word searches are passes of linalg.kernel_words.

The generic engine reports the colex-first dependent (d-1)-subset: the
colex-smallest superset of a word support.  When the first w columns
are dependent (as whenever w exceeds the rank), they are that subset,
and one rank settles it.  Otherwise, as colex order visits every subset
of the first c columns before the others, the search runs on column
prefixes of length 2w, 4w, ... and stops at the first prefix holding a
word; the w-column prefix is skipped, as its one w-subset is the one
the rank has just shown independent.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

from . import linalg, orbit
from .construct import Codeword, ParityCheckMatrix
from .errors import DEFAULT_SUBSET_BUDGET, BudgetExceededError


class DistanceCertificate(NamedTuple):
    """Outcome of one exhaustive distance check against a distance target.

    subsets_examined counts colex-order coverage: the full subset count
    when certified, or the 1-based colex rank of the first dependent
    subset otherwise.  Wall clock and thread count are metadata only.
    """

    matrix_sha256: str
    distance_bound: int
    subset_count: int
    subsets_examined: int
    verdict: str
    counterexample: Codeword | None
    elapsed_s: float
    threads: int

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def _colex_first_dependent(rows: np.ndarray, q: int, w: int) -> tuple[int, ...] | None:
    """The colex-first linearly dependent w-subset of columns, or None."""
    if linalg.rank(rows[:, :w], q) < w:  # the colex-first w-subset itself, whatever the weight of its word
        return tuple(range(w))
    n = rows.shape[1]
    small = np.arange(w)
    c = 2 * w  # the w-column prefix, proved independent above, holds no dependent subset
    while True:
        c = min(c, n)
        found = []
        for v in range(1, w + 1):
            supports, _ = linalg.kernel_words(rows[:, :c], q, v)
            # the colex-smallest w-superset adds the smallest free indices
            free = ~(supports[:, :, None] == small).any(axis=1)
            fill = np.broadcast_to(small, free.shape)[free & (np.cumsum(free, axis=1) <= w - v)]
            found.append(np.sort(np.hstack([supports, fill.reshape(len(supports), w - v)]), axis=1))
        subsets = np.concatenate(found)
        if subsets.size:
            return tuple(int(i) for i in subsets[np.lexsort(subsets.T)[0]])
        if c == n:
            return None
        c *= 2


def _dependency_codeword(matrix: ParityCheckMatrix, columns: tuple[int, ...]) -> Codeword:
    """Canonical kernel vector on the given columns, first coefficient 1."""
    q = matrix.q
    slice_ = matrix.rows[:, list(columns)].astype(np.int64)
    vec = linalg.kernel_vector(slice_, q)
    vec = vec * pow(int(vec[np.flatnonzero(vec)[0]]), -1, q) % q
    keep = np.nonzero(vec)[0]
    return Codeword(
        tuple(int(columns[i]) + 1 for i in keep),
        tuple(int(vec[i]) for i in keep),
    )


def min_distance_at_least(
    matrix: ParityCheckMatrix,
    d: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
    threads: int = 1,
) -> DistanceCertificate:
    """Certify distance >= d or produce a minimal dependency as a counterexample.

    The affine-orbit route certifies the construction's augmented
    matrices; every other case goes to the generic collision engine (see
    the module docstring).  BudgetExceededError, counting half-vectors,
    is raised when the route's search or an engine pass would exceed
    linalg.MEMORY_CAP_BYTES.  The budget bounds the engine alone, its
    multi-pass prefix hunt: once the route declines, BudgetExceededError
    is raised when C(n, d-1) exceeds it, counted exactly unless surely
    over the budget and 10^19 (linalg.subset_count).
    threads is recorded in the certificate and does not change the work.
    """
    if d < 2:
        raise ValueError("distance targets below 2 are meaningless")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if budget < 0:
        raise ValueError(f"the subset budget must be at least 0, got {budget}")
    start = time.perf_counter()
    n = matrix.n
    w = min(d - 1, n)
    if orbit.certifies(matrix, d):
        columns, total = None, math.comb(n, w)
    else:
        total = linalg.subset_count(n, w, budget)
        if total > budget:
            raise BudgetExceededError(total, budget)
        columns = _colex_first_dependent(matrix.rows, matrix.q, w)
    if columns is None:
        verdict, counterexample, examined = "certified", None, total
    else:
        counterexample = _dependency_codeword(matrix, columns)
        verdict, examined = "counterexample", 1 + sum(math.comb(c, i + 1) for i, c in enumerate(columns))
    return DistanceCertificate(
        matrix_sha256=matrix.sha256(),
        distance_bound=d,
        subset_count=total,
        subsets_examined=examined,
        verdict=verdict,
        counterexample=counterexample,
        elapsed_s=time.perf_counter() - start,
        threads=threads,
    )

