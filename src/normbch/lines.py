"""Affine-line validation of the base code's minimum-weight words.

The distance gain of the construction rests on every minimum-weight word
of the base code lying on an affine line.  verify_lines_theorem checks
this on the representatives of the orbit argument alone: the words
whose support holds locators 1 and 0, found by orbit.survey, which
also checks that the base code is invariant under the affine maps,
that no word is lighter than d-1, the on-line count against its closed
form and Vandermonde's nonzero sum on each on-line word.  An invariant
set with R representatives has R*n(n-1)/(v(v-1)) members, which gives
every count of the report.

The other functions serve the acceptance gate and the scripts:
enumerate_weight_words lists every word of one weight within the memory
cap, on_affine_line finds the line through a locator set,
construct_weight_word builds the separation witness and
vandermonde_check decides the Vandermonde argument.  Only check-lines
and those callers load this module.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import linalg, orbit
from .construct import (CodeParams, Codeword, ParityCheckMatrix, augmented_matrix, bch_matrix, require_buildable,
                        syndrome)
from .field import FieldElement, FieldMismatchError


class _AffineLineFields(NamedTuple):
    a: FieldElement
    b: FieldElement
    lambdas: tuple[int, ...]


class AffineLine(_AffineLineFields):
    """A line {a + t*b} with b nonzero; lambdas are the prime-field parameters."""

    __slots__ = ()

    def __new__(cls, a: FieldElement, b: FieldElement, lambdas: tuple[int, ...]):
        if not b:
            raise ValueError("a line needs a nonzero direction")
        return super().__new__(cls, a, b, lambdas)


class LinesReport(NamedTuple):
    """Counts of the minimum-weight base-code words and of those off every line."""

    weight: int
    words_found: int
    on_line: int
    violation_count: int
    theorem_applies: bool
    subset_count: int


def enumerate_weight_words(matrix: ParityCheckMatrix, w: int) -> list[Codeword]:
    """All weight-w codewords of the matrix kernel, one per scalar class.

    Each word has first coefficient 1.  Output is sorted by (support,
    coefficients).  The zero word is never included; w = 0 or w > n
    yields an empty list.  A pass over the memory cap is refused before
    its tables are allocated.
    """
    if w <= 0 or w > matrix.n:
        return []
    supports, coeffs = linalg.kernel_words(matrix.rows, matrix.q, w)
    order = np.lexsort(np.hstack([supports, coeffs]).T[::-1])
    return [
        Codeword(tuple(s), tuple(c))
        for s, c in zip((supports[order] + 1).tolist(), coeffs[order].tolist())
    ]


def on_affine_line(locators) -> AffineLine | None:
    """The affine line through a locator set, or None when there is none.

    Normalization: the line is anchored at the last locator with
    direction (second-to-last minus last), which parameterizes the last
    two locators as 1 and 0; a line under this normalization exists
    exactly when one exists at all.  Needs at least 3 pairwise distinct
    locators.
    """
    xs = list(locators)
    if len(xs) < 3:
        raise ValueError("line checks need at least 3 locators")
    if len({x.val for x in xs}) != len(xs):
        raise ValueError("locators must be pairwise distinct")
    field = xs[-1].field
    if any(x.field is not field for x in xs):
        raise FieldMismatchError("locators from different fields")
    anchor, direction = xs[-1], xs[-2] - xs[-1]
    offsets = field.add(np.array([x.val for x in xs]), (-anchor).val)
    lambdas = field.mul(offsets, direction.inverse().val).tolist()
    in_gf_q = max(lambdas) < field.p  # an element lies in GF(q) exactly when its encoding is below q
    return AffineLine(a=anchor, b=direction, lambdas=tuple(lambdas)) if in_gf_q else None


def _orbit_size(reps: int, n: int, v: int) -> int:
    """Size of an affine-invariant set of weight-v words with reps representatives."""
    size, rest = divmod(reps * n * (n - 1), v * (v - 1))
    if rest:
        raise RuntimeError(f"{reps} representatives of weight {v} cannot fill whole orbits at n={n}")
    return size


def verify_lines_theorem(params: CodeParams, experimental: bool = False) -> LinesReport:
    """Check that every minimum-weight word of the base code sits on a line.

    Runs the distance route's orbit check, orbit.survey, on bch_matrix and
    derives words_found, on_line and the violation count from its
    weight-(d-1) representatives by orbit counting (module docstring).
    on_affine_line anchors a representative at 0 with direction 1, so it
    is on a line exactly when every locator of its support lies in GF(q).
    A search over the memory cap is refused before the build, and with
    d-1 > n, as no word fits, nothing is built.  With experimental set,
    parameters that fail the hypotheses are still run and the report is
    marked as outside the proven range; results are then observations,
    not assertions.  d >= 4, as the base rows of d = 3, the ones row,
    give locators 1 and 0 one column: no two pivots for the survey.
    """
    if params.d < 4:
        raise ValueError("line validation needs d >= 4 (below that any support is collinear)")
    if not params.valid and not experimental:
        raise ValueError("parameters violate the hypotheses: " + "; ".join(params.violations))
    require_buildable(params)  # a parameter error outranks the memory refusal, which comes before the build
    n, v = params.n, params.d - 1
    _, ys, on = orbit.survey(params, bch_matrix) if v <= n else (None, (), 0)
    return LinesReport(
        weight=v,
        words_found=_orbit_size(len(ys), n, v),
        on_line=_orbit_size(on, n, v),
        violation_count=_orbit_size(len(ys) - on, n, v),
        theorem_applies=params.valid,
        subset_count=math.comb(n, v),
    )


def construct_weight_word(params: CodeParams) -> tuple[Codeword, np.ndarray]:
    """Deterministic weight-(d-1) word of the base code, plus its augmented syndrome.

    Locators y_i are the d-3 smallest elements of GF(q) outside {0, 1},
    then 1, then 0.  The coefficients c_i = 1/prod_(j != i)(y_i - y_j),
    scaled to 1 at locator 0, are the Lagrange weights (the column
    multipliers of a generalized Reed-Solomon code's dual): the unique
    solution of sum_i c_i y_i^t = 0, t = 0..d-3, with that last
    coefficient.  The word's base syndrome is zero; its augmented
    syndrome, nonzero, is returned to show the separation of the codes.
    At d = 3 the word is locator 1 with weight q-1 and locator 0 with 1.
    """
    if not params.valid:
        raise ValueError("parameters violate the hypotheses: " + "; ".join(params.violations))
    q, ys = params.q, [*range(2, params.d - 1), 1, 0]
    spreads = [math.prod(y - z for z in ys if z != y) for y in ys]  # prod_(j != i)(y_i - y_j)
    coeffs = [spreads[-1] * pow(s, -1, q) % q for s in spreads]
    aug = augmented_matrix(params)
    pairs = sorted(zip((aug.locators.columns(ys) + 1).tolist(), coeffs))
    word = Codeword(tuple(j for j, _ in pairs), tuple(c for _, c in pairs))
    return word, syndrome(aug, word)


def vandermonde_check(q: int, lambdas, xis) -> bool:
    """Whether sum(xi_i * lambda_i^t) vanishes for every t = 0..d-2.

    With pairwise distinct lambdas and nonzero xis this is always False;
    the full power range pins the coefficients of a square Vandermonde
    system, which only the zero vector satisfies.
    """
    lambdas = [l % q for l in lambdas]
    xis = [x % q for x in xis]
    if len(lambdas) != len(xis) or not lambdas:
        raise ValueError("need equally many lambdas and coefficients")
    if len(set(lambdas)) != len(lambdas):
        raise ValueError("lambdas must be pairwise distinct")
    if any(x == 0 for x in xis):
        raise ValueError("coefficients must be nonzero")
    for t in range(len(lambdas)):
        if sum(x * pow(l, t, q) for x, l in zip(xis, lambdas)) % q:
            return False
    return True
