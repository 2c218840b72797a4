"""Redundancy-coefficient bounds c(q, d) and empirical redundancy of built codes.

The redundancy coefficient of a (q, d) pair is the liminf of
(n - log_q(number of codewords)) / log_q(n) over the best codes of
length n; this module evaluates the standard closed-form bounds on it,
merges in recorded literature values for small alphabets, and reports
which bound wins where.  Formula bounds are kept as exact integers or
rationals; the only irrational bound (the general caps bound for d = 4)
is evaluated in double precision, with display rounding to 4 decimals
happening only at presentation time.

Literature constants are data entries with short source labels, not
recomputed constructions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # an annotation only: the table code never loads numpy
    from .construct import ParityCheckMatrix

Bound = int | Fraction | float

# Recorded upper bounds for small alphabets, keyed by (q, d); None keys
# on q apply for every alphabet at that distance.
_SPECIAL: dict[tuple[int | None, int], list[tuple[Bound, str]]] = {
    (None, 5): [(Fraction(7, 3), "d5-family")],
    (3, 5): [(Fraction(2), "ternary-2ec-bch")],
    (4, 5): [(Fraction(2), "quaternary-d5")],
    (None, 6): [(Fraction(3), "d6-family")],
    (3, 6): [(Fraction(5, 2), "ternary-d6")],
    (4, 6): [(Fraction(17, 6), "quaternary-d6")],
    (3, 4): [(Fraction(13796, 10000), "ternary-caps-record")],
    (4, 4): [(Fraction(29, 20), "quaternary-caps")],
}


class BoundReport(NamedTuple):
    """All bounds for one (q, d) pair with the winning upper and its source."""

    q: int
    d: int
    hamming_lower: int
    varshamov_upper: int
    gilbert_upper: int
    bch_upper: int
    new_upper: Fraction
    special: tuple[tuple[Bound, str], ...]
    best_upper: Bound
    best_source: str
    exact: bool
    consistent: bool


class EmpiricalPoint(NamedTuple):
    """Finite-length redundancy of one concrete matrix: rank over log_q(n)."""

    q: int
    n: int
    redundancy: int
    ratio: float


def _check_qd(q: int, d: int) -> None:
    if q < 2:
        raise ValueError(f"alphabet size q={q} must be at least 2")
    if d < 3:
        raise ValueError(f"distance d={d} must be at least 3")


def hamming_lower(q: int, d: int) -> int:
    """Sphere-packing floor: c(q, d) >= floor((d-1)/2)."""
    _check_qd(q, d)
    return (d - 1) // 2


def varshamov_upper(d: int) -> int:
    """Greedy-existence ceiling: c(q, d) <= d - 2."""
    _check_qd(2, d)
    return d - 2


def gilbert_upper(d: int) -> int:
    """Weaker existence ceiling: c(q, d) <= d - 1."""
    _check_qd(2, d)
    return d - 1


def bch_upper(q: int, d: int) -> int:
    """Extended BCH family ceiling: ceil((d-2)(q-1)/q), exact integer arithmetic."""
    _check_qd(q, d)
    return -((d - 2) * (q - 1) // -q)


def new_upper(d: int) -> Fraction:
    """Norm-augmented family ceiling: (d-3) + 1/(d-2), as an exact rational."""
    _check_qd(2, d)
    return Fraction(d - 3) + Fraction(1, d - 2)


def caps_upper_d4(q: int) -> float:
    """General caps bound for d = 4: 6 / log_q(q^4 + q^2 - 1).

    Irrational, evaluated in double precision (about 1 ulp from the log
    quotient); tends to 1.5 from below as q grows.
    """
    return 6.0 / (math.log(q**4 + q**2 - 1) / math.log(q))


def special_bounds(q: int, d: int) -> list[tuple[Bound, str]]:
    """Recorded bounds that apply to (q, d), with source labels."""
    out: list[tuple[Bound, str]] = []
    if d == 4:
        out.append((caps_upper_d4(q), "caps-general"))
    out.extend(_SPECIAL.get((None, d), []))
    out.extend(_SPECIAL.get((q, d), []))
    return out


def best_known(q: int, d: int) -> BoundReport:
    """Assemble every bound for (q, d) and pick the smallest upper with provenance.

    Ties keep the earliest candidate in the fixed order (bch, varshamov,
    norm-bch, then recorded specials).  The exact flag marks pairs where
    lower and upper are known to meet.
    """
    lower = hamming_lower(q, d)
    bch, varshamov, new, special = bch_upper(q, d), varshamov_upper(d), new_upper(d), tuple(special_bounds(q, d))
    candidates = [(bch, "bch"), (varshamov, "varshamov"), (new, "norm-bch"), *special]
    best_value, best_source = min(candidates, key=lambda candidate: float(candidate[0]))
    exact = q == 2 or d == 3 or (q, d) in ((3, 5), (4, 5))
    consistent = lower <= float(best_value) + 1e-12
    return BoundReport(q=q, d=d, hamming_lower=lower, varshamov_upper=varshamov, gilbert_upper=gilbert_upper(d),
                       bch_upper=bch, new_upper=new, special=special, best_upper=best_value,
                       best_source=best_source, exact=exact, consistent=consistent)


def empirical_rho(matrix: ParityCheckMatrix) -> EmpiricalPoint:
    """Finite-length redundancy coefficient of a built matrix."""
    r = matrix.rank()
    ratio = r / (math.log(matrix.n) / math.log(matrix.q))
    return EmpiricalPoint(q=matrix.q, n=matrix.n, redundancy=r, ratio=ratio)


def format_bound(value: Bound) -> str:
    """Rationals exactly, floats to 4 decimals."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def bounds_table(reports) -> str:
    """Text taxonomy of best_known reports: one row per q, one column per d, each cell the winner.

    reports, read once, covers a grid of (q, d), rows and columns in their
    order of first appearance; a cell shows which bound is smallest there.
    """
    cells = {}
    width = 6
    for report in reports:
        text = f"{format_bound(report.best_upper)} [{report.best_source}]"
        if report.exact:
            text += " ="
        cells[report.q, report.d] = text
        width = max(width, len(text))
    qs = list(dict.fromkeys(q for q, _ in cells))
    ds = list(dict.fromkeys(d for _, d in cells))
    header = "q\\d".ljust(6) + "".join(f"d={d}".ljust(width + 2) for d in ds)
    lines = [header]
    for q in qs:
        lines.append(f"q={q}".ljust(6) + "".join(cells[q, d].ljust(width + 2) for d in ds))
    return "\n".join(lines)
