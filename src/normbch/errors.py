"""Shared exception types."""

import math

# Default cap on the subsets an exhaustive word search may enumerate; the
# CLI parser needs it, so it lives here rather than in verify.
DEFAULT_SUBSET_BUDGET = 20_000_000
# Largest field, and so the longest matrix, the package builds or reads;
# the matrix reader needs it, so it lives here rather than in field.
DEFAULT_MAX_FIELD_SIZE = 1 << 20


def within_field_budget(p: int, degree: int) -> bool:
    """Whether p^degree is at most DEFAULT_MAX_FIELD_SIZE, computed only for a degree 2^degree <= it admits."""
    return degree < DEFAULT_MAX_FIELD_SIZE.bit_length() and p**degree <= DEFAULT_MAX_FIELD_SIZE


def _count(value: int) -> str:
    # Exact below 10^18; a larger count prints as a power of ten, so one
    # with thousands of digits never meets Python's int-to-str limit.
    if value < 10**18:
        return str(value)
    power = math.floor(log := math.log10(value))
    if abs(log - round(log)) < 1e-9 * log:  # the float log of 10^19 - 1 is 19: compare exactly
        power = round(log) - (value < 10 ** round(log))
    return f"about 10^{power}"


class BudgetExceededError(RuntimeError):
    """A requested enumeration is larger than the configured budget.

    Carries the exact count that would be needed.  A subset count can be
    met by re-running with a deliberately raised budget; half-vectors
    count against the fixed memory cap, which no option raises.
    """

    def __init__(self, needed: int, budget: int, what: str = "subsets"):
        super().__init__(f"{_count(needed)} {what} needed, budget is {_count(budget)}")
        self.needed = needed
        self.budget = budget
        self.what = what
