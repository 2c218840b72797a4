#!/usr/bin/env python3
"""Build the desk-scale codes, certify their distance, and compare redundancy.

The desk-scale codes are (5,2,3), (5,2,4), (5,3,5) and (7,3,5); at d = 3
the code is [1; y] and its base, the ones row alone, has a weight-2 word.
Then certifies (5,7,3), (11,3,5), (5,5,5), (13,3,5), (101,2,4), (29,3,5)
and (1021,2,4), which only the affine-orbit route reaches (the generic
engine exceeds the subset budget at (5,7,3), where C(78125, 2) =
3,051,718,750, and the 1 GiB memory cap at the others), and prints
their times.  Also builds the smallest d = 6 member, (5,7,6), without
certifying it: exhaustive certification would search weight-5 words
among n = 78,125 columns, which is out of reach.

Usage: python scripts/certify_codes.py
"""

import math
import time

from normbch import (
    augmented_matrix,
    bch_matrix,
    bch_upper,
    cli,
    construct_weight_word,
    empirical_rho,
    min_distance_at_least,
    new_upper,
    syndrome,
    validate_params,
    varshamov_upper,
)
from normbch.verify import DEFAULT_SUBSET_BUDGET


# The subset budget bounds the generic engine alone, which refuses up
# front when C(n, d-1) exceeds it.  (7,3,5)'s base matrix goes to that
# engine with C(343, 4) = 566,685,735 subsets, above the default budget,
# so its budget is raised; the affine-orbit route certifies the augmented
# matrix at any budget.
CODES = (
    (5, 2, 3, DEFAULT_SUBSET_BUDGET),
    (5, 2, 4, DEFAULT_SUBSET_BUDGET),
    (5, 3, 5, DEFAULT_SUBSET_BUDGET),
    (7, 3, 5, math.comb(343, 4)),
)
ORBIT_ONLY = ((5, 7, 3), (11, 3, 5), (5, 5, 5), (13, 3, 5), (101, 2, 4), (29, 3, 5), (1021, 2, 4))
BUILD_ONLY = (5, 7, 6)


def main() -> int:
    for q, m, d, budget in CODES:
        params = validate_params(q, m, d)
        assert params.valid, params.violations
        base = bch_matrix(params)
        aug = augmented_matrix(params)
        print(f"== (q={q}, m={m}, d={d}) ==")
        print(f"base matrix {base.row_count}x{base.n}, rank {base.rank()}")
        print(f"augmented matrix {aug.row_count}x{aug.n}, rank {aug.rank()}, dimension {aug.dimension()}")

        cert = min_distance_at_least(aug, d, budget=budget)
        print(f"distance >= {d}: {cert.verdict} over {cert.subset_count} subsets in {cert.elapsed_s:.2f}s")

        base_cert = min_distance_at_least(base, d, budget=budget)
        witness, aug_synd = construct_weight_word(params)
        print(
            f"base code at distance {d}: {base_cert.verdict} "
            f"(witness weight {witness.weight}, base syndrome zero: "
            f"{not syndrome(base, witness).any()}, augmented syndrome nonzero: {bool(aug_synd.any())})"
        )

        point = empirical_rho(aug)
        print(
            f"empirical redundancy {point.redundancy}/{m} = {point.ratio:.4f}  "
            f"(varshamov {varshamov_upper(d)}, bch {bch_upper(q, d)}, "
            f"asymptotic target {new_upper(d)})"
        )
        print()

    for q, m, d in ORBIT_ONLY:
        params = validate_params(q, m, d)
        assert params.valid, params.violations
        aug = augmented_matrix(params)
        started = time.perf_counter()
        cert = min_distance_at_least(aug, d)
        print(f"== (q={q}, m={m}, d={d}), affine-orbit route ==")
        print(f"augmented matrix {aug.row_count}x{aug.n}")
        print(
            f"distance >= {d}: {cert.verdict} over {cert.subset_count} subsets "
            f"in {time.perf_counter() - started:.2f}s"
        )
        print()

    q, m, d = BUILD_ONLY
    params = validate_params(q, m, d)
    assert params.valid, params.violations
    aug = augmented_matrix(params)
    point = empirical_rho(aug)
    print(f"== (q={q}, m={m}, d={d}), build only ==")
    print(f"augmented matrix {aug.row_count}x{aug.n}, rank {aug.rank()}, dimension {aug.dimension()}")
    print(f"distance >= {d}: not certified (weight-{d - 1} words among n = {aug.n:,} columns are out of reach)")
    print(
        f"empirical redundancy {point.redundancy}/{m} = {point.ratio:.4f}  "
        f"(varshamov {varshamov_upper(d)}, bch {bch_upper(q, d)}, asymptotic target {new_upper(d)})"
    )
    return 0


if __name__ == "__main__":
    cli.exit_process(cli.pipe_safe(main))  # exit codes and stdout failures as the normbch CLI has them
