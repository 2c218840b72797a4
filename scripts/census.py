#!/usr/bin/env python3
"""One line per member of the norm-augmented family: its build, certificate and line check.

The members are the four desk-scale codes (5,2,3), (5,2,4), (5,3,5) and
(7,3,5), the codes (5,7,3), (11,3,5), (5,5,5), (13,3,5), (101,2,4),
(29,3,5) and (1021,2,4), which only the affine-orbit route certifies,
(7,2,4), and the smallest d = 6 member, (5,7,6): its weight-5 words
among n = 78,125 columns are out of reach, so it is built, never
certified.  Last come (5,2,5), (7,2,5), (5,4,5) and (7,4,5), where m is
too small or not prime: their line checks are observations only.

Each line is key=value cells: the matrix's r, n and rank; its rank over
m against the varshamov, bch and norm-bch coefficients; for the jobs
the member runs, the verdict and subset count of distance >= d (c), the
generic engine's verdict on the base matrix with the separation
witness's weight and syndromes (b), and the line check's counts (l);
last, whether the hypotheses hold and the seconds taken.

Usage: python scripts/census.py
"""

import math
import time

from normbch import (augmented_matrix, bch_matrix, bch_upper, cli, construct_weight_word, empirical_rho,
                     min_distance_at_least, new_upper, syndrome, validate_params, varshamov_upper,
                     verify_lines_theorem)

MEMBERS = (
    (5, 2, 3, "cb"), (5, 2, 4, "cbl"), (7, 2, 4, "l"), (5, 3, 5, "cbl"), (7, 3, 5, "cbl"), (5, 7, 3, "c"),
    (11, 3, 5, "cl"), (5, 5, 5, "c"), (13, 3, 5, "cl"), (101, 2, 4, "cl"), (29, 3, 5, "cl"), (1021, 2, 4, "cl"),
    (5, 7, 6, ""), (5, 2, 5, "l"), (7, 2, 5, "l"), (5, 4, 5, "l"), (7, 4, 5, "l"),
)


def row(q: int, m: int, d: int, jobs: str) -> str:
    started = time.perf_counter()
    params = validate_params(q, m, d)
    aug = augmented_matrix(params)
    point = empirical_rho(aug)
    cells = {"q": q, "m": m, "d": d, "r": aug.row_count, "n": aug.n, "rank": point.redundancy,
             "r/m": f"{point.ratio:.4f}", "varshamov": varshamov_upper(d), "bch": bch_upper(q, d),
             "norm-bch": new_upper(d), "verdict": "unchecked"}
    if "c" in jobs:
        cert = min_distance_at_least(aug, d)
        cells |= {"verdict": cert.verdict, "subsets": cert.subset_count}
    if "b" in jobs:
        base = bch_matrix(params)  # the generic engine's search, at the budget its d-1 subsets need
        witness, aug_syndrome = construct_weight_word(params)
        cells |= {"base": min_distance_at_least(base, d, budget=math.comb(base.n, d - 1)).verdict,
                  "witness": witness.weight, "base-syndrome": "nonzero" if syndrome(base, witness).any() else "zero",
                  "aug-syndrome": "nonzero" if aug_syndrome.any() else "zero"}
    if "l" in jobs:
        lines = verify_lines_theorem(params, experimental=not params.valid)
        cells |= {"weight": lines.weight, "words": lines.words_found, "on-line": lines.on_line,
                  "violations": lines.violation_count}
    cells |= {"tag": "proven" if params.valid else "experiment", "s": f"{time.perf_counter() - started:.2f}"}
    return " ".join(f"{key}={value}" for key, value in cells.items())


def main() -> int:
    for member in MEMBERS:
        print(row(*member))
    return 0


if __name__ == "__main__":
    cli.exit_process(cli.pipe_safe(main))  # exit codes and stdout failures as the normbch CLI has them
