#!/usr/bin/env python3
"""Affine-line structure of minimum-weight words: proven cases and experiments.

The first group of parameter sets satisfies the hypotheses (prime m
above (d-3)!, characteristic above d-3), so zero violations there is a
certified reproduction.  The second group deliberately breaks the m
condition (m too small, or not prime); results for it are observations
only and nothing is asserted.

Usage: python scripts/lines_experiment.py
"""

from normbch import cli, validate_params, verify_lines_theorem


def report(params, experimental=False):
    rep = verify_lines_theorem(params, experimental=experimental)
    tag = "proven range" if rep.theorem_applies else "experiment only"
    print(
        f"(q={params.q}, m={params.m}, d={params.d})  [{tag}]  "
        f"weight={rep.weight} words={rep.words_found} on_line={rep.on_line} "
        f"violations={rep.violation_count}"
    )


def main() -> int:
    print("hypotheses hold:")
    proven = ((5, 2, 4), (7, 2, 4), (5, 3, 5), (7, 3, 5), (11, 3, 5), (13, 3, 5), (101, 2, 4), (29, 3, 5),
              (1021, 2, 4))
    for q, m, d in proven:
        report(validate_params(q, m, d))
    print()
    print("hypotheses fail (m too small or not prime); reported, never asserted:")
    for q, m, d in ((5, 2, 5), (7, 2, 5), (5, 4, 5), (7, 4, 5)):
        params = validate_params(q, m, d)
        assert not params.valid
        report(params, experimental=True)
    return 0


if __name__ == "__main__":
    cli.exit_process(cli.pipe_safe(main))  # exit codes and stdout failures as the normbch CLI has them
