#!/usr/bin/env python3
"""Print the redundancy-coefficient taxonomy: which upper bound wins where.

Usage: python scripts/bounds_table.py [qmax] [dmax]

The table is `normbch bounds --table 2..qmax 3..dmax`, so its range
checks, cell cap and exit codes are the CLI's: a bad range exits 2 with
one line on stderr, and the legend is printed only after a table.
"""

import sys

from normbch import cli


def main() -> int:
    q_max = sys.argv[1] if len(sys.argv) > 1 else "9"
    d_max = sys.argv[2] if len(sys.argv) > 2 else "8"
    code = cli.main(["bounds", "--table", f"2..{q_max}", f"3..{d_max}"])
    if code == cli.EXIT_OK:
        print()
        print("cells show the smallest recorded upper bound and its source; '=' marks")
        print("pairs where the lower and upper bounds are known to coincide")
    return code


if __name__ == "__main__":
    sys.exit(cli.pipe_safe(main))  # a closed stdout exits 141 quietly, as the normbch CLI does
