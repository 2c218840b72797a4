#!/usr/bin/env python3
"""Print the redundancy-coefficient taxonomy: which upper bound wins where.

Usage: python scripts/bounds_table.py [qmax] [dmax]

The table is `normbch bounds --table 2..qmax 3..dmax`, so its range
checks, cell cap and exit codes are the CLI's: a bad range exits 2 with
one line on stderr, and the legend is printed only after a table.
"""

import os
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does): exit quietly, and
        # point stdout at devnull so the interpreter's own flush does not fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + 13  # as if killed by SIGPIPE, like the normbch CLI
    sys.exit(code)
