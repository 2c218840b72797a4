#!/usr/bin/env python3
"""Print the redundancy-coefficient taxonomy: which upper bound wins where.

Usage: python scripts/bounds_table.py [qmax] [dmax]
"""

import os
import sys

from normbch import bounds_table


def main() -> int:
    q_max = int(sys.argv[1]) if len(sys.argv) > 1 else 9
    d_max = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    print(bounds_table(range(2, q_max + 1), range(3, d_max + 1)))
    print()
    print("cells show the smallest recorded upper bound and its source; '=' marks")
    print("pairs where the lower and upper bounds are known to coincide")
    return 0


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
