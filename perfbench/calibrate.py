#!/usr/bin/env python3
"""Fixed reference work that gauges the machine's speed during a run.

The machine the benchmark runs on is shared: within seconds the speed of
a CPU can change by a half.  run.py times this script before and after
each measured operation and scales the operation's time by the speed the
two runs show, so a slow stretch moves the reference and the measurement
together.
The work mirrors what normbch commands do: start the interpreter, import
numpy, loop in pure Python and run small-integer numpy array arithmetic.

It must not change: a different amount of work would rescale every
reported time.  It prints a checksum so a broken run is caught.
"""

import numpy as np


def main() -> None:
    total = 0
    for i in range(250_000):
        total = (total * 31 + i) % 1_000_003
    a = np.arange(1 << 17, dtype=np.int32).reshape(-1, 8, 8)
    b = a % 4 + 1
    for step in range(12):
        a = (a * b + a[:, :, ::-1] + step) % 5
    print(total, int(a.sum()))


if __name__ == "__main__":
    main()
