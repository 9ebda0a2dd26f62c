"""Time qsnake's set-up in this fresh interpreter: importing it and generating the first round.

Usage: python3 bench/setup_probe.py <workload> <seed>
Prints the set-up seconds, then the median seconds of the calibration loop
timed right after it (see calibration.py).
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import qsnake  # noqa: E402,F401
import qsnake.cli  # noqa: E402,F401
import qsnake.verify  # noqa: E402,F401
import workloads  # noqa: E402

next(workloads.rounds(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2])))
SETUP = time.perf_counter() - START

import calibration  # noqa: E402
import statistics  # noqa: E402

LOOP = statistics.median(calibration.loop_seconds()[0] for _ in range(5))
print(repr(SETUP), repr(LOOP))
