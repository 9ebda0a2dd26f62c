"""Machine-speed calibration for the benchmark's time metrics.

The benchmark runs on shared cores whose speed drifts by tens of percent
within minutes, for the same code and inputs.  A fixed pure-Python loop,
timed between operations, measures that speed; dividing a run's times by
the loop's mean time and multiplying by ``REFERENCE_S`` reports them at the
speed of the reference machine.  The loop does not call qsnake, so no change
to qsnake moves it.
"""

from __future__ import annotations

import statistics
import time

LOOPS = 40_000
REFERENCE_S = 0.003  # the loop's wall and CPU time on the reference machine


def loop_seconds() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the calibration loop."""
    w0, c0 = time.perf_counter(), time.process_time()
    total = 0
    for i in range(LOOPS):
        total += i * i
    return time.perf_counter() - w0, time.process_time() - c0


def scales(samples: list[tuple[float, float]]) -> tuple[float, float]:
    """Factors that bring wall and CPU times measured alongside the samples to the reference speed."""
    return (REFERENCE_S / statistics.fmean(w for w, _ in samples),
            REFERENCE_S / statistics.fmean(c for _, c in samples))
