"""A machine-speed probe for scaling end-to-end times.

It imports nothing beyond the standard library, so it can time the
benchmark's own imports.
"""
from time import perf_counter

# The calibration loop's duration at the reference speed, about its typical
# duration on a 2-core x86-64 machine with CPython 3.11.
REFERENCE_CALIBRATION_S = 0.008


def calibrate() -> float:
    """Duration of a fixed pure-Python loop that touches no library code.

    It runs before and after every set-up and every unit of a round, while
    the library is idle. Times are scaled by REFERENCE_CALIBRATION_S over
    the mean of the two, which takes the machine's own speed changes (other
    tenants on shared cores, clock scaling) out of the end-to-end metrics.
    """
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return perf_counter() - start


def timed(fn, *args):
    """``fn(*args)``: its value, its wall time, and the speed scale measured around it."""
    before = calibrate()
    start = perf_counter()
    value = fn(*args)
    wall = perf_counter() - start
    return value, wall, REFERENCE_CALIBRATION_S * 2 / (before + calibrate())
