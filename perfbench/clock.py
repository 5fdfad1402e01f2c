"""Machine-speed calibration, so that run times compare across runs.

On a shared virtual machine (measured on 2 vCPUs of an Intel Xeon at
2.0 GHz) the same interpreter-bound loop runs at one speed for a while and
up to 1.7x slower for a while, in phases from milliseconds to minutes.  In
five consecutive runs of one workload the compile time moved by 40% while
the program and its inputs stayed fixed.

So every timed call is followed by a stretch of a fixed, dpllc-independent
calibration loop lasting CAL_SHARE of the call's time, and the call's
seconds are scaled to a reference speed, at which one calibration unit
takes REFERENCE_UNIT_S.  The calibration right after a call sees the same
phase as the call (adjacent sub-millisecond timings of the two correlate
at 0.8), and over a long call both average the same mix of phases.
"""

from __future__ import annotations

from time import perf_counter

CAL_SHARE = 0.25
REFERENCE_UNIT_S = 0.0005


def _unit() -> None:
    # Dict, tuple and int work, like the interpreter-bound code it calibrates.
    table: dict[tuple[int, int], int] = {}
    for i in range(2000):
        key = (i % 997, i & 7)
        table[key] = table.get(key, 0) + 1


class Calibration:
    """Scales seconds to the reference speed, one timed call at a time."""

    def __init__(self):
        self.busy = 0.0
        self.units = 0

    def follow(self, seconds: float) -> float:
        """Calibrate for CAL_SHARE of `seconds` (at least one unit) and
        return `seconds` at the reference speed."""
        busy = 0.0
        units = 0
        start = perf_counter()
        while True:
            t0 = perf_counter()
            _unit()
            busy += perf_counter() - t0
            units += 1
            if perf_counter() - start >= CAL_SHARE * seconds:
                break
        self.busy += busy
        self.units += units
        return seconds * REFERENCE_UNIT_S * units / busy

    @property
    def scale(self) -> float:
        """Mean factor from this run's seconds to reference seconds."""
        return REFERENCE_UNIT_S * self.units / self.busy
