"""Reference-speed timing for a host whose CPU speed swings.

On a shared 2-vCPU host the same pure-Python work can take anywhere from
1x to 2x its best time, changing from second to second, so raw wall
times of one run differ from the next by 30% or more.  The benchmark
therefore brackets every short timed unit with a fixed calibration loop
and reports reference seconds: the unit's wall time scaled by
``REFERENCE_S`` over the mean calibration time around it.  A change that
makes okada twice as fast halves the reference time; a host slowdown
slows the unit and the calibration alike and cancels.  Raw wall times go
to the run record next to them.
"""

from __future__ import annotations

import os
import time

# Calibration loop time taken as one reference unit; the loop's time on
# an Intel Xeon vCPU of a shared 2-core host, about its fastest time.
REFERENCE_S = 0.012


def _calibration_work() -> int:
    """Small sorted tuples, dicts and hashing: the kind of work the
    library does when it builds and composes diagrams."""
    total = 0
    for i in range(4000):
        arcs = tuple(sorted(((i * 7 + k) % 13, k, (i + k) % 5) for k in range(6)))
        partner = {}
        for a, b, h in arcs:
            partner[a] = (b, h)
        total += len(partner) + hash(arcs) % 7
    return total


def calibrate() -> float:
    """Seconds the calibration loop takes right now."""
    t = time.perf_counter()
    _calibration_work()
    return time.perf_counter() - t


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds for a unit timed
    between calibrations taking ``before`` and ``after`` seconds."""
    return REFERENCE_S / ((before + after) / 2)


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so that the
    calibration measures the CPU the timed work runs on."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
