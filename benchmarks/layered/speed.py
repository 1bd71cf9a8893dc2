"""Machine-speed probe: report times as if the machine never slowed.

Speed on a shared box drifts (README.md, "Noise"): the same pure-Python
loop takes 15-25% longer for tens of seconds at a time, and every engine
time moves with it.  A run-to-run spread that wide would hide any
regression the bounds in ``BENCHMARK.json`` are meant to catch.  So the
harness times :func:`probe` beside the work it measures and scales each
duration by ``REFERENCE_MS / probe``: a duration is reported as the time
it would have taken with the machine in its reference state.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter
from typing import Dict, List, Sequence

#: What :func:`probe` reads on the development box in its fast state;
#: times are reported as if the probe always read this.
REFERENCE_MS = 0.3
#: The measured loop probes again once this much time has passed.
PROBE_EVERY_S = 0.02


def probe() -> float:
    """A fixed pure-Python dict loop, in ms (best of three): tells
    machine drift from engine change.

    Its working set is a 1024-key dict, so what ran before it cannot
    make it read slow.  A loop walking a few MB of heap objects was
    tried and read 2-4x higher right after an op had evicted its data,
    which made the scaling depend on the engine's cache footprint.
    """
    best = float("inf")
    for _ in range(3):
        started = perf_counter()
        table: Dict[int, int] = {}
        for i in range(5_000):
            key = i & 1023
            table[key] = table.get(key, 0) + i
        best = min(best, perf_counter() - started)
    return best * 1e3


def speed_factor() -> float:
    """Multiply a duration measured now by this to get it at reference
    speed (three probes, since no neighbours steady a lone one)."""
    return REFERENCE_MS / statistics.median(probe() for _ in range(3))


def at_reference_speed(
    starts: Sequence[float], durations: Sequence[float],
    probe_times: Sequence[float], probe_values: Sequence[float],
) -> List[float]:
    """Scale each duration by the machine speed around its start: the
    median of the two probes before and the two after it (on recorded
    traces this gave a narrower run-to-run spread than their minimum or
    a wider window)."""
    out = []
    for start, duration in zip(starts, durations):
        index = bisect.bisect_right(probe_times, start)
        nearby = probe_values[max(0, index - 2):index + 2]
        out.append(duration * REFERENCE_MS / statistics.median(nearby))
    return out
