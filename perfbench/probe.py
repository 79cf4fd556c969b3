"""The host-speed probe behind ``mine_p50_s`` and ``topk_p50_ms``.

The host's speed swings by up to ~1.6x, for seconds or whole runs at a
time.  Each timed mine and top-K request is paired with a probe reading
taken just before it, on the same thread, and the two metrics are
medians of sample wall time / probe, scaled to a host where the probe
takes ``REFERENCE_SECONDS``.

The probe counts this thread's CPU time with the garbage collector off,
so what the program leaves behind in the benchmark process does not
move it: a thread the program left running, busy or holding the
interpreter lock, makes the probe wait but adds no CPU time to it, and
gc settings do not apply while it runs.  Such leftovers slow only the
samples, which are wall times, and so show in the ratio.  (A probe in a
separate process does not work here: on a shared 2-vCPU host it runs on
whichever vCPU is free, whose speed is not the one the mine sees.)
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Sequence

__all__ = ["REFERENCE_SECONDS", "adjusted", "probe"]

REFERENCE_SECONDS = 0.03


def probe() -> float:
    """CPU seconds this thread spends on fixed pure-Python work, gc off."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        table: dict[tuple[int, int, int], tuple[float, float]] = {}
        for i in range(20_000):
            table[(i % 97, i, i % 13)] = (i * 0.5, float(i % 7))
        total = 0.0
        for _, (a, b) in sorted(table.items()):
            total += a / (1.0 + b)
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def adjusted(samples: Sequence[float], probes: Sequence[float]) -> float:
    """Median of sample / probe, in seconds at the reference probe time."""
    return REFERENCE_SECONDS * statistics.median([sample / probe for sample, probe in zip(samples, probes)])
