"""Order statistics and interval arithmetic behind the reported figures."""

from __future__ import annotations

import math
import statistics
from bisect import bisect_right
from typing import Sequence

__all__ = ["percentile", "median", "split_by_overlap", "read_wait"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``).

    The smallest sample with at least ``q`` percent of the samples at or
    below it, so the result is always an observed value.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The sample median (mean of the two middle values for even sizes)."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def split_by_overlap(
    reads: Sequence[tuple[float, float]],
    appends: Sequence[tuple[float, float]],
) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Partition read intervals into those overlapping an append and the rest.

    ``appends`` come from one connection, so they never overlap each
    other: sorted by start they are sorted by end too.  A read overlaps
    when some append starts before the read ends and ends after the read
    starts; touching endpoints do not count.
    """
    ordered = sorted(appends)
    ends = [end for _, end in ordered]
    overlapping: list[tuple[float, float]] = []
    clear: list[tuple[float, float]] = []
    for read in reads:
        start, end = read
        index = bisect_right(ends, start)
        if index < len(ordered) and ordered[index][0] < end:
            overlapping.append(read)
        else:
            clear.append(read)
    return overlapping, clear


def read_wait(
    reads: Sequence[tuple[float, float]],
    appends: Sequence[tuple[float, float]],
) -> tuple[float, float]:
    """``(blocked_ratio, wait_seconds)`` for reads against in-flight appends.

    ``blocked_ratio`` is the share of reads overlapping an append;
    ``wait_seconds`` is the median overlapping read latency minus the
    median clear one (``0.0`` when either group is empty).
    """
    if not reads:
        raise ValueError("no reads to classify")
    overlapping, clear = split_by_overlap(reads, appends)
    ratio = len(overlapping) / len(reads)
    if not overlapping or not clear:
        return ratio, 0.0
    wait = median([end - start for start, end in overlapping]) - median(
        [end - start for start, end in clear]
    )
    return ratio, wait
