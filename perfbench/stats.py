"""Percentile rules for latency samples.

Tail latency is reported at the highest percentile of
:data:`~perfbench.spec.TAIL_LADDER` that still leaves at least
:data:`MIN_BEYOND` samples above it, so a p99 is never read off a handful of
samples.  Percentiles use the nearest-rank definition: the value at 1-based
rank ``ceil(p / 100 * n)`` of the sorted samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

from perfbench.spec import TAIL_LADDER

__all__ = ["MIN_BEYOND", "nearest_rank", "samples_beyond", "tail_percentile", "tail", "median"]

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def _rank(percentile: float, count: int) -> int:
    # Rounded before the ceiling so 99.0 * 1000 / 100 is rank 990, not 991.
    return max(1, math.ceil(round(percentile * count / 100.0, 9)))


def samples_beyond(percentile: float, count: int) -> int:
    """How many of ``count`` sorted samples lie above the percentile's rank."""
    return count - _rank(percentile, count)


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of ``values`` (which must be non-empty)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[_rank(percentile, len(ordered)) - 1]


def tail_percentile(count: int, ladder: Sequence[float] = TAIL_LADDER) -> float:
    """The highest ladder percentile with at least :data:`MIN_BEYOND` samples beyond.

    Falls back to the ladder's lowest entry when even that leaves fewer,
    which only happens on runs too short to report a tail at all.
    """
    for percentile in ladder:
        if samples_beyond(percentile, count) >= MIN_BEYOND:
            return percentile
    return ladder[-1]


def tail(values: Sequence[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the tail of ``values`` under the ladder rule."""
    percentile = tail_percentile(len(values))
    return percentile, nearest_rank(values, percentile)


def median(values: Sequence[float]) -> float:
    """The median (the mean of the middle two for an even count)."""
    if not values:
        raise ValueError("no samples")
    return statistics.median(values)
