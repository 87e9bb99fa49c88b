"""Summary statistics shared by every workload."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def tail_percentile(count: int) -> float:
    """The highest whole percentile with at least :data:`TAIL_BEYOND`
    samples beyond it, never below the median (a run too short to
    have ten samples beyond the median reports the median)."""
    if count <= 0:
        return 50.0
    return float(max(50, min(99, math.floor(100 * (count - TAIL_BEYOND) / count))))


@dataclass(frozen=True)
class Stat:
    """One reported number with its sample count and, for a tail, the
    percentile it stands for."""

    value: float
    samples: int
    percentile: float | None = None


def p50_stat(values, scale: float = 1.0) -> Stat:
    return Stat(median(values) * scale, len(values), 50.0)


def tail_stat(values, scale: float = 1.0) -> Stat:
    pct = tail_percentile(len(values))
    value = float(np.percentile(values, pct)) if len(values) else 0.0
    return Stat(value * scale, len(values), pct)
