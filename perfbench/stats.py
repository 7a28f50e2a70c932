"""Percentiles for the runner, and the metric-name rule its tests check."""

from __future__ import annotations

import math
import re
from typing import Sequence

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_name(name: str) -> bool:
    """Metric names start with a letter or digit and use at most 64 of
    letters, digits, '_', '.' and '-'."""
    return _NAME.fullmatch(name) is not None


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty sample: the
    smallest value with at least q percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of `count` samples lie strictly beyond the nearest-rank q-th
    percentile.  A tail percentile means little with fewer than ten."""
    return count - max(math.ceil(q / 100 * count), 1)
