"""Order statistics the benchmark reports: medians, percentiles, spreads.

Percentiles are nearest-rank on the sorted sample (no interpolation), so a
reported value is always one that was measured. A percentile is only
*supported* when at least ``MIN_BEYOND`` samples lie beyond it; callers that
report a fixed percentile print the sample count next to it and fail the
run when the support rule is broken.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def _rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``count`` samples."""
    return math.ceil(round(q * count / 100.0, 9))  # 99.9 % of 10 000 is 9990, not 9990.000000000002


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), q) - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank strictly above the ``q``-th percentile."""
    return count - _rank(count, q)


def supported(count: int, q: float) -> bool:
    return samples_beyond(count, q) >= MIN_BEYOND


def highest_supported(count: int, candidates: Sequence[float] = (50, 90, 95, 99, 99.9)) -> float | None:
    """The largest candidate percentile with ``MIN_BEYOND`` samples beyond it."""
    best = None
    for q in sorted(candidates):
        if supported(count, q):
            best = q
    return best


def iqr_share(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's spread)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)
