"""Summary statistics shared by the workloads: percentiles, ladder rule."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Candidate tail percentiles, lowest first.
PERCENTILES = ("50", "90", "95", "99", "99.9")
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def tail_percentile(n: int) -> Optional[str]:
    """The highest percentile of :data:`PERCENTILES` that ``n`` samples support.

    A percentile ``p`` is supported when at least :data:`MIN_BEYOND` samples
    lie beyond it, i.e. ``n * (100 - p) / 100 >= 10``; exact arithmetic keeps
    the boundary cases (100 samples support p90, 1000 support p99) exact.
    Returns ``None`` for fewer than 20 samples.
    """
    best = None
    for p in PERCENTILES:
        if n * (100 - Fraction(p)) / 100 >= MIN_BEYOND:
            best = p
    return best


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p``% at or below it.

    ``inf`` samples (failed requests) sort last, so they count as misses of
    any finite limit without turning the result into ``nan``.
    """
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    if ordered.size == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(float(Fraction(str(p)) * ordered.size / 100)))
    return float(ordered[rank - 1])


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """Median, the highest supported tail percentile, and the sample count."""
    n = len(samples)
    tail = tail_percentile(n)
    summary: Dict[str, object] = {"n": n, "p50": percentile(samples, 50) if n else None}
    if tail is not None:
        summary["tail"] = f"p{tail}"
        summary[f"p{tail}"] = percentile(samples, float(tail))
    return summary


def middle_rate(times: Sequence[float], share: float = 0.8) -> float:
    """Events per second over the middle ``share`` of the sorted event times.

    The ends of a rung are left out: the last requests' latency would
    otherwise count against the rate, and the first ones' head start for it.
    """
    ordered = np.sort(np.asarray(times, dtype=np.float64))
    low = int(len(ordered) * (1 - share) / 2)
    high = len(ordered) - 1 - low
    if high <= low or ordered[high] <= ordered[low]:
        return 0.0
    return (high - low) / float(ordered[high] - ordered[low])


@dataclass(frozen=True)
class Rung:
    """One offered rate of an open-loop ladder, as measured."""

    offered_rps: float  # nominal rate of the rung
    scheduled_rps: float  # rate its seeded arrival schedule actually offers
    achieved_rps: float  # rate of completed requests
    p99_ms: float  # failed requests counted as infinitely late


def max_rate_meeting(rungs: List[Rung], limit_ms: float, min_share: float = 0.95) -> float:
    """The highest offered rate whose p99 meets ``limit_ms`` without a backlog.

    A rung passes when its p99 (failures count as misses) is within the
    limit and it completed at least ``min_share`` of the rate its schedule
    offered (a Poisson schedule's own rate scatters around the nominal one).
    Returns the passing rung's nominal rate, or 0 when no rung passes.
    """
    passing = [
        rung.offered_rps
        for rung in rungs
        if rung.p99_ms <= limit_ms and rung.achieved_rps >= min_share * rung.scheduled_rps
    ]
    return max(passing) if passing else 0.0
