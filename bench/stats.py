"""Summary arithmetic for the benchmark: percentiles with their sample
counts, medians, and ratios with their base."""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Percentile:
    """The q-th percentile of `samples` values; `beyond` is how many samples
    lie above it, which says whether the tail is resolved (ten or more)."""

    q: float
    value: float
    samples: int
    beyond: int


def percentile(values, q: float) -> Percentile:
    """Linear interpolation between closest ranks (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q={q} outside [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    value = xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    beyond = sum(1 for x in xs if x > value)
    return Percentile(q=q, value=value, samples=len(xs), beyond=beyond)


def median(values) -> float:
    return percentile(values, 50.0).value


@dataclass(frozen=True)
class Ratio:
    value: float
    base: int


def hit_ratio(lookups: int, misses: int) -> Ratio | None:
    """Share of lookups served without work; None when nothing was looked up."""
    if misses < 0 or misses > lookups:
        raise ValueError(f"misses={misses} outside [0, lookups={lookups}]")
    if lookups == 0:
        return None
    return Ratio(value=(lookups - misses) / lookups, base=lookups)
