"""The statistics e2ebench computes its metrics with.

Kept apart from run.py so that test_stats.py can check every definition
without building or running the simulator.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def nearest_rank(values, pct):
    """The smallest value with at least pct percent of the values at or
    below it (nearest-rank percentile, 0 < pct <= 100)."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct * len(ordered) / 100)
    return ordered[max(rank, 1) - 1]


def tail_percentile(count, beyond=10):
    """The highest whole percentile, from 50 to 99, whose nearest-rank
    value has at least `beyond` of `count` samples above it; None if even
    the median has fewer."""
    for pct in range(99, 49, -1):
        if count - math.ceil(pct * count / 100) >= beyond:
            return pct
    return None


def geomean(values):
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Ratio:
    """A ratio that keeps its base, so it is printed with it."""

    def __init__(self, num, den):
        self.num = num
        self.den = den

    @property
    def value(self):
        return self.num / self.den if self.den else 0.0

    def __str__(self):
        return f"{self.value:.6g} = {self.num:.6g} / {self.den:.6g}"


def merge_buckets(histograms):
    """Sum the sparse [bit-width, count] bucket lists of several log2
    histograms (the metric registry's dump format)."""
    merged = {}
    for h in histograms:
        for width, count in h["buckets"]:
            merged[width] = merged.get(width, 0) + count
    return merged


def log2_quantile(buckets, permille):
    """Nearest-rank quantile of a merged log2 histogram, reported as the
    bucket's inclusive upper edge, by the metric registry's own rule:
    bucket 0 holds zeros, bucket i values in [2^(i-1), 2^i)."""
    total = sum(buckets.values())
    if total == 0:
        return 0
    rank = (total - 1) * permille // 1000
    seen = 0
    for width in sorted(buckets):
        seen += buckets[width]
        if seen > rank:
            return 0 if width == 0 else (1 << min(width, 64)) - 1
    raise AssertionError("unreachable: rank below total")


def metric(value, unit):
    """One metric in the shape every result prints: a finite number and
    its unit."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"metric value {value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"metric value {value!r} is not finite")
    if not UNIT_RE.match(unit):
        raise ValueError(f"bad unit {unit!r}")
    return {"value": value, "unit": unit}


def metrics_block(named):
    """Check names and build the result's "metrics" object from
    (name, value, unit) triples."""
    out = {}
    for name, value, unit in named:
        if not NAME_RE.match(name):
            raise ValueError(f"bad metric name {name!r}")
        if name in out:
            raise ValueError(f"metric {name!r} given twice")
        out[name] = metric(value, unit)
    return out
