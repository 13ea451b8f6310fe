"""Median and quartile helpers shared by the benchmark and its spread check.

Quartiles follow ``statistics.quantiles(values, n=4)`` (the "exclusive"
method), which is how run-to-run spreads of this benchmark are judged.
"""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple:
    """(q1, median, q3) of at least two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _q2, q3 = quartiles(values)
    return (q3 - q1) / median(values)
