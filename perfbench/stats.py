"""Medians, quartiles and relative spread, as the acceptance rule uses them."""

from __future__ import annotations

import statistics


def summary(values) -> dict:
    """Median, first and third quartile (``statistics.quantiles``, n=4)
    and the quartile distance as a share of the median."""
    values = [float(v) for v in values]
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}
