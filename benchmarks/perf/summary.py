"""Sample summaries shared by ``run.py`` and ``compare.py``."""

from __future__ import annotations

import statistics


def quartiles(samples: list[float]) -> tuple[float, float]:
    """(Q1, Q3) as ``statistics.quantiles(n=4)`` gives them; a single
    sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def summarize(samples: list[float]) -> dict:
    """median / min / max / n / quartiles, plus -- once 60 samples
    support it -- the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    q1, q3 = quartiles(ordered)
    out = {
        "median": statistics.median(ordered),
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
        "q1": q1,
        "q3": q3,
        "samples": samples,
    }
    if len(ordered) >= 60:
        out["tail"] = {
            "percentile": 100.0 * (len(ordered) - 10) / len(ordered),
            "value": ordered[-11],
        }
    return out

