"""Throughput and fairness metrics.

These turn :class:`~repro.simulator.trace.FlowTrace` logs into the
quantities the paper's figures show: per-flow throughput over windows,
fairness between flows, and event counts (losses, acker switches).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from ..simulator.trace import FlowTrace


def throughput_bps(trace: FlowTrace, t0: float, t1: float, kind: str = "data") -> float:
    """Average payload throughput of ``kind`` records over [t0, t1)."""
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    return trace.throughput_bps(t0, t1, kind)


def acker_occupancy(switches, t0: float, t1: float) -> dict[str, float]:
    """Seconds each receiver spent as acker within [t0, t1], from the
    election's switch history (``AckerElection.switches``)."""
    occupancy: dict[str, float] = {}
    current = None
    last = t0
    for s in switches:
        if s.time >= t1:
            break
        if current is not None and s.time > t0:
            occupancy[current] = occupancy.get(current, 0.0) + (max(s.time, t0) - last)
        current = s.new
        last = max(s.time, t0)
    if current is not None:
        occupancy[current] = occupancy.get(current, 0.0) + (t1 - last)
    return occupancy


def jain_index(rates: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even allocation.

    For n flows the index ranges from 1/n (one flow hogs everything)
    to 1 (equal shares).
    """
    if not rates:
        raise ValueError("need at least one rate")
    total = sum(rates)
    if total == 0:
        return 1.0  # nobody got anything: vacuously fair
    squares = sum(r * r for r in rates)
    return total * total / (len(rates) * squares)


def throughput_ratio(a: float, b: float) -> float:
    """max/min ratio of two rates; ``inf`` if one is starved."""
    lo, hi = sorted((a, b))
    if lo <= 0:
        return math.inf
    return hi / lo


def loss_event_rate(trace: FlowTrace, t0: float, t1: float) -> float:
    """Congestion reactions per second over [t0, t1)."""
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    return trace.between(t0, t1).count("cc-loss") / (t1 - t0)


def coefficient_of_variation(values: Iterable[float]) -> float:
    """stddev/mean — used to check rate stability across windows."""
    vals = list(values)
    if not vals:
        raise ValueError("need at least one value")
    mean = sum(vals) / len(vals)
    if mean == 0:
        return 0.0
    var = sum((v - mean) ** 2 for v in vals) / len(vals)
    return math.sqrt(var) / mean
