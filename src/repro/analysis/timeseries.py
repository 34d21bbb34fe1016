"""Binned time series from flow traces.

The bandwidth-vs-time curves of Figs. 5 and 7 are produced by binning
the data-transmission records of a trace; plateau detection extracts
the rate levels those figures are read by.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..simulator.trace import FlowTrace


@dataclass(frozen=True)
class Bin:
    """One time bin of a bandwidth series."""

    t_start: float
    t_end: float
    bits: int

    @property
    def rate_bps(self) -> float:
        return self.bits / (self.t_end - self.t_start)

    @property
    def midpoint(self) -> float:
        return (self.t_start + self.t_end) / 2.0


def bandwidth_series(
    trace: FlowTrace,
    t0: float,
    t1: float,
    bin_width: float,
    kinds: tuple[str, ...] = ("data",),
) -> list[Bin]:
    """Payload bandwidth in fixed-width bins over [t0, t1)."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    n_bins = max(1, int(round((t1 - t0) / bin_width)))
    bits = [0] * n_bins
    wanted = set(kinds)
    for record in trace.between(t0, t1):
        if record.kind not in wanted:
            continue
        index = min(n_bins - 1, int((record.time - t0) / bin_width))
        bits[index] += record.nbytes * 8
    return [
        Bin(t0 + i * bin_width, t0 + (i + 1) * bin_width, b)
        for i, b in enumerate(bits)
    ]


def mean_rate(bins: list[Bin]) -> float:
    """Average rate across bins (equal-width assumed)."""
    if not bins:
        raise ValueError("need at least one bin")
    return sum(b.rate_bps for b in bins) / len(bins)


def plateau_rate(
    trace: FlowTrace, t0: float, t1: float, bin_width: float = 5.0
) -> float:
    """Median bin rate over a window — robust plateau estimate.

    The figures are read by their flat segments; the median resists
    the transients at window edges.
    """
    bins = bandwidth_series(trace, t0, t1, bin_width)
    rates = sorted(b.rate_bps for b in bins)
    n = len(rates)
    if n % 2:
        return rates[n // 2]
    return (rates[n // 2 - 1] + rates[n // 2]) / 2.0


def cumulative_bytes(trace: FlowTrace, kinds: tuple[str, ...] = ("data",)) -> list[tuple[float, int]]:
    """The paper's time/sequence curve: cumulative payload bytes."""
    wanted = set(kinds)
    total = 0
    series = []
    for record in trace:
        if record.kind in wanted:
            total += record.nbytes
            series.append((record.time, total))
    return series
