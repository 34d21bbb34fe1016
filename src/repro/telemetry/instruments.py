"""Metric instruments: histograms and time series.

Everything here is sized for *in-simulation* instrumentation: values
come off the deterministic event loop, so reservoirs must stay
deterministic too.  Bounded storage uses stride decimation — when a
reservoir fills, every other retained sample is dropped and the
sampling stride doubles — which keeps memory O(max_samples) for
arbitrarily long runs while remaining a pure function of the observed
sequence (no RNG, no wall clock; identical runs yield identical
reservoirs).
"""

from __future__ import annotations

from typing import Any, Optional

__all__ = ["Histogram", "TimeSeries"]

#: default reservoir capacity (samples or points) per instrument
DEFAULT_RESERVOIR = 512


class Histogram:
    """A distribution with exact count/sum/min/max and a bounded,
    deterministic reservoir for percentile estimates.

    The reservoir keeps every ``stride``-th observation; on overflow it
    drops every other retained sample and doubles the stride, so it is
    always a uniform-in-index subsample of the full stream.
    """

    __slots__ = ("name", "count", "total", "min", "max",
                 "max_samples", "_samples", "_stride", "_phase")

    def __init__(self, name: str, max_samples: int = DEFAULT_RESERVOIR):
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.max_samples = max_samples
        self._samples: list[float] = []
        self._stride = 1
        self._phase = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._phase += 1
        if self._phase >= self._stride:
            self._phase = 0
            self._samples.append(value)
            if len(self._samples) >= self.max_samples:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile over the reservoir (q in [0, 100])."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
        return ordered[max(rank, 0)]

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean}>"


class TimeSeries:
    """(time, value) samples with the same stride-decimated bound.

    Built for sim-clock probes: `append` is called at a fixed simulated
    interval, and the reservoir thins itself to at most ``max_points``
    while preserving uniform temporal coverage of the whole run.
    """

    __slots__ = ("name", "count", "max_points", "_points", "_stride", "_phase")

    def __init__(self, name: str, max_points: int = DEFAULT_RESERVOIR):
        if max_points < 2:
            raise ValueError("max_points must be >= 2")
        self.name = name
        self.count = 0
        self.max_points = max_points
        self._points: list[tuple[float, float]] = []
        self._stride = 1
        self._phase = 0

    def append(self, t: float, value: float) -> None:
        self.count += 1
        self._phase += 1
        if self._phase >= self._stride:
            self._phase = 0
            self._points.append((t, value))
            if len(self._points) >= self.max_points:
                self._points = self._points[::2]
                self._stride *= 2

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(self._points)

    def last(self) -> Optional[tuple[float, float]]:
        return self._points[-1] if self._points else None

    def snapshot(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "stride": self._stride,
            "points": [[t, v] for t, v in self._points],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TimeSeries {self.name} n={self.count}>"
