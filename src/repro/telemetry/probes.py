"""Sim-clock sampling probes.

A :class:`TimeSeriesProbe` samples a set of zero-argument callables
into :class:`~repro.telemetry.instruments.TimeSeries` reservoirs at a
fixed *simulated* interval.  Sampling events ride the normal event
heap: they read state, never mutate it, and draw from no RNG stream,
so attaching a probe cannot change protocol behaviour — only
``events_processed`` grows.  ``stop()`` cancels the timer, which
sessions call from ``close()`` so a finished session leaves the heap
drainable.
"""

from __future__ import annotations

from typing import Any, Callable

from ..simulator.engine import Simulator, Timer

__all__ = ["TimeSeriesProbe"]


class TimeSeriesProbe:
    """Periodic sampler bound to a registry's time series."""

    def __init__(self, sim: Simulator, registry: Any, interval: float):
        if interval <= 0:
            raise ValueError("probe interval must be positive")
        self.sim = sim
        self.registry = registry
        self.interval = interval
        self.samples_taken = 0
        self._sources: list[tuple[Any, Callable[[], float]]] = []
        self._timer = Timer(sim, self._fire)
        registry.add_probe(self)

    def sample(self, name: str, fn: Callable[[], float]) -> "TimeSeriesProbe":
        """Add a series: ``fn()`` is recorded under ``name`` each tick."""
        series = self.registry.timeseries(name)
        self._sources.append((series, fn))
        return self

    def start(self, delay: float | None = None) -> "TimeSeriesProbe":
        """Arm the first tick ``delay`` (default: one interval) from now."""
        self._timer.restart(self.interval if delay is None else delay)
        return self

    def stop(self) -> None:
        self._timer.cancel()

    @property
    def running(self) -> bool:
        return self._timer.armed

    def _fire(self) -> None:
        now = self.sim.now
        for series, fn in self._sources:
            series.append(now, fn())
        self.samples_taken += 1
        self._timer.restart(self.interval)
