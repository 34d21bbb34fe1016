"""The metrics registry.

A :class:`MetricsRegistry` is the single container every protocol
component writes into (or is *read from* — see below) for one session,
flow, or network.  Values come in two flavours:

* **push** instruments (``histogram`` / ``timeseries``, and the span
  tracker): get-or-create by name, written by the component itself.
  Used only for low-rate events (repair completions, span edges,
  probe ticks).
* **pull** bindings (``bind(name, fn)``): a zero-argument callable
  sampled at :meth:`snapshot` time.  Every counter and gauge is one:
  the plain-attribute counters (``sender.odata_sent`` and friends)
  are exported without adding a single instruction to the paths that
  increment them — the registry reads the attribute when asked.

Sim-clock sampling probes (:class:`~repro.telemetry.probes
.TimeSeriesProbe`) register themselves via :meth:`add_probe` so
:meth:`close` can cancel their timers (sessions must leave the event
heap drainable on close).

Export schema ``pgmcc.session-metrics/v1`` (:meth:`MetricsRegistry
.export`)::

    {
      "schema": "pgmcc.session-metrics/v1",
      "enabled": true,                  # constant, kept for v1 readers
      "meta": {...},                    # tsi, group, caller-supplied
      "counters": {name: int},          # pull-bound
      "gauges": {name: number},         # pull-bound
      "histograms": {name: {count, total, min, max, mean, p50, p90, p99}},
      "series": {name: {count, stride, points: [[t, v], ...]}},
      "spans": {"stats": {name: {count, total_s, mean_s, max_s}},
                 "open": [name, ...]}
    }

Every value derives from simulated state (sim clock, protocol
counters), never from wall time, so the document is deterministic for
a fixed seed and digest-stable across ``-j1`` / ``-jN`` runner sweeps.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .instruments import Histogram, TimeSeries

METRICS_SCHEMA = "pgmcc.session-metrics/v1"

__all__ = ["METRICS_SCHEMA", "MetricsRegistry", "SpanTracker"]


class SpanTracker:
    """Named interval timing on an external (simulated) clock.

    ``begin``/``end`` take the current time explicitly so the tracker
    works with any clock source and stays trivially deterministic.
    ``begin`` on an open span restarts it; ``end`` without a matching
    ``begin`` is a no-op — protocol phase edges (slow start ending,
    recovery re-entered) are naturally idempotent that way.
    """

    __slots__ = ("_open", "_stats")

    def __init__(self) -> None:
        self._open: dict[str, float] = {}
        #: name -> [count, total, max]
        self._stats: dict[str, list[float]] = {}

    def begin(self, name: str, now: float) -> None:
        self._open[name] = now

    def end(self, name: str, now: float) -> None:
        started = self._open.pop(name, None)
        if started is None:
            return
        elapsed = now - started
        stats = self._stats.get(name)
        if stats is None:
            self._stats[name] = [1, elapsed, elapsed]
        else:
            stats[0] += 1
            stats[1] += elapsed
            if elapsed > stats[2]:
                stats[2] = elapsed

    def close_all(self, now: float) -> None:
        """End every open span (session teardown)."""
        for name in list(self._open):
            self.end(name, now)

    @property
    def open(self) -> list[str]:
        return sorted(self._open)

    def stats(self, name: str) -> Optional[dict[str, float]]:
        stats = self._stats.get(name)
        if stats is None:
            return None
        count, total, peak = stats
        return {"count": int(count), "total_s": total,
                "mean_s": total / count, "max_s": peak}

    def snapshot(self) -> dict[str, Any]:
        return {
            "stats": {name: self.stats(name) for name in sorted(self._stats)},
            "open": self.open,
        }


class MetricsRegistry:
    """Per-session metric container (see module docstring)."""

    def __init__(self) -> None:
        self._histograms: dict[str, Histogram] = {}
        self._series: dict[str, TimeSeries] = {}
        #: pull bindings: name -> (kind, fn)
        self._bindings: dict[str, tuple[str, Callable[[], float]]] = {}
        self._probes: list[Any] = []
        self.spans = SpanTracker()
        #: identification fields copied into the export document
        self.meta: dict[str, Any] = {}

    # -- push instruments (get-or-create) ------------------------------

    def histogram(self, name: str, max_samples: int = 512) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, max_samples)
        return inst

    def timeseries(self, name: str, max_points: int = 512) -> TimeSeries:
        inst = self._series.get(name)
        if inst is None:
            inst = self._series[name] = TimeSeries(name, max_points)
        return inst

    # -- pull bindings --------------------------------------------------

    def bind(self, name: str, fn: Callable[[], float],
             kind: str = "counter") -> None:
        """Register ``fn`` to be sampled into ``name`` at snapshot time.

        ``kind`` is ``"counter"`` (monotone count) or ``"gauge"``
        (point-in-time value) — it only decides which export section
        the value lands in.
        """
        if kind not in ("counter", "gauge"):
            raise ValueError(f"unknown binding kind {kind!r}")
        self._bindings[name] = (kind, fn)

    # -- probes ---------------------------------------------------------

    def add_probe(self, probe: Any) -> Any:
        """Track a sampling probe so :meth:`close` stops it."""
        self._probes.append(probe)
        return probe

    def close(self) -> None:
        """Stop every sampling probe (cancels their timers)."""
        for probe in self._probes:
            probe.stop()

    # -- export ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        for name, (kind, fn) in self._bindings.items():
            (counters if kind == "counter" else gauges)[name] = fn()
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": {name: h.snapshot()
                           for name, h in sorted(self._histograms.items())},
            "series": {name: s.snapshot()
                       for name, s in sorted(self._series.items())},
            "spans": self.spans.snapshot(),
        }

    def export(self, **meta: Any) -> dict[str, Any]:
        """The versioned ``pgmcc.session-metrics/v1`` document."""
        doc: dict[str, Any] = {
            "schema": METRICS_SCHEMA,
            "enabled": True,
            "meta": {**self.meta, **meta},
        }
        doc.update(self.snapshot())
        return doc
