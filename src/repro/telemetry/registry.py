"""The metrics registry.

A :class:`MetricsRegistry` is the single container every protocol
component writes into (or is *read from* — see below) for one session,
flow, or network.  Values come in three flavours:

* **push** instruments (``histogram`` / ``timeseries``): get-or-create
  by name, written by the component itself.  Used only for low-rate
  events (repair completions, probe ticks).
* **pull** bindings (``bind(name, fn)``): a zero-argument callable
  sampled at :meth:`snapshot` time.  Every counter and gauge is one:
  the plain-attribute counters (``sender.odata_sent`` and friends)
  are exported without adding a single instruction to the paths that
  increment them — the registry reads the attribute when asked.
* **views** (``add_view(fn)``): export sections read off a record
  stream once per :meth:`snapshot` — a PGM session's ``spans`` and
  more come from the sender's log (:mod:`repro.pgm.telemetry`).

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
      "gauges": {name: number},         # pull-bound or a view's
      "histograms": {name: {count, total, min, max, mean, p50, p90, p99}},
      "series": {name: {count, stride, points: [[t, v], ...]}},
      "spans": {"stats": {name: {count, total_s, mean_s, max_s}},
                 "open": [name, ...]}    # a view's
    }

Every value derives from simulated state (sim clock, protocol
counters), never from wall time, so the document is deterministic for
a fixed seed and digest-stable across ``-j1`` / ``-jN`` runner sweeps.
"""

from __future__ import annotations

from typing import Any, Callable

from .instruments import Histogram, TimeSeries

METRICS_SCHEMA = "pgmcc.session-metrics/v1"

__all__ = ["METRICS_SCHEMA", "MetricsRegistry"]


class MetricsRegistry:
    """Per-session metric container (see module docstring)."""

    def __init__(self) -> None:
        self._histograms: dict[str, Histogram] = {}
        self._series: dict[str, TimeSeries] = {}
        #: pull bindings: name -> (kind, fn)
        self._bindings: dict[str, tuple[str, Callable[[], float]]] = {}
        self._probes: list[Any] = []
        self._views: list[Callable[[], dict[str, Any]]] = []
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

    def add_view(self, fn: Callable[[], dict[str, Any]]) -> None:
        """Register ``fn``, called once per :meth:`snapshot`; the
        ``{section: {name: value}}`` it returns is merged in."""
        self._views.append(fn)

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
        snap: dict[str, dict[str, Any]] = {
            "counters": {},
            "gauges": {},
            "histograms": {name: h.snapshot()
                           for name, h in self._histograms.items()},
            "series": {name: s.snapshot()
                       for name, s in self._series.items()},
            "spans": {"stats": {}, "open": []},
        }
        for name, (kind, fn) in self._bindings.items():
            snap[f"{kind}s"][name] = fn()  # "counters" / "gauges"
        for view in self._views:
            for section, values in view().items():
                snap[section].update(values)
        for section in ("counters", "gauges", "histograms", "series"):
            snap[section] = dict(sorted(snap[section].items()))
        return snap

    def export(self, **meta: Any) -> dict[str, Any]:
        """The versioned ``pgmcc.session-metrics/v1`` document."""
        doc: dict[str, Any] = {
            "schema": METRICS_SCHEMA,
            "enabled": True,
            "meta": {**self.meta, **meta},
        }
        doc.update(self.snapshot())
        return doc
