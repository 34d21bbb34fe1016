"""Unified telemetry: metric registries, instruments, views, probes.

The layer every figure in the paper is read off: protocol components
expose their state through per-session :class:`MetricsRegistry`
objects (``PgmSession.metrics``), exported as versioned
``pgmcc.session-metrics/v1`` documents that flow through experiment
results and runner manifests.

Public surface::

    from repro.telemetry import (
        MetricsRegistry, METRICS_SCHEMA,
        Histogram, TimeSeries, TimeSeriesProbe,
    )

Design rules:

* hot-path counters stay plain attributes; registries *pull* them via
  ``bind(name, fn)`` at snapshot time — instrumentation adds nothing
  to the paths that increment them;
* push instruments (histograms, series) are reserved for low-rate
  events;
* what a component already logs is read off its log by a view
  (``add_view``), never tallied a second time beside it;
* every recorded value derives from simulated state, never wall time,
  so exports are deterministic and digest-stable across ``-j``;
* bounded reservoirs (stride decimation) cap memory for arbitrarily
  long runs without sacrificing determinism.

There is one backend and it is always on; what it costs a real session
is read off ``benchmarks/perf`` (the ``telemetry`` layer and
``probe.telemetry.export_ms``).
"""

from .instruments import Histogram, TimeSeries
from .probes import TimeSeriesProbe
from .registry import METRICS_SCHEMA, MetricsRegistry

__all__ = [
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "Histogram",
    "TimeSeries",
    "TimeSeriesProbe",
]
