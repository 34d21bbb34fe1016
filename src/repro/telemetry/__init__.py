"""Unified telemetry: metric registries, instruments, spans, probes.

The layer every figure in the paper is read off: protocol components
expose their state through per-session :class:`MetricsRegistry`
objects (``PgmSession.metrics``), exported as versioned
``pgmcc.session-metrics/v1`` documents that flow through experiment
results and runner manifests.

Public surface::

    from repro.telemetry import (
        MetricsRegistry, METRICS_SCHEMA,
        Histogram, TimeSeries,
        SpanTracker, TimeSeriesProbe,
    )

Design rules:

* hot-path counters stay plain attributes; registries *pull* them via
  ``bind(name, fn)`` at snapshot time — instrumentation adds nothing
  to the paths that increment them;
* push instruments (histograms, spans, series) are reserved for
  low-rate events;
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
from .registry import METRICS_SCHEMA, MetricsRegistry, SpanTracker

__all__ = [
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "SpanTracker",
    "Histogram",
    "TimeSeries",
    "TimeSeriesProbe",
]
