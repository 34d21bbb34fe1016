"""Perf-trajectory artifacts (``BENCH_RESULTS.json``) from manifests.

Schema ``pgmcc.bench-results/v1``::

    {
      "schema": "pgmcc.bench-results/v1",
      "run_id": "...",            # run that produced the wall times
      "date": "YYYY-mm-ddTHH:MM:SS+ZZZZ",
      "host": {"python": "...", "platform": "...", "cpus": N},
      "scale": float,             # sweep scale the wall times refer to
      "benches": [                # one entry per experiment task
        {"id": "EXP-F2", "wall_s": 1.23, "status": "ok",
         "cache_hit": false}
      ],
      "session_metrics": [        # protocol health, one entry per task
        {"id": "EXP-F5", "schema": "pgmcc.session-metrics/v1",
         "meta": {...}, "counters": {...}, "gauges": {...},
         "spans": {...}}          # that shipped a session-metrics doc
      ],
      "scale_metrics": {          # hybrid scale ladder (EXP-SCALE)
        "1000": {"receivers_per_sec": ..., "bytes_per_receiver": ...,
                 "peak_rss_mb": ..., "wall_s": ..., "rate": ...,
                 "invariant_violations": 0}, ...
      },
      "totals": {...}             # copied from the manifest
    }

The artifact records what one sweep observed — per-task ``wall_s``
(cache hits report the cache-load time and are flagged), protocol
health and the hybrid scale series that :mod:`repro.runner.perf_gate`
gates.  It is not the repo's benchmark: code is timed by
``benchmarks/perf`` only.
"""

from __future__ import annotations

import os
import platform
from typing import Any

BENCH_SCHEMA = "pgmcc.bench-results/v1"


def memory_probe() -> dict[str, int]:
    """Current and peak process memory plus live-object count.

    Linux-first: current RSS from ``/proc/self/status`` (``VmRSS``),
    peak from ``getrusage`` (``ru_maxrss`` is KB on Linux).  Keys are
    bytes.  Used by the hybrid scale cells to report bytes-per-receiver
    and by the CI scale-smoke budget.
    """
    import gc
    import resource

    rss = 0
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    rss = int(line.split()[1]) * 1024
                    break
    except OSError:  # pragma: no cover - non-Linux fallback
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    if rss == 0:  # pragma: no cover - non-Linux fallback
        rss = peak
    return {
        "rss_bytes": rss,
        "peak_rss_bytes": peak,
        "live_objects": len(gc.get_objects()),
    }


def scale_series_from_manifest(manifest: dict[str, Any]
                               ) -> dict[str, dict[str, Any]]:
    """Lift the hybrid scale series out of a manifest.

    Returns ``{"<n>": {receivers_per_sec, bytes_per_receiver,
    peak_rss_mb, wall_s, rate, invariant_violations}}`` for every
    ``hyb{n}:*`` metric group found in embedded results (EXP-SCALE's
    hybrid ladder).  Empty when the run had no hybrid cells.
    """
    series: dict[str, dict[str, Any]] = {}
    wanted = ("receivers_per_sec", "bytes_per_receiver", "peak_rss_mb",
              "wall_s", "rate", "invariant_violations")
    for task in manifest.get("tasks", ()):
        result = task.get("result") or {}
        # Deterministic protocol metrics live in ``metrics``; measured
        # wall/RSS values travel in the digest-excluded ``perf`` dict.
        for source in (result.get("metrics") or {}, result.get("perf") or {}):
            for key, value in source.items():
                if not key.startswith("hyb") or ":" not in key:
                    continue
                prefix, metric = key.split(":", 1)
                if metric not in wanted:
                    continue
                series.setdefault(prefix[3:], {})[metric] = value
    return dict(sorted(series.items(), key=lambda kv: int(kv[0])))


def session_metrics_from_manifest(manifest: dict[str, Any]
                                  ) -> list[dict[str, Any]]:
    """Pull every ``pgmcc.session-metrics/v1`` document out of a
    manifest's embedded results, in task order.  Each entry carries the
    experiment id alongside the document."""
    docs = []
    for task in manifest.get("tasks", ()):
        result = task.get("result") or {}
        telemetry = result.get("telemetry")
        if telemetry is not None:
            docs.append({"id": task["id"], **telemetry})
    return docs


def bench_results_from_manifest(manifest: dict[str, Any]) -> dict[str, Any]:
    """Derive the perf-trajectory artifact from a run manifest."""
    return {
        "schema": BENCH_SCHEMA,
        "run_id": manifest["run_id"],
        "date": manifest["created"],
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "scale": manifest["scale"],
        "benches": [
            {
                "id": task["id"],
                "wall_s": task["wall_s"],
                "status": task["status"],
                "cache_hit": task["cache_hit"],
            }
            for task in manifest["tasks"]
        ],
        # Protocol health next to perf: counters/gauges/spans of every
        # shipped session-metrics document (series/histogram reservoirs
        # stay in the manifest — this artifact is the compact view).
        "session_metrics": [
            {k: doc[k] for k in
             ("id", "schema", "enabled", "meta", "counters", "gauges", "spans")
             if k in doc}
            for doc in session_metrics_from_manifest(manifest)
        ],
        # Receivers-per-second / bytes-per-receiver trajectory of the
        # hybrid scale ladder (empty when EXP-SCALE didn't run).
        # Additive key: the schema stays at v1 per the API.md rules.
        "scale_metrics": scale_series_from_manifest(manifest),
        "totals": manifest["totals"],
    }
