"""Run manifests: the machine-readable record of one run.

The manifest separates *what was computed* from *how long it took*:
``results_digest`` covers only (experiment id, result digest) pairs in
id order, so two runs of the same registry at the same scale produce
byte-identical digests regardless of ``-j``, worker assignment, cache
hits, or wall time.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Any

from ..experiments.common import canonical_json
from .tasks import TaskOutcome

#: v3: a top-level ``studies`` object, ``{name: block}``, in place of
#: v2's one optional ``sweep`` block: each study among a run's entries
#: gets the block a sweep used to (its spec, each task's axis
#: assignment and the tables aggregated from its cells; see
#: :mod:`repro.sweep.run`), and a run with no study has ``{}``.  Every
#: other key is v2's.
MANIFEST_SCHEMA = "pgmcc.run-manifest/v3"


def results_digest(outcomes: list[TaskOutcome]) -> str:
    """Digest of the deterministic content of a run."""
    pairs = sorted((o.id, o.result_digest) for o in outcomes)
    return hashlib.sha256(canonical_json(pairs).encode()).hexdigest()


def build_manifest(outcomes: list[TaskOutcome], *, run_id: str, scale: float,
                   jobs: int, cache_enabled: bool, source_digest: str,
                   wall_s: float) -> dict[str, Any]:
    ok = sum(1 for o in outcomes if o.status == "ok")
    failed = sum(1 for o in outcomes if o.status == "failed")
    hits = sum(1 for o in outcomes if o.cache_hit)
    # a cache hit's wall time is a read, not a computation: the
    # sequential cost is that of the tasks that ran
    ran = [o.wall_s for o in outcomes if not o.cache_hit]
    serial = sum(ran)
    return {
        "schema": MANIFEST_SCHEMA,
        "run_id": run_id,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "scale": scale,
        "jobs": jobs,
        "cache_enabled": cache_enabled,
        "source_digest": source_digest,
        "tasks": [o.to_dict() for o in outcomes],
        "totals": {
            "tasks": len(outcomes),
            "ok": ok,
            "failed": failed,
            "cache_hits": hits,
            "wall_s": round(wall_s, 3),
            #: sum of the wall times of the tasks that ran (not served
            #: from cache) = their sequential cost
            "serial_wall_s": round(serial, 3),
            #: None when no task ran
            "speedup": round(serial / wall_s, 2) if ran and wall_s > 0 else None,
        },
        "results_digest": results_digest(outcomes),
        #: filled by :func:`repro.sweep.run.run_entries`
        "studies": {},
    }


def save_manifest(manifest: dict[str, Any], path: os.PathLike | str) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(path: os.PathLike | str) -> dict[str, Any]:
    return json.loads(Path(path).read_text())


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
