"""`repro.runner` — parallel experiment orchestration.

The evaluation pipeline (the experiment registry in
``repro.experiments.registry``) is a set of
independent, deterministic simulations — exactly the shape that shards
across cores.  This package provides:

* :class:`Orchestrator` — runs :class:`ExperimentSpec` tasks across up
  to ``jobs`` long-lived worker processes with per-task timeouts, one
  retry with backoff, and failure isolation (a dead task never kills
  the sweep, and the worker it ran in never runs another);
* :class:`ResultCache` — a content-addressed on-disk store keyed by
  (experiment, kwargs, source fingerprint), shared between runner
  and sweep invocations;
* run manifests (``pgmcc.run-manifest/v3``);
* the ``python -m repro.runner`` CLI, over experiment and study ids or
  one ``repro.sweep`` spec file.

See ``docs/API.md`` for the task model, cache key, and schemas.
"""

from .cache import (CACHE_SCHEMA, DEFAULT_CACHE_DIR, ResultCache,
                    callable_id, source_fingerprint, task_digest)
from .events import RunnerEvent, event_printer
from .manifest import (MANIFEST_SCHEMA, build_manifest, load_manifest,
                       results_digest, save_manifest,
                       session_metrics_from_manifest)
from .orchestrator import Orchestrator, auto_jobs
from .tasks import TaskOutcome, error_info, worker_loop

__all__ = [
    "CACHE_SCHEMA",
    "DEFAULT_CACHE_DIR",
    "MANIFEST_SCHEMA",
    "Orchestrator",
    "ResultCache",
    "RunnerEvent",
    "TaskOutcome",
    "auto_jobs",
    "build_manifest",
    "callable_id",
    "error_info",
    "event_printer",
    "load_manifest",
    "results_digest",
    "save_manifest",
    "session_metrics_from_manifest",
    "source_fingerprint",
    "task_digest",
    "worker_loop",
]
