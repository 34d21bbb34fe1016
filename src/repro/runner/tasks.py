"""Task model: spawn-safe descriptors, outcomes, and the worker loop.

A task is an :class:`~repro.experiments.common.ExperimentSpec` plus the
sweep-wide scale.  Workers never receive callables — only the module
and function *names* — so descriptors survive any multiprocessing
start method (``fork`` and ``spawn`` alike).  A worker runs jobs one
after another until it is told to stop or a job fails: it never runs
anything after an error, so the orchestrator gives every retry a new
process.
"""

from __future__ import annotations

import importlib
import sys
import traceback
from dataclasses import dataclass
from typing import Any

from ..experiments.common import ExperimentResult


def error_info(exc: BaseException) -> dict[str, str]:
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


@dataclass
class TaskOutcome:
    """Final state of one task after retries and cache lookups."""

    id: str
    status: str  #: ``"ok"`` or ``"failed"``
    #: the result's normal form (:meth:`ExperimentResult.to_dict`): the
    #: worker's reply or the cache entry, embedded in the manifest as is
    result: dict[str, Any] | None = None
    error: dict[str, str] | None = None
    attempts: int = 0
    wall_s: float = 0.0
    worker: int | None = None
    cache_hit: bool = False
    result_digest: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Manifest entry.  Deterministic content (result, digest) and
        telemetry (wall time, worker, attempts) side by side; the
        manifest's ``results_digest`` covers only the former."""
        return {
            "id": self.id,
            "status": self.status,
            "attempts": self.attempts,
            "wall_s": round(self.wall_s, 3),
            "worker": self.worker,
            "cache_hit": self.cache_hit,
            "result_digest": self.result_digest,
            "error": self.error,
            "result": self.result,
        }


def worker_loop(conn, extra_sys_path: list[str]) -> None:
    """Worker-process entry: receive ``(module, func, kwargs)`` jobs on
    the duplex pipe ``conn``, import, run, answer each with ``("ok",
    result dict)`` or ``("error", error_info)``.

    Returns on EOF, on a ``None`` job, and right after sending an
    error: any exception (including SystemExit from the experiment)
    ends the worker, so nothing runs in a process a failure may have
    left in a bad state.  A worker that dies before answering is
    detected by the parent via the exit code.
    """
    for entry in reversed(extra_sys_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    try:
        while True:
            try:
                job = conn.recv()
            except EOFError:
                return
            if job is None:
                return
            module, func, kwargs = job
            try:
                fn = getattr(importlib.import_module(module), func)
                result = fn(**kwargs)
                if not isinstance(result, ExperimentResult):
                    raise TypeError(
                        f"{module}.{func} returned {type(result).__name__}, "
                        "expected ExperimentResult"
                    )
                conn.send(("ok", result.to_dict()))
            except BaseException as exc:  # noqa: BLE001 - isolation boundary
                try:
                    conn.send(("error", error_info(exc)))
                except OSError:
                    pass
                return
    finally:
        try:
            conn.close()
        except OSError:
            pass
