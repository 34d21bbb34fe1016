"""The experiment orchestrator: shard, cache, isolate, retry, report.

Tasks come from the experiment registry
(:func:`repro.experiments.registry.registered_specs`) or any list of
:class:`ExperimentSpec`.  Each runs in its own worker process
(one process per attempt, so a crash or hang never poisons a pool
worker); results travel back over a pipe as plain dicts.  Failures are
isolated: a raising, crashing or hung task is retried with backoff and,
if it keeps failing, reported in the manifest while its siblings run to
completion.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Iterable, Sequence

from ..experiments.common import ExperimentResult, ExperimentSpec
from .cache import ResultCache, callable_id, source_fingerprint
from .events import RunnerEvent
from .manifest import build_manifest
from .tasks import TaskOutcome, child_entry

__all__ = ["Orchestrator", "auto_jobs", "jobs_arg", "retries_arg",
           "scale_arg", "timeout_arg"]


def auto_jobs() -> int:
    return os.cpu_count() or 1


def _parsed(text: str, parse: Callable, accept: Callable, expected: str):
    """``parse(text)`` when it parses and ``accept`` holds; anything
    else is the usage error argparse prints and exits 2 on."""
    try:
        value = parse(text)
    except ValueError:
        value = None
    if value is None or not accept(value):
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return value


def jobs_arg(text: str) -> int:
    """argparse ``type=`` for ``-j``: ``auto`` (one worker per core)
    or an integer >= 1."""
    if text == "auto":
        return auto_jobs()
    return _parsed(text, int, lambda jobs: jobs >= 1,
                   "'auto' or an integer >= 1")


def scale_arg(text: str) -> float:
    """argparse ``type=`` for ``--scale``: a finite float > 0."""
    return _parsed(text, float, lambda scale: 0 < scale < math.inf,
                   "a finite number > 0")


def timeout_arg(text: str) -> float:
    """argparse ``type=`` for ``--timeout``: a finite number of seconds
    >= 0 (0 disables)."""
    return _parsed(text, float, lambda timeout: 0 <= timeout < math.inf,
                   "a finite number >= 0 (0 disables)")


def retries_arg(text: str) -> int:
    """argparse ``type=`` for ``--retries``: an integer >= 0."""
    return _parsed(text, int, lambda retries: retries >= 0,
                   "an integer >= 0")


@dataclass
class _Pending:
    index: int
    spec: ExperimentSpec
    kwargs: dict[str, Any]
    digest: str | None
    attempt: int = 1  #: attempt about to run (1-based)
    not_before: float = 0.0  #: monotonic time gate for retry backoff


@dataclass
class _Running:
    task: _Pending
    process: Any
    conn: Any
    worker: int
    started: float


class Orchestrator:
    """Run a list of :class:`ExperimentSpec` and produce a manifest."""

    def __init__(self, specs: Iterable[ExperimentSpec], *, scale: float = 1.0,
                 jobs: int = 1, cache: ResultCache | None = None,
                 timeout: float | None = None, retries: int = 1,
                 backoff: float = 0.5,
                 on_event: Callable[[RunnerEvent], None] | None = None,
                 extra_sys_path: Sequence[str] = ()):
        if not 0 < scale < math.inf:
            raise ValueError(f"scale must be finite and > 0, got {scale!r}")
        if timeout is not None and not 0 <= timeout < math.inf:
            raise ValueError(
                f"timeout must be finite and >= 0, got {timeout!r}")
        if not isinstance(retries, int) or retries < 0:
            raise ValueError(
                f"retries must be an integer >= 0, got {retries!r}")
        self.specs = list(specs)
        self.scale = scale
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.timeout = timeout or None  #: 0 disables, like None
        self.retries = retries
        self.backoff = backoff
        self.on_event = on_event
        self.extra_sys_path = list(extra_sys_path)
        self.outcomes: list[TaskOutcome] = []

    # -- telemetry ---------------------------------------------------

    def _emit(self, kind: str, task_id: str, **fields: Any) -> None:
        if self.on_event is not None:
            self.on_event(RunnerEvent(kind=kind, task_id=task_id, **fields))

    def _finish(self, slot: dict[int, TaskOutcome], index: int,
                outcome: TaskOutcome) -> None:
        slot[index] = outcome
        kind = "done" if outcome.status == "ok" else "failed"
        if outcome.cache_hit:
            kind = "cache-hit"
        self._emit(kind, outcome.id, worker=outcome.worker,
                   attempt=outcome.attempts, wall_s=outcome.wall_s,
                   message=(outcome.error or {}).get("type", ""))

    # -- public API --------------------------------------------------

    def run(self, run_id: str | None = None,
            sweep: dict[str, Any] | None = None) -> dict[str, Any]:
        """Execute every task; returns the run manifest (a dict).

        ``sweep`` is an optional manifest block describing the
        declarative spec this task list was expanded from (attached
        verbatim by ``repro.sweep``)."""
        started = time.perf_counter()
        # before any fork: the digest describes the tree workers inherit
        source = (self.cache.source_digest() if self.cache is not None
                  else source_fingerprint())
        by_index: dict[int, TaskOutcome] = {}
        todo: list[_Pending] = []

        # Validate every task against its declared parameter schema
        # *before* anything runs: a typo'd kwarg or out-of-range value
        # is a configuration error, reported as a clear TypeError /
        # ValueError up front rather than a traceback from mid-worker.
        for spec in self.specs:
            spec.validate_kwargs(spec.call_kwargs(self.scale))

        for index, spec in enumerate(self.specs):
            self._emit("queued", spec.id)
            kwargs = spec.call_kwargs(self.scale)
            digest = None
            if self.cache is not None:
                digest = self.cache.digest_for(
                    f"{spec.module}:{spec.func}", kwargs,
                    param_schema=spec.schema_doc() if spec.params else None)
                t0 = time.perf_counter()
                cached = self.cache.get(digest)
                if cached is not None:
                    self._finish(by_index, index, TaskOutcome(
                        id=spec.id, status="ok", result=cached,
                        attempts=0, wall_s=time.perf_counter() - t0,
                        cache_hit=True, result_digest=cached.digest()))
                    continue
            todo.append(_Pending(index, spec, kwargs, digest))

        self._run_pool(by_index, todo)

        self.outcomes = [by_index[i] for i in sorted(by_index)]
        wall = time.perf_counter() - started
        return build_manifest(
            self.outcomes,
            run_id=run_id or time.strftime("run-%Y%m%d-%H%M%S"),
            scale=self.scale, jobs=self.jobs,
            cache_enabled=self.cache is not None,
            source_digest=source, wall_s=wall, sweep=sweep)

    # -- execution ---------------------------------------------------

    def _store(self, task: _Pending, result: ExperimentResult) -> None:
        if self.cache is not None and task.digest is not None:
            self.cache.put(task.digest, result, meta={
                "experiment": callable_id(task.spec.resolve()),
                "id": task.spec.id,
            })

    def _spawn(self, task: _Pending, worker: int) -> _Running:
        parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=child_entry,
            args=(child_conn, task.spec.module, task.spec.func,
                  task.kwargs, self.extra_sys_path),
            daemon=True)
        process.start()
        child_conn.close()
        self._emit("start", task.spec.id, worker=worker, attempt=task.attempt)
        return _Running(task=task, process=process, conn=parent_conn,
                        worker=worker, started=time.perf_counter())

    def _run_pool(self, by_index: dict[int, TaskOutcome],
                  todo: list[_Pending]) -> None:
        queue: deque[_Pending] = deque(todo)
        running: dict[int, _Running] = {}
        free = list(range(self.jobs))

        def reap(run: _Running) -> None:
            run.process.join(timeout=5)
            try:
                run.conn.close()
            except OSError:
                pass
            del running[run.worker]
            free.append(run.worker)

        def settle(run: _Running, kind: str, payload: Any) -> None:
            task, wall = run.task, time.perf_counter() - run.started
            reap(run)
            if kind == "ok":
                result = ExperimentResult.from_dict(payload)
                self._store(task, result)
                self._finish(by_index, task.index, TaskOutcome(
                    id=task.spec.id, status="ok", result=result,
                    attempts=task.attempt, wall_s=wall, worker=run.worker,
                    result_digest=result.digest()))
                return
            if task.attempt <= self.retries:
                self._emit("retry", task.spec.id, worker=run.worker,
                           attempt=task.attempt, wall_s=wall,
                           message=payload.get("type", ""))
                task.attempt += 1
                task.not_before = (time.perf_counter()
                                   + self.backoff * (task.attempt - 1))
                queue.append(task)
                return
            self._finish(by_index, task.index, TaskOutcome(
                id=task.spec.id, status="failed", error=payload,
                attempts=task.attempt, wall_s=wall, worker=run.worker))

        while queue or running:
            now = time.perf_counter()
            # fill free workers with ready (backoff-expired) tasks
            for _ in range(len(queue)):
                if not free:
                    break
                task = queue.popleft()
                if task.not_before > now:
                    queue.append(task)
                    continue
                worker = free.pop()
                running[worker] = self._spawn(task, worker)

            # block until a worker writes or exits, a running task times
            # out or, with a worker free, a queued retry's back-off ends
            deadlines = [task.not_before for task in queue] if free else []
            if self.timeout is not None:
                deadlines += [run.started + self.timeout
                              for run in running.values()]
            ready = wait([handle for run in running.values()
                          for handle in (run.conn, run.process.sentinel)],
                         max(0.0, min(deadlines) - time.perf_counter())
                         if deadlines else None)
            for run in list(running.values()):
                if run.process.sentinel in ready:
                    # closed a moment before the exit status can be
                    # read: sit that out in waitpid, not in this loop
                    run.process.join()
                # liveness first: a worker seen dead here has already
                # written whatever it will, so the poll below is
                # conclusive (the other order can miss a result sent
                # between the two calls and report a WorkerCrash)
                alive = run.process.is_alive()
                if run.conn.poll(0):
                    try:
                        kind, payload = run.conn.recv()
                    except (EOFError, OSError):
                        kind, payload = "error", {
                            "type": "WorkerCrash",
                            "message": "worker closed the pipe before "
                                       "sending a result",
                            "traceback": "",
                        }
                    settle(run, kind, payload)
                elif not alive:
                    settle(run, "error", {
                        "type": "WorkerCrash",
                        "message": f"worker exited with code "
                                   f"{run.process.exitcode}",
                        "traceback": "",
                    })
                elif (self.timeout is not None
                      and time.perf_counter() - run.started > self.timeout):
                    run.process.terminate()
                    self._emit("timeout", run.task.spec.id, worker=run.worker,
                               attempt=run.task.attempt,
                               wall_s=time.perf_counter() - run.started)
                    settle(run, "error", {
                        "type": "TaskTimeout",
                        "message": f"exceeded the per-task timeout "
                                   f"of {self.timeout}s",
                        "traceback": "",
                    })
