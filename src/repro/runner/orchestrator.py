"""The experiment orchestrator: shard, cache, isolate, retry, report.

Tasks come from the experiment registry
(:func:`repro.experiments.registry.registered_specs`) or any list of
:class:`ExperimentSpec`.  Each run starts up to ``jobs`` worker
processes, one per slot, and hands each idle worker the next task;
results travel back over a pipe as plain dicts.  A worker whose task
raised, crashed or timed out is retired (terminated and joined), so a
failure never poisons the worker that runs the next task and a retry
always runs in a new process.  Failures are isolated: a failing task is
retried with backoff and, if it keeps failing, reported in the manifest
while its siblings run to completion.  Every worker is joined before
:meth:`Orchestrator.run` returns.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import os
import pickle
import struct
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import util
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Iterable, Sequence

from ..experiments.common import ExperimentResult, ExperimentSpec
from .cache import ResultCache, callable_id, source_fingerprint
from .events import RunnerEvent
from .manifest import build_manifest
from .tasks import TaskOutcome, worker_loop

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
class _Worker:
    slot: int  #: the ``worker`` id events and outcomes report
    process: Any
    conn: Any  #: the parent's end of the duplex pipe, non-blocking
    task: _Pending | None = None  #: None while idle
    started: float = 0.0
    inbox: bytearray = field(default_factory=bytearray)  #: unread reply


#: seconds an idle worker gets to exit on its own at the end of a run
#: before it is terminated
_EXIT_GRACE = 5.0


def _send(worker: _Worker, job: Any) -> bool:
    """Hand ``job`` to an idle worker; False if the worker is gone."""
    try:
        worker.conn.send(job)
    except OSError:
        return False
    return True


def _read_available(worker: _Worker) -> bool:
    """Append what the worker has written so far to its inbox without
    blocking; False once the pipe is at EOF."""
    while True:
        try:
            chunk = os.read(worker.conn.fileno(), 1 << 16)
        except BlockingIOError:
            return True
        except OSError:
            return False
        if not chunk:
            return False
        worker.inbox += chunk


def _pop_reply(inbox: bytearray) -> tuple[str, Any] | None:
    """Remove and unpickle the first complete reply in ``inbox``; None
    while it is still incomplete.  A reply is framed the way
    ``Connection.send`` frames it: a 4-byte big-endian length (-1 and
    an 8-byte length past 2 GiB), then the pickle."""
    if len(inbox) < 4:
        return None
    (size,) = struct.unpack_from("!i", inbox)
    start = 4
    if size == -1:
        if len(inbox) < 12:
            return None
        (size,) = struct.unpack_from("!Q", inbox, 4)
        start = 12
    end = start + size
    if len(inbox) < end:
        return None
    reply = pickle.loads(inbox[start:end])
    del inbox[:end]
    return reply


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

    def _start_worker(self, slot: int) -> _Worker:
        parent_conn, child_conn = multiprocessing.Pipe()
        # every worker forked from here on, this one included, drops
        # its inherited copy of the parent's end: a copy left open would
        # keep the worker behind it from ever reading EOF
        util.register_after_fork(parent_conn, Connection.close)
        process = multiprocessing.Process(
            target=worker_loop, args=(child_conn, self.extra_sys_path),
            daemon=True)
        process.start()
        child_conn.close()
        os.set_blocking(parent_conn.fileno(), False)
        return _Worker(slot=slot, process=process, conn=parent_conn)

    def _run_pool(self, by_index: dict[int, TaskOutcome],
                  todo: list[_Pending]) -> None:
        queue: deque[_Pending] = deque(todo)
        workers: dict[int, _Worker] = {}  #: slot -> live worker, lazily
        free = list(range(self.jobs))  #: slots without a task

        def retire(worker: _Worker) -> None:
            del workers[worker.slot]
            worker.process.terminate()
            worker.process.join()
            worker.conn.close()

        def dispatch(task: _Pending, slot: int) -> None:
            job = (task.spec.module, task.spec.func, task.kwargs)
            worker = workers.get(slot)
            if worker is not None and not _send(worker, job):
                retire(worker)  # died while idle: not this task's attempt
                worker = None
            if worker is None:
                worker = workers[slot] = self._start_worker(slot)
                worker.conn.send(job)
            self._emit("start", task.spec.id, worker=slot,
                       attempt=task.attempt)
            worker.task, worker.started = task, time.perf_counter()

        def settle(worker: _Worker, kind: str, payload: Any) -> None:
            task, wall = worker.task, time.perf_counter() - worker.started
            worker.task = None
            if kind != "ok":
                retire(worker)  # a retry always runs in a new process
            free.append(worker.slot)
            if kind == "ok":
                result = ExperimentResult.from_dict(payload)
                self._store(task, result)
                self._finish(by_index, task.index, TaskOutcome(
                    id=task.spec.id, status="ok", result=result,
                    attempts=task.attempt, wall_s=wall, worker=worker.slot,
                    result_digest=result.digest()))
                return
            if task.attempt <= self.retries:
                self._emit("retry", task.spec.id, worker=worker.slot,
                           attempt=task.attempt, wall_s=wall,
                           message=payload.get("type", ""))
                task.attempt += 1
                task.not_before = (time.perf_counter()
                                   + self.backoff * (task.attempt - 1))
                queue.append(task)
                return
            self._finish(by_index, task.index, TaskOutcome(
                id=task.spec.id, status="failed", error=payload,
                attempts=task.attempt, wall_s=wall, worker=worker.slot))

        def failure(kind: str, message: str) -> dict[str, str]:
            return {"type": kind, "message": message, "traceback": ""}

        try:
            while True:
                now = time.perf_counter()
                # hand free slots ready (backoff-expired) tasks
                for _ in range(len(queue)):
                    if not free:
                        break
                    task = queue.popleft()
                    if task.not_before > now:
                        queue.append(task)
                        continue
                    dispatch(task, free.pop())
                running = [worker for worker in workers.values()
                           if worker.task is not None]
                if not (queue or running):
                    break

                # block until a worker writes or exits, a running task
                # times out or, with a slot free, a queued retry's
                # back-off ends
                deadlines = [task.not_before for task in queue] if free else []
                if self.timeout is not None:
                    deadlines += [worker.started + self.timeout
                                  for worker in running]
                ready = wait([handle for worker in running
                              for handle in (worker.conn,
                                             worker.process.sentinel)],
                             max(0.0, min(deadlines) - time.perf_counter())
                             if deadlines else None)
                for worker in running:
                    if worker.process.sentinel in ready:
                        # closed a moment before the exit status can be
                        # read: sit that out in waitpid, not in this loop
                        worker.process.join()
                    # liveness first: a worker seen dead here has already
                    # written whatever it will, so the read below is
                    # conclusive (the other order can miss a reply sent
                    # between the two calls and report a WorkerCrash)
                    alive = worker.process.is_alive()
                    # never block on a reply: a worker that stalls
                    # mid-write leaves a partial frame in its inbox and
                    # meets its timeout like any other hung task
                    open_ = _read_available(worker)
                    reply = _pop_reply(worker.inbox)
                    if reply is not None:
                        settle(worker, *reply)
                    elif not alive:
                        settle(worker, "error", failure(
                            "WorkerCrash", f"worker exited with code "
                                           f"{worker.process.exitcode}"))
                    elif not open_:
                        settle(worker, "error", failure(
                            "WorkerCrash", "worker closed the pipe before "
                                           "sending a result"))
                    elif (self.timeout is not None
                          and time.perf_counter() - worker.started
                          > self.timeout):
                        self._emit("timeout", worker.task.spec.id,
                                   worker=worker.slot,
                                   attempt=worker.task.attempt,
                                   wall_s=time.perf_counter()
                                   - worker.started)
                        settle(worker, "error", failure(
                            "TaskTimeout", f"exceeded the per-task timeout "
                                           f"of {self.timeout}s"))
        finally:
            # idle workers are told to exit and given a moment; a busy
            # one (only when something raised out of the loop) is not
            idle = [worker for worker in workers.values()
                    if worker.task is None and _send(worker, None)]
            for worker in idle:
                worker.process.join(_EXIT_GRACE)
            for worker in list(workers.values()):
                retire(worker)
