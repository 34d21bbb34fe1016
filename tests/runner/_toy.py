"""Synthetic experiments for orchestrator tests.

Module-level functions so worker processes can import them by name
(the orchestrator receives ``module``/``func`` strings, never
callables).  All are pure functions of their kwargs, so results are
identical no matter which worker runs them, in which order.
"""

from __future__ import annotations

import os
import struct
import sys
import time
from multiprocessing.connection import Connection
from pathlib import Path

from repro.experiments.common import ExperimentResult


def run_ok(scale: float = 1.0, seed: int = 0, label: str = "toy") -> ExperimentResult:
    result = ExperimentResult(
        name=f"toy-{label}",
        params={"scale": scale, "seed": seed},
        expectation="deterministic toy output",
    )
    for i in range(3):
        result.add_row(step=i, value=seed * 100 + i * scale)
    result.metrics["value"] = seed * 100 + scale
    return result


def run_fail(scale: float = 1.0, message: str = "boom") -> ExperimentResult:
    raise ValueError(message)


def run_flaky(scale: float = 1.0, marker: str = "") -> ExperimentResult:
    """Fails on the first attempt (no marker file), succeeds after."""
    path = Path(marker)
    if not path.exists():
        path.write_text("attempted")
        raise RuntimeError("transient failure")
    return run_ok(scale=scale, label="flaky")


def run_sleep(scale: float = 1.0, seconds: float = 30.0) -> ExperimentResult:
    time.sleep(seconds)
    return run_ok(scale=scale, label="slept")


def run_hard_crash(scale: float = 1.0) -> ExperimentResult:
    os._exit(13)


def run_recording_pid(scale: float = 1.0, path: str = "",
                      then: str = "ok") -> ExperimentResult:
    """Write the worker's pid to ``path`` (outside the result, which
    stays a function of the kwargs), then return (``"ok"``), raise
    (``"raise"``), die without a word (``"crash"``) or hang
    (``"hang"``)."""
    Path(path).write_text(str(os.getpid()))
    if then == "raise":
        raise RuntimeError("raised after recording the pid")
    if then == "crash":
        os._exit(13)
    if then == "hang":
        time.sleep(30.0)
    return run_ok(scale=scale, label=then)


def run_stalled_reply(scale: float = 1.0, path: str = "",
                      seconds: float = 20.0) -> ExperimentResult:
    """Start a reply on the worker's result pipe and stall mid-frame:
    a header announcing 1000 bytes, 10 of them, ``seconds`` of sleep,
    then exit without another byte."""
    Path(path).write_text(str(os.getpid()))
    frame, conn = sys._getframe(), None
    while conn is None:  # the worker's end, held by a caller's frame
        frame = frame.f_back
        conn = next((value for value in frame.f_locals.values()
                     if isinstance(value, Connection)), None)
    os.write(conn.fileno(), struct.pack("!i", 1000) + b"x" * 10)
    time.sleep(seconds)
    os._exit(0)


def run_session(scale: float = 1.0, seed: int = 5) -> ExperimentResult:
    """A real (tiny) pgmcc session with telemetry enabled: exercises
    the session-metrics export through the orchestrator's worker,
    cache and manifest paths."""
    from repro.pgm import create_session
    from repro.simulator import LinkSpec, dumbbell

    lossy = LinkSpec(rate_bps=500_000, delay=0.05, queue_slots=30,
                     loss_rate=0.02)
    net = dumbbell(1, 2, lossy, seed=seed)
    session = create_session(net, "h0", ["r0", "r1"])
    net.run(until=20.0 * scale)
    result = ExperimentResult(
        name="toy-session",
        params={"scale": scale, "seed": seed},
        expectation="deterministic session-metrics export",
    )
    result.add_row(odata=session.sender.odata_sent,
                   acks=session.sender.acks_received)
    result.metrics["odata_sent"] = session.sender.odata_sent
    result.attach_telemetry(session, seed=seed)
    session.close()
    return result
