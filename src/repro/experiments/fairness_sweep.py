"""EXP-SWEEP — §4.3's "large number of experiments".

The paper: "In order to verify the behaviour of competing TCP and
pgmcc flows, we have run a large number of experiments with the two
types of flows and different bottleneck configurations in terms of
rate and queue size, both for lossy and non-lossy links.  In general,
we see that there is a good sharing of bandwidth between TCP and pgmcc
flows in all configurations we tested, and the flows do not starve
each other."

This runner executes that grid — bottleneck rate × queue size ×
loss — and reports the pgmcc/TCP ratio per cell.  The paper's
acceptance criterion is *no starvation in any cell*; short-timescale
unfairness ("one of the flows might temporarily get a much larger
share") is expected at low bandwidths where the packet count in
transit is low.
"""

from __future__ import annotations

from ..analysis import throughput_ratio
from ..core.sender_cc import CcConfig
from ..pgm import create_session
from ..simulator import LinkSpec, dumbbell
from ..tcp import create_tcp_flow
from .common import ExperimentResult, kbps

#: the grid: (rate_bps, queue_slots, loss_rate)
DEFAULT_GRID = tuple(
    (rate, queue, loss)
    for rate in (250_000, 500_000, 1_000_000)
    for queue in (10, 30, 60)
    for loss in (0.0, 0.02)
)


def run_cell(rate: float, queue: int, loss: float, duration: float,
             seed: int, delayed_acks: bool = False) -> dict:
    spec = LinkSpec(rate_bps=rate, delay=0.050, queue_slots=queue,
                    loss_rate=loss)
    net = dumbbell(2, 2, spec, seed=seed)
    session = create_session(net, "h0", ["r0"], cc=CcConfig())
    tcp = create_tcp_flow(net, "h1", "r1", start_at=duration / 8,
                          delayed_acks=delayed_acks)
    net.run(until=duration)
    window = (duration / 3, duration)
    pgm = session.throughput_bps(*window)
    t = tcp.throughput_bps(*window)
    out = {
        "pgm": pgm,
        "tcp": t,
        "ratio": throughput_ratio(pgm, t),
        "stalls": session.sender.controller.stalls,
    }
    session.close()
    tcp.close()
    return out


def run(scale: float = 1.0, seed: int = 83,
        grid: tuple = DEFAULT_GRID, delayed_acks: bool = False) -> ExperimentResult:
    duration = 180.0 * scale
    result = ExperimentResult(
        name="fairness-sweep",
        params={"scale": scale, "seed": seed, "cells": len(grid),
                "delayed_acks": delayed_acks},
        expectation=(
            "good sharing in all configurations tested; the flows do "
            "not starve each other (short-timescale burstiness is "
            "expected at low bottleneck bandwidths)"
        ),
    )
    worst_ratio = 0.0
    worst_cell = None
    for i, (rate, queue, loss) in enumerate(grid):
        cell = run_cell(rate, queue, loss, duration, seed + i,
                        delayed_acks=delayed_acks)
        result.add_row(
            rate_kbps=kbps(rate),
            queue_slots=queue,
            loss=loss,
            pgm_kbps=kbps(cell["pgm"]),
            tcp_kbps=kbps(cell["tcp"]),
            ratio=round(cell["ratio"], 2),
            stalls=cell["stalls"],
        )
        key = f"{int(rate / 1000)}k/q{queue}/l{loss}"
        result.metrics[f"{key}:ratio"] = cell["ratio"]
        result.metrics[f"{key}:pgm"] = cell["pgm"]
        result.metrics[f"{key}:tcp"] = cell["tcp"]
        if cell["ratio"] > worst_ratio:
            worst_ratio = cell["ratio"]
            worst_cell = key
    result.metrics["worst_ratio"] = worst_ratio
    result.metrics["worst_cell"] = worst_cell
    return result
