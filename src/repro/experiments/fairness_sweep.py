"""EXP-SWEEP — §4.3's "large number of experiments".

The paper: "In order to verify the behaviour of competing TCP and
pgmcc flows, we have run a large number of experiments with the two
types of flows and different bottleneck configurations in terms of
rate and queue size, both for lossy and non-lossy links.  In general,
we see that there is a good sharing of bandwidth between TCP and pgmcc
flows in all configurations we tested, and the flows do not starve
each other."

:func:`run_cell` runs one cell of that grid — bottleneck rate × queue
size × loss — and reports its pgmcc/TCP ratio; the registered EXP-SWEEP
study expands the grid and ranks the cells by that ratio.  The paper's
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


def run_cell(scale: float = 1.0, seed: int = 83, rate: float = 1_000_000,
             queue_slots: int = 30, loss: float = 0.0) -> ExperimentResult:
    """One bottleneck configuration of the grid (the EXP-SWEEP study
    expands rate x queue_slots x loss into these)."""
    duration = 180.0 * scale
    spec = LinkSpec(rate_bps=rate, delay=0.050, queue_slots=queue_slots,
                    loss_rate=loss)
    net = dumbbell(2, 2, spec, seed=seed)
    session = create_session(net, "h0", ["r0"], cc=CcConfig())
    tcp = create_tcp_flow(net, "h1", "r1", start_at=duration / 8)
    net.run(until=duration)
    window = (duration / 3, duration)
    pgm = session.throughput_bps(*window)
    t = tcp.throughput_bps(*window)
    ratio, stalls = throughput_ratio(pgm, t), session.sender.controller.stalls
    session.close()
    tcp.close()
    result = ExperimentResult(
        name="fairness-sweep-cell",
        params={"scale": scale, "seed": seed, "rate": rate,
                "queue_slots": queue_slots, "loss": loss},
        metrics={"pgm": pgm, "tcp": t, "ratio": ratio, "stalls": stalls},
        expectation="good sharing, no starvation (short-timescale "
                    "burstiness is expected at low bottleneck bandwidths)")
    result.add_row(rate_kbps=kbps(rate), queue_slots=queue_slots, loss=loss,
                   pgm_kbps=kbps(pgm), tcp_kbps=kbps(t),
                   ratio=round(ratio, 2), stalls=stalls)
    return result
