"""EXP-F4 — Fig. 4: inter-protocol fairness against TCP.

One pgmcc session with up to three receivers on the same subnet shares
a bottleneck with one TCP flow.  Receivers join at different times
(all before TCP starts); the TCP flow terminates before the end so the
pgmcc session's rate recovery is visible.  Both §4 bottleneck
configurations are run.  The paper used c = 1 here.

:func:`run_cell` is one case: the registered EXP-F4 study runs it on
both links, and ABL-FIG4 ablates its knobs on the non-lossy one.

Expected shape (non-lossy): pgmcc takes the whole link, halves when
TCP starts, both proceed at about the same rate, and pgmcc regains the
link when TCP ends.  Co-located extra receivers cause acker switches
but no throughput change.  Lossy: both rates are loss-determined and
neither flow perturbs the other.
"""

from __future__ import annotations

from ..analysis import throughput_bps, throughput_ratio
from ..core.sender_cc import CcConfig
from ..pgm import add_receiver, create_session
from ..simulator import LOSSY, NON_LOSSY, dumbbell
from ..tcp import create_tcp_flow
from .common import ExperimentResult

#: pgmcc receivers, co-located, joining before the TCP flow starts
N_RECEIVERS = 3


def run_cell(scale: float = 1.0, seed: int = 23, c: float = 1.0,
             dupack_threshold: int = 3, ssthresh: int = 6,
             delayed_acks: bool = False,
             link: str = "non-lossy") -> ExperimentResult:
    """One Fig. 4 case.  The EXP-F4 study runs both links at the
    paper's settings; the ABL-FIG4 study moves one of §3.5's ``c``,
    §5's dupack threshold, §3.4's ssthresh or TCP's delayed ACKs away
    from the paper's choice at a time, on the non-lossy link."""
    duration = 240.0 * scale
    tcp_start = 80.0 * scale
    tcp_stop = 200.0 * scale
    spec = {"non-lossy": NON_LOSSY, "lossy": LOSSY}[link]
    net = dumbbell(2, N_RECEIVERS + 1, spec, seed=seed)
    cc = CcConfig(c=c, dupack_threshold=dupack_threshold, ssthresh=ssthresh)
    session = create_session(net, "h0", ["r0"], cc=cc)
    # Stagger the extra co-located receivers (paper: "started at
    # different times (but before the TCP session)").
    for i in range(1, N_RECEIVERS):
        add_receiver(net, session, f"r{i}", at=tcp_start * i / (2.0 * N_RECEIVERS))
    tcp = create_tcp_flow(
        net, "h1", f"r{N_RECEIVERS}", start_at=tcp_start, stop_at=tcp_stop,
        delayed_acks=delayed_acks,
    )
    net.run(until=duration)

    settle = (tcp_stop - tcp_start) / 6.0
    window = (tcp_start + settle, tcp_stop)
    pgm_shared = throughput_bps(session.trace, *window)
    tcp_shared = throughput_bps(tcp.trace, *window)
    after_window = (min(tcp_stop + settle, duration - 1), duration)
    case = {
        "pgm_alone": throughput_bps(session.trace, tcp_start / 2, tcp_start),
        "pgm_shared": pgm_shared,
        "tcp_shared": tcp_shared,
        "pgm_after": throughput_bps(session.trace, *after_window),
        "ratio": throughput_ratio(pgm_shared, tcp_shared),
        "acker_switches": session.acker_switches,
        "tcp_timeouts": tcp.sender.timeouts,
        "pgm_stalls": session.sender.controller.stalls,
    }
    session.close()
    tcp.close()
    return ExperimentResult(
        name="fig4-cell",
        params={"scale": scale, "seed": seed, "link": link, "c": c,
                "dupack_threshold": dupack_threshold, "ssthresh": ssthresh,
                "delayed_acks": delayed_acks},
        metrics=case, expectation=(
            "c in [0.6, 0.8] removes the acker switches seen at c=1 at no "
            "throughput cost; no knob changes the no-starvation outcome"))
