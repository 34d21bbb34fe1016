"""EXP-F4 — Fig. 4: inter-protocol fairness against TCP.

One pgmcc session with up to three receivers on the same subnet shares
a bottleneck with one TCP flow.  Receivers join at different times
(all before TCP starts); the TCP flow terminates before the end so the
pgmcc session's rate recovery is visible.  Both §4 bottleneck
configurations are run.  The paper used c = 1 here.

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
from ..simulator import LOSSY, NON_LOSSY, LinkSpec, dumbbell
from ..tcp import create_tcp_flow
from .common import ExperimentResult, kbps


def run_case(
    spec: LinkSpec,
    duration: float = 240.0,
    tcp_start: float = 80.0,
    tcp_stop: float = 200.0,
    c: float = 1.0,
    dupack_threshold: int = 3,
    ssthresh: int = 6,
    n_receivers: int = 3,
    delayed_acks: bool = False,
    seed: int = 11,
) -> dict:
    net = dumbbell(2, n_receivers + 1, spec, seed=seed)
    cc = CcConfig(c=c, dupack_threshold=dupack_threshold, ssthresh=ssthresh)
    session = create_session(net, "h0", ["r0"], cc=cc)
    # Stagger the extra co-located receivers (paper: "started at
    # different times (but before the TCP session)").
    for i in range(1, n_receivers):
        add_receiver(net, session, f"r{i}", at=tcp_start * i / (2.0 * n_receivers))
    tcp = create_tcp_flow(
        net, "h1", f"r{n_receivers}", start_at=tcp_start, stop_at=tcp_stop,
        delayed_acks=delayed_acks,
    )
    net.run(until=duration)

    settle = (tcp_stop - tcp_start) / 6.0
    window = (tcp_start + settle, tcp_stop)
    pgm_alone = throughput_bps(session.trace, tcp_start / 2, tcp_start)
    pgm_shared = throughput_bps(session.trace, *window)
    tcp_shared = throughput_bps(tcp.trace, *window)
    after_window = (min(tcp_stop + settle, duration - 1), duration)
    pgm_after = throughput_bps(session.trace, *after_window)
    out = {
        "pgm_alone": pgm_alone,
        "pgm_shared": pgm_shared,
        "tcp_shared": tcp_shared,
        "pgm_after": pgm_after,
        "ratio": throughput_ratio(pgm_shared, tcp_shared),
        "acker_switches": session.acker_switches,
        "tcp_timeouts": tcp.sender.timeouts,
        "pgm_stalls": session.sender.controller.stalls,
    }
    session.close()
    tcp.close()
    return out


def run_cell(scale: float = 1.0, seed: int = 23, c: float = 1.0,
             dupack_threshold: int = 3, ssthresh: int = 6,
             delayed_acks: bool = False) -> ExperimentResult:
    """The non-lossy case as one sweep cell: the ABL-FIG4 study moves
    one of §3.5's ``c``, §5's dupack threshold, §3.4's ssthresh or
    TCP's delayed ACKs away from the paper's choice at a time."""
    knobs = {"c": c, "dupack_threshold": dupack_threshold,
             "ssthresh": ssthresh, "delayed_acks": delayed_acks}
    case = run_case(NON_LOSSY, 240.0 * scale, 80.0 * scale, 200.0 * scale,
                    seed=seed, **knobs)
    result = ExperimentResult(
        name="fig4-cell", params={"scale": scale, "seed": seed, **knobs},
        metrics=case, expectation=(
            "c in [0.6, 0.8] removes the acker switches seen at c=1 at no "
            "throughput cost; no knob changes the no-starvation outcome"))
    result.add_row(**knobs, pgm_shared_kbps=kbps(case["pgm_shared"]),
                   tcp_shared_kbps=kbps(case["tcp_shared"]),
                   ratio=round(case["ratio"], 2),
                   acker_switches=case["acker_switches"],
                   pgm_stalls=case["pgm_stalls"])
    return result


def run(scale: float = 1.0, seed: int = 11, c: float = 1.0,
        delayed_acks: bool = False) -> ExperimentResult:
    duration = 240.0 * scale
    tcp_start = 80.0 * scale
    tcp_stop = 200.0 * scale
    result = ExperimentResult(
        name="fig4-inter-fairness",
        params={"scale": scale, "seed": seed, "c": c, "delayed_acks": delayed_acks},
        expectation=(
            "good sharing between TCP and pgmcc in all configurations, "
            "no starvation either way; multiple co-located receivers "
            "cause acker switches but do not change the data rate; "
            "pgmcc regains the link once TCP terminates (non-lossy)"
        ),
    )
    for spec, label in ((NON_LOSSY, "non-lossy"), (LOSSY, "lossy")):
        case = run_case(
            spec, duration, tcp_start, tcp_stop, c=c,
            delayed_acks=delayed_acks, seed=seed,
        )
        result.add_row(
            case=label,
            pgm_alone_kbps=kbps(case["pgm_alone"]),
            pgm_shared_kbps=kbps(case["pgm_shared"]),
            tcp_shared_kbps=kbps(case["tcp_shared"]),
            pgm_after_kbps=kbps(case["pgm_after"]),
            ratio=round(case["ratio"], 2),
            acker_switches=case["acker_switches"],
        )
        for key, value in case.items():
            result.metrics[f"{label}:{key}"] = value
    return result
