"""The §5 future-work extensions implemented in this reproduction.

Each runs a topology of its own, and each is a registered ``ablate``
study whose base cell is the paper's choice and whose one other cell is
the alternative:

* ABL-MODEL: the simple ``1/(RTT·√p)`` election model vs the full
  Padhye equation [15], in the footnote-3 scenario (a low-RTT but very
  lossy receiver against a high-RTT, low-loss one).
* ABL-ADSS: adaptive slow-start threshold vs the fixed 6.
* ABL-TFRC: the paper's low-pass loss filter vs TFRC's average loss
  interval method.

The one-factor ablations of the paper's own choices are sweep studies
over Figs. 4 and 5 (ABL-FIG4, ABL-RTT in :mod:`.registry`).
"""

from __future__ import annotations

from .common import ExperimentResult


def run_throughput_model(scale: float = 1.0, seed: int = 47,
                         model: str = "simple") -> ExperimentResult:
    """ABL-MODEL's cell: footnote 3's pathological pairing, live.

    One receiver sits behind a short (10 ms) but heavily lossy (18 %)
    link; the other behind a long (300 ms), almost clean (0.5 %) one.
    The simple model overestimates throughput at high loss rates and
    tends to keep the far receiver as acker; the Padhye model's timeout
    term identifies the lossy receiver as the real bottleneck, and the
    session rate drops accordingly.
    """
    from ..core.sender_cc import CcConfig
    from ..pgm import create_session
    from ..simulator import ACCESS, LinkSpec, Network
    from ..analysis import acker_occupancy, throughput_bps

    duration = 180.0 * scale
    net = Network(seed=seed)
    net.add_host("src")
    net.add_router("R0")
    net.duplex_link("src", "R0", ACCESS)
    net.add_host("lossy")
    net.duplex_link("R0", "lossy", LinkSpec(2_000_000, 0.010, queue_slots=60,
                                            loss_rate=0.18))
    net.add_host("far")
    net.duplex_link("R0", "far", LinkSpec(2_000_000, 0.300, queue_slots=60,
                                          loss_rate=0.005))
    net.build_routes()
    session = create_session(net, "src", ["lossy", "far"],
                             cc=CcConfig(model=model))
    net.run(until=duration)
    occupancy = acker_occupancy(
        session.sender.controller.election.switches, duration / 3, duration)
    case = {
        "dominant": max(occupancy, key=occupancy.get) if occupancy else None,
        "rate": throughput_bps(session.trace, duration / 3, duration),
        "occupancy": occupancy,
        "switches": session.acker_switches,
    }
    session.close()
    return ExperimentResult(
        name="abl-throughput-model",
        params={"scale": scale, "seed": seed, "model": model},
        metrics=case,
        expectation=(
            "footnote 3: at loss rates above ~5% the simple equation "
            "overestimates throughput, so the lossy receiver can lose "
            "the election to a far-but-clean one; the full [15] model "
            "always identifies it.  Live, the packet-based RTT partly "
            "self-corrects: loss lag inflates the lossy receiver's "
            "rxw_lead gap, so the simple model often still elects it — "
            "the static divergence is isolated in the unit tests"
        ),
    )


def run_adaptive_ssthresh(scale: float = 1.0, seed: int = 53,
                          adaptive_ssthresh: bool = False) -> ExperimentResult:
    """ABL-ADSS's cell: §3.4 future work — adaptive vs fixed slow-start
    threshold.  Measures startup aggressiveness (congestion losses in
    the first seconds) and steady fairness with TCP."""
    from ..core.sender_cc import CcConfig
    from ..pgm import create_session
    from ..simulator import NON_LOSSY, dumbbell
    from ..tcp import create_tcp_flow

    duration = 160.0 * scale
    net = dumbbell(2, 2, NON_LOSSY, seed=seed)
    session = create_session(net, "h0", ["r0"],
                             cc=CcConfig(adaptive_ssthresh=adaptive_ssthresh))
    tcp = create_tcp_flow(net, "h1", "r1", start_at=duration / 2)
    net.run(until=duration)
    case = {
        "pgm": session.throughput_bps(duration * 0.6, duration),
        "tcp": tcp.throughput_bps(duration * 0.6, duration),
        "early_cc_losses": session.trace.between(0, 10 * scale).count("cc-loss"),
        "queue_drops": net.link("R0", "R1").queue_drops,
    }
    session.close()
    tcp.close()
    return ExperimentResult(
        name="abl-adaptive-ssthresh",
        params={"scale": scale, "seed": seed,
                "adaptive_ssthresh": adaptive_ssthresh},
        metrics=case,
        expectation=(
            "an adaptive (initially unbounded) threshold opens far more "
            "aggressively — the paper kept the cautious fixed 6 because "
            "at startup the acker choice is least trustworthy; neither "
            "mode starves TCP, but the overshoot-and-crash cycles of "
            "the adaptive variant can cost pgmcc its own share"
        ),
    )


def run_loss_estimator(scale: float = 1.0, seed: int = 59,
                       estimator: str = "filter") -> ExperimentResult:
    """ABL-TFRC's cell: §5 future work — low-pass filter vs TFRC average
    loss interval, on the standard lossy link."""
    from ..pgm import create_session
    from ..simulator import LOSSY, dumbbell

    duration = 120.0 * scale
    net = dumbbell(1, 1, LOSSY, seed=seed)
    session = create_session(net, "h0", ["r0"], estimator=estimator)
    rx = session.receivers[0]
    # Sample the estimator output at every packet slot; judge by the
    # steady-state (second half) time average, not a point sample — the
    # filter's instantaneous value fluctuates by design (Fig. 2).
    outputs: list[float] = []
    rx.cc.sample_observer = lambda seq, lost: outputs.append(
        rx.cc.loss_filter.loss_rate
    )
    net.run(until=duration)
    steady = outputs[len(outputs) // 2 :] or [0.0]
    case = {
        "loss": sum(steady) / len(steady),
        "raw_loss": rx.cc.loss_filter.raw_loss_rate,
        "rate": session.throughput_bps(duration / 3, duration),
    }
    session.close()
    return ExperimentResult(
        name="abl-loss-estimator",
        params={"scale": scale, "seed": seed, "estimator": estimator},
        metrics=case,
        expectation=(
            "both estimators track the 3% link loss; TFRC reacts to "
            "loss *events* so bursts perturb it less, at similar "
            "steady-state accuracy and throughput"
        ),
    )
