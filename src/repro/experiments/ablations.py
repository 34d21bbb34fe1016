"""Ablations over the design choices the paper calls out.

* ABL-C (§3.5): sweep of the switch bias constant ``c`` — between 0.6
  and 0.8 it removes unnecessary acker switches without hurting
  selection accuracy; ``c = 1`` shows the spurious switches.
* ABL-RTT (§3.2.1): sequence-based vs time-based RTT in the election —
  the paper's NS runs found no better behaviour from timestamps.
* ABL-DUP (§5): dupack threshold — preliminary tests showed no
  significant fairness impact.
* ABL-SS (§3.4): the fixed slow-start threshold of 6 packets.
* ABL-NE (§3.7): NE suppression off / on / rx_loss-aware.

Plus the §5 future-work extensions implemented in this reproduction:

* ABL-MODEL: the simple ``1/(RTT·√p)`` election model vs the full
  Padhye equation [15], in the footnote-3 scenario (a low-RTT but very
  lossy receiver against a high-RTT, low-loss one).
* ABL-ADSS: adaptive slow-start threshold vs the fixed 6.
* ABL-TFRC: the paper's low-pass loss filter vs TFRC's average loss
  interval method.
"""

from __future__ import annotations

from .common import ExperimentResult, kbps
from . import fig4_inter_fairness, fig5_acker_selection, fig6_heterogeneous_rtt
from ..simulator import NON_LOSSY


def run_switch_bias(scale: float = 1.0, seed: int = 23,
                    cs: tuple[float, ...] = (1.0, 0.9, 0.75, 0.6)) -> ExperimentResult:
    """ABL-C: Fig. 4 topology (3 co-located receivers + TCP), c sweep."""
    result = ExperimentResult(
        name="abl-switch-bias",
        params={"scale": scale, "seed": seed, "cs": cs},
        expectation=(
            "c in [0.6, 0.8] removes the (unnecessary) acker switches "
            "seen at c=1 among equivalent receivers, with no accuracy "
            "or throughput penalty"
        ),
    )
    for c in cs:
        case = fig4_inter_fairness.run_case(
            NON_LOSSY, f"c={c}", 240.0 * scale, 80.0 * scale, 200.0 * scale,
            c=c, seed=seed,
        )
        result.add_row(
            c=c,
            acker_switches=case["acker_switches"],
            pgm_shared_kbps=kbps(case["pgm_shared"]),
            tcp_shared_kbps=kbps(case["tcp_shared"]),
            ratio=round(case["ratio"], 2),
        )
        result.metrics[f"c={c}:switches"] = case["acker_switches"]
        result.metrics[f"c={c}:pgm_shared"] = case["pgm_shared"]
        result.metrics[f"c={c}:ratio"] = case["ratio"]
    return result


def run_rtt_mode(scale: float = 1.0, seed: int = 29) -> ExperimentResult:
    """ABL-RTT: Fig. 5 scenario under both RTT measurement modes."""
    result = ExperimentResult(
        name="abl-rtt-mode",
        params={"scale": scale, "seed": seed},
        expectation=(
            "time-based RTT measurements do not yield any better "
            "behaviour than sequence-based ones (same plateaus, similar "
            "switch counts)"
        ),
    )
    for mode in ("seq", "time"):
        sub = fig5_acker_selection.run(scale=scale, seed=seed, rtt_mode=mode)
        result.add_row(
            rtt_mode=mode,
            plateau1_kbps=kbps(sub.metrics["plateau1"]),
            plateau2_kbps=kbps(sub.metrics["plateau2"]),
            plateau3_kbps=kbps(sub.metrics["plateau3"]),
            plateau4_kbps=kbps(sub.metrics["plateau4"]),
            switches=sub.metrics["switch_count"],
        )
        for phase in (1, 2, 3, 4):
            result.metrics[f"{mode}:plateau{phase}"] = sub.metrics[f"plateau{phase}"]
        result.metrics[f"{mode}:switches"] = sub.metrics["switch_count"]
    return result


def run_dupack(scale: float = 1.0, seed: int = 31,
               thresholds: tuple[int, ...] = (2, 3, 4, 5)) -> ExperimentResult:
    """ABL-DUP: dupack threshold sweep on the non-lossy Fig. 4 case."""
    result = ExperimentResult(
        name="abl-dupack",
        params={"scale": scale, "seed": seed, "thresholds": thresholds},
        expectation="fairness with TCP is not significantly impacted",
    )
    for threshold in thresholds:
        case = fig4_inter_fairness.run_case(
            NON_LOSSY, f"dupack={threshold}", 240.0 * scale, 80.0 * scale,
            200.0 * scale, dupack_threshold=threshold, seed=seed,
        )
        result.add_row(
            dupack_threshold=threshold,
            pgm_shared_kbps=kbps(case["pgm_shared"]),
            tcp_shared_kbps=kbps(case["tcp_shared"]),
            ratio=round(case["ratio"], 2),
            pgm_stalls=case["pgm_stalls"],
        )
        result.metrics[f"dupack={threshold}:ratio"] = case["ratio"]
        result.metrics[f"dupack={threshold}:pgm_shared"] = case["pgm_shared"]
    return result


def run_ssthresh(scale: float = 1.0, seed: int = 37,
                 thresholds: tuple[int, ...] = (2, 6, 16, 64)) -> ExperimentResult:
    """ABL-SS: the fixed exponential-opening limit (paper: 6)."""
    result = ExperimentResult(
        name="abl-ssthresh",
        params={"scale": scale, "seed": seed, "thresholds": thresholds},
        expectation=(
            "6 packets opens past the dupack threshold without the "
            "over-aggression of a large adaptive threshold; tiny values "
            "risk stalls with low network buffering"
        ),
    )
    for threshold in thresholds:
        case = fig4_inter_fairness.run_case(
            NON_LOSSY, f"ssthresh={threshold}", 240.0 * scale, 80.0 * scale,
            200.0 * scale, ssthresh=threshold, seed=seed,
        )
        result.add_row(
            ssthresh=threshold,
            pgm_shared_kbps=kbps(case["pgm_shared"]),
            tcp_shared_kbps=kbps(case["tcp_shared"]),
            ratio=round(case["ratio"], 2),
            pgm_stalls=case["pgm_stalls"],
        )
        result.metrics[f"ssthresh={threshold}:ratio"] = case["ratio"]
        result.metrics[f"ssthresh={threshold}:stalls"] = case["pgm_stalls"]
    return result


def run_ne_suppression(scale: float = 1.0, seed: int = 41) -> ExperimentResult:
    """ABL-NE: §3.7 — suppression does not break the election; the
    rx_loss-aware rule forwards worse reports through NEs."""
    result = ExperimentResult(
        name="abl-ne-suppression",
        params={"scale": scale, "seed": seed},
        expectation=(
            "suppression does not pose problems for the election at "
            "small scale; the rx_loss rule lets reports with higher "
            "loss through at minimal NE cost"
        ),
    )
    duration = 240.0 * scale
    for suppression, aware, label in (
        (False, False, "no-NE"),
        (True, False, "NE-suppression"),
        (True, True, "NE-rx-loss-aware"),
    ):
        case = fig6_heterogeneous_rtt.run_case(suppression, aware, duration, seed)
        result.add_row(
            case=label,
            pgm_kbps=kbps(case["pgm_rate"]),
            tcp_kbps=kbps(case["tcp_rate"]),
            ratio=round(case["ratio"], 2),
            naks_at_source=case["naks_at_source"],
            switches=case["switches"],
        )
        for key in ("pgm_rate", "tcp_rate", "ratio", "naks_at_source", "switches",
                    "ne_naks_suppressed", "ne_naks_forwarded"):
            result.metrics[f"{label}:{key}"] = case[key]
    return result


def run_throughput_model(scale: float = 1.0, seed: int = 47) -> ExperimentResult:
    """ABL-MODEL: footnote 3's pathological pairing, live.

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

    result = ExperimentResult(
        name="abl-throughput-model",
        params={"scale": scale, "seed": seed},
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
    duration = 180.0 * scale
    for model in ("simple", "padhye"):
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
        dominant = max(occupancy, key=occupancy.get) if occupancy else None
        rate = throughput_bps(session.trace, duration / 3, duration)
        result.add_row(model=model, dominant_acker=dominant,
                       rate_kbps=kbps(rate), switches=session.acker_switches)
        result.metrics[f"{model}:dominant"] = dominant
        result.metrics[f"{model}:rate"] = rate
        result.metrics[f"{model}:occupancy"] = occupancy
        session.close()
    return result


def run_adaptive_ssthresh(scale: float = 1.0, seed: int = 53) -> ExperimentResult:
    """ABL-ADSS: §3.4 future work — adaptive vs fixed slow-start
    threshold.  Measures startup aggressiveness (queue drops in the
    first seconds) and steady fairness with TCP."""
    from ..core.sender_cc import CcConfig
    from ..pgm import create_session
    from ..simulator import NON_LOSSY, dumbbell
    from ..tcp import create_tcp_flow

    result = ExperimentResult(
        name="abl-adaptive-ssthresh",
        params={"scale": scale, "seed": seed},
        expectation=(
            "an adaptive (initially unbounded) threshold opens far more "
            "aggressively — the paper kept the cautious fixed 6 because "
            "at startup the acker choice is least trustworthy; neither "
            "mode starves TCP, but the overshoot-and-crash cycles of "
            "the adaptive variant can cost pgmcc its own share"
        ),
    )
    duration = 160.0 * scale
    for adaptive, label in ((False, "fixed-6"), (True, "adaptive")):
        net = dumbbell(2, 2, NON_LOSSY, seed=seed)
        session = create_session(net, "h0", ["r0"],
                                 cc=CcConfig(adaptive_ssthresh=adaptive))
        tcp = create_tcp_flow(net, "h1", "r1", start_at=duration / 2)
        net.run(until=duration)
        early_drops = net.link("R0", "R1").queue_drops
        pgm = session.throughput_bps(duration * 0.6, duration)
        t = tcp.throughput_bps(duration * 0.6, duration)
        result.add_row(
            mode=label,
            startup_queue_drops_10s=session.trace.between(0, 10 * scale).count("cc-loss"),
            total_drops=early_drops,
            pgm_kbps=kbps(pgm),
            tcp_kbps=kbps(t),
        )
        result.metrics[f"{label}:pgm"] = pgm
        result.metrics[f"{label}:tcp"] = t
        result.metrics[f"{label}:early_cc_losses"] = session.trace.between(
            0, 10 * scale
        ).count("cc-loss")
        session.close()
        tcp.close()
    return result


def run_delayed_acks(scale: float = 1.0, seed: int = 89) -> ExperimentResult:
    """ABL-DELACK: §4.3 notes "there are no delayed ACKs in pgmcc"
    while TCP usually delays them.  Compare fairness against a TCP
    with and without delayed ACKs on the non-lossy bottleneck."""
    from . import fig4_inter_fairness
    from ..simulator import NON_LOSSY

    result = ExperimentResult(
        name="abl-delayed-acks",
        params={"scale": scale, "seed": seed},
        expectation=(
            "delayed ACKs make TCP's window growth a little slower, "
            "shifting the split modestly toward pgmcc; neither variant "
            "changes the no-starvation outcome"
        ),
    )
    for delayed in (False, True):
        case = fig4_inter_fairness.run_case(
            NON_LOSSY, f"delack={delayed}", 240.0 * scale, 80.0 * scale,
            200.0 * scale, delayed_acks=delayed, seed=seed,
        )
        result.add_row(
            tcp_delayed_acks=delayed,
            pgm_shared_kbps=kbps(case["pgm_shared"]),
            tcp_shared_kbps=kbps(case["tcp_shared"]),
            ratio=round(case["ratio"], 2),
        )
        label = "delack" if delayed else "no-delack"
        result.metrics[f"{label}:pgm"] = case["pgm_shared"]
        result.metrics[f"{label}:tcp"] = case["tcp_shared"]
        result.metrics[f"{label}:ratio"] = case["ratio"]
    return result


def run_loss_estimator(scale: float = 1.0, seed: int = 59) -> ExperimentResult:
    """ABL-TFRC: §5 future work — low-pass filter vs TFRC average loss
    interval, on the standard lossy link."""
    from ..pgm import create_session
    from ..simulator import LOSSY, dumbbell

    result = ExperimentResult(
        name="abl-loss-estimator",
        params={"scale": scale, "seed": seed},
        expectation=(
            "both estimators track the 3% link loss; TFRC reacts to "
            "loss *events* so bursts perturb it less, at similar "
            "steady-state accuracy and throughput"
        ),
    )
    duration = 120.0 * scale
    for estimator in ("filter", "tfrc"):
        net = dumbbell(1, 1, LOSSY, seed=seed)
        session = create_session(net, "h0", ["r0"], estimator=estimator)
        rx = session.receivers[0]
        # Sample the estimator output at every packet slot; judge by
        # the steady-state (second half) time average, not a point
        # sample — the filter's instantaneous value fluctuates by
        # design (Fig. 2).
        outputs: list[float] = []
        rx.cc.sample_observer = lambda seq, lost: outputs.append(
            rx.cc.loss_filter.loss_rate
        )
        net.run(until=duration)
        steady = outputs[len(outputs) // 2 :] or [0.0]
        mean_loss = sum(steady) / len(steady)
        raw = rx.cc.loss_filter.raw_loss_rate
        rate = session.throughput_bps(duration / 3, duration)
        result.add_row(
            estimator=estimator,
            mean_loss=round(mean_loss, 4),
            raw_loss=round(raw, 4),
            nominal_loss=0.03,
            rate_kbps=kbps(rate),
        )
        result.metrics[f"{estimator}:loss"] = mean_loss
        result.metrics[f"{estimator}:raw_loss"] = raw
        result.metrics[f"{estimator}:rate"] = rate
        session.close()
    return result
