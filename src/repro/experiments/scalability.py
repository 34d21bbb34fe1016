"""EXP-SCALE — §4's scalability study, pushed from 200 to 10^6 receivers.

pgmcc's scalability claims (§3) are about *constant* source-side state
and feedback load:

* exactly one receiver ACKs, so the ACK stream at the source is one
  per data packet regardless of the group size;
* NAKs are deduplicated — by NE suppression where routers help, and by
  the sender's repair holdoff otherwise — so correlated losses behind a
  shared bottleneck do not implode at the source;
* throughput is set by the acker's path, not by the group size.

The module has three parts:

1. the paper's own ladder (:func:`run_point`, 25–200 full receiver
   engines behind one bottleneck, with and without NEs; the EXP-SCALE
   study runs the eight points), exact per-receiver fidelity;
2. an **equivalence cell** (:func:`exact_vs_hybrid`): the same small
   group run once with full engines and once through
   :mod:`repro.pgm.aggregate`'s hybrid mode, asserting the two agree
   on acker identity, window-trajectory digest and goodput — the
   fidelity gate for part 3, held by tier-1 and CI;
3. a **hybrid ladder** (:func:`run_hybrid_cell`; the EXP-SCALE-HYBRID
   study runs 10^3 → 10^6 receivers): K shared bottlenecks with the
   aggregate-tail subsystem.  What a cell costs in seconds and
   megabytes is measured from outside, by the ``hybrid_1e6`` workload
   of ``benchmarks/perf``.
"""

from __future__ import annotations

import hashlib

from ..analysis import throughput_bps
from ..pgm import SessionConfig, create_session, enable_network_elements
from ..simulator import (
    NON_LOSSY,
    DeterministicLoss,
    LinkSpec,
    PeriodicLoss,
    dumbbell,
    dumbbell_subtrees,
)
from .common import ExperimentResult

#: documented goodput tolerance of the equivalence oracle (relative).
GOODPUT_TOLERANCE = 0.05

#: bottleneck used by the hybrid cells: moderate capacity, short
#: delay, clean (losses are injected deterministically per subtree so
#: cells are reproducible and the single rate doesn't collapse to the
#: min of K independently-lossy paths).
HYBRID_BOTTLENECK = LinkSpec(rate_bps=2_000_000, delay=0.02)


# ---------------------------------------------------------------------------
# Part 1 — the paper's exact ladder
# ---------------------------------------------------------------------------


def run_point(scale: float = 1.0, seed: int = 101, n_receivers: int = 25,
              network_elements: bool = False) -> ExperimentResult:
    """One rung: ``n_receivers`` co-located receivers behind one
    bottleneck, with or without NEs; source-side load and rate."""
    duration = 60.0 * scale
    net = dumbbell(1, n_receivers, NON_LOSSY, seed=seed)
    session = create_session(
        net, "h0", [f"r{i}" for i in range(n_receivers)]
    )
    if network_elements:
        enable_network_elements(net, telemetry=session.metrics)
    net.run(until=duration)
    sender = session.sender
    loss_events = max(session.trace.count("cc-loss"), 1)
    point = {
        "odata": sender.odata_sent,
        "acks": sender.acks_received,
        "naks": sender.naks_received,
        "naks_per_loss": sender.naks_received / loss_events,
        "acks_per_data": sender.acks_received / max(sender.odata_sent, 1),
        "rate": throughput_bps(session.trace, duration / 3, duration),
        "switches": session.acker_switches,
    }
    session.close()
    return ExperimentResult(
        name="scalability",
        params={"scale": scale, "seed": seed, "n_receivers": n_receivers,
                "network_elements": network_elements},
        metrics=point,
        expectation=(
            "source-side load is group-size independent: ~1 ACK per "
            "data packet (single acker) at every N; NE suppression "
            "keeps NAKs-per-loss-event roughly constant while without "
            "NEs it grows with the co-located group; throughput is "
            "unchanged across the ladder"
        ),
    )


# ---------------------------------------------------------------------------
# Part 2 — the equivalence oracle (fidelity gate for hybrid mode)
# ---------------------------------------------------------------------------


def _run_mode(mode: str, n: int, subtrees: int, duration: float, seed: int,
              drops: tuple[int, ...]) -> dict:
    net = dumbbell_subtrees(
        n, subtrees=subtrees, bottleneck=HYBRID_BOTTLENECK, seed=seed,
        members="real" if mode == "exact" else "virtual",
    )
    if drops:
        net.link("R0", net.subtree_plan.router(0)).loss = (
            DeterministicLoss(drops))
    cfg = SessionConfig(stop_at=duration, aggregate=(mode == "hybrid"))
    plan = net.subtree_plan
    hosts = ([plan.identity(k, i) for k in range(subtrees)
              for i in range(plan.sizes[k])] if mode == "exact" else [])
    session = create_session(net, "h0", hosts, config=cfg)
    enable_network_elements(net)
    # Window-trajectory sampling: W at a fixed sim-time grid.  The
    # digest is over rounded samples, so it pins the *trajectory* while
    # staying robust to float formatting.
    samples: list[float] = []

    def sample() -> None:
        samples.append(round(session.sender.controller.window.w, 3))
        if net.sim.now < duration:
            net.sim.schedule(0.25, sample)

    net.sim.schedule(0.25, sample)
    net.sim.run(until=duration + 1.0)
    summary = session.summary()
    out = {
        "acker": summary["acker"],
        "switches": summary["acker_switches"],
        "odata": summary["odata_sent"],
        "acks": summary["acks_received"],
        "goodput": session.throughput_bps(duration / 3, duration),
        "window_digest": hashlib.sha256(
            repr(samples).encode()).hexdigest()[:16],
    }
    session.close()
    return out


def exact_vs_hybrid(
    n: int = 36,
    subtrees: int = 3,
    duration: float = 8.0,
    seed: int = 7,
    drops: tuple[int, ...] = (100, 600, 1100),
) -> dict:
    """Run the same group exact and hybrid; compare what the oracle pins.

    Behind identical shared bottlenecks the aggregate tail is
    packet-for-packet equivalent to a full population as long as
    repairs complete without straggler re-NAK chains — which the
    deterministic sparse-loss pattern used here guarantees.  The
    comparison keys:

    * ``acker_match`` — the elections pick the same receiver identity;
    * ``digest_match`` — the window trajectories (W sampled every
      0.25 s, rounded to 1e-3) are digest-equal;
    * ``goodput_rel_err`` — relative goodput difference; the oracle's
      documented tolerance is :data:`GOODPUT_TOLERANCE` (sustained
      *random* loss shifts NAK retry timing between the two modes, so
      goodput is a tolerance comparison, not an equality).
    """
    exact = _run_mode("exact", n, subtrees, duration, seed, drops)
    hybrid = _run_mode("hybrid", n, subtrees, duration, seed, drops)
    goodput_rel = (abs(exact["goodput"] - hybrid["goodput"])
                   / max(exact["goodput"], 1.0))
    return {
        "exact": exact,
        "hybrid": hybrid,
        "acker_match": exact["acker"] == hybrid["acker"],
        "digest_match": exact["window_digest"] == hybrid["window_digest"],
        "goodput_rel_err": goodput_rel,
        "goodput_within_tolerance": goodput_rel <= GOODPUT_TOLERANCE,
    }


# ---------------------------------------------------------------------------
# Part 3 — the hybrid ladder (one cell = one orchestrator task)
# ---------------------------------------------------------------------------


def run_hybrid_cell(n: int = 100_000, scale: float = 1.0,
                    seed: int = 101) -> ExperimentResult:
    """One hybrid-fidelity scale cell: ``n`` receivers behind K
    subtrees, under the invariant checker.

    Losses are deterministic (periodic, on two subtrees) so cells are
    reproducible and comparable across ``n``.
    """
    k = min(64, max(4, n // 2_000))
    duration = max(6.0, 20.0 * scale)
    net = dumbbell_subtrees(n, subtrees=k, bottleneck=HYBRID_BOTTLENECK,
                            seed=seed)
    net.link("R0", net.subtree_plan.router(0)).loss = PeriodicLoss(
        period=50, offset=17)
    net.link("R0", net.subtree_plan.router(1)).loss = PeriodicLoss(
        period=80, offset=31)
    cfg = SessionConfig(stop_at=duration, aggregate=True,
                        check_invariants=True, strict_invariants=False)
    session = create_session(net, "h0", [], config=cfg)
    enable_network_elements(net, telemetry=session.metrics)
    net.sim.run(until=duration + 1.0)
    summary = session.summary()
    agg = summary["aggregate"]
    point = {
        "population": agg["population"],
        "subtrees": agg["subtrees"],
        "exact_cohort": agg["exact_cohort"],
        "tail": agg["tail"],
        "promotions": agg["promotions"],
        "demotions": agg["demotions"],
        "synthetic_naks": agg["synthetic_naks"],
        "odata": summary["odata_sent"],
        "acks": summary["acks_received"],
        "acks_per_data": (summary["acks_received"]
                          / max(summary["odata_sent"], 1)),
        "rate": session.throughput_bps(duration / 3, duration),
        "invariant_violations": len(session.invariants.violations),
    }
    session.close()
    return ExperimentResult(
        name="scalability-hybrid",
        params={"n": n, "subtrees": k, "scale": scale, "seed": seed,
                "duration": duration},
        metrics=point,
        expectation=(
            "hybrid fidelity keeps memory bounded per subtree and "
            "construction+run wall time seconds even at 10^6 "
            "receivers, with zero invariant violations"
        ),
    )
