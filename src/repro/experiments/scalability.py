"""EXP-SCALE — §4's scalability study, pushed from 200 to 10^6 receivers.

pgmcc's scalability claims (§3) are about *constant* source-side state
and feedback load:

* exactly one receiver ACKs, so the ACK stream at the source is one
  per data packet regardless of the group size;
* NAKs are deduplicated — by NE suppression where routers help, and by
  the sender's repair holdoff otherwise — so correlated losses behind a
  shared bottleneck do not implode at the source;
* throughput is set by the acker's path, not by the group size.

The experiment has three parts:

1. the paper's own ladder (25–200 full receiver engines behind one
   bottleneck, with and without NEs) — unchanged from the original
   reproduction, exact per-receiver fidelity;
2. an **equivalence cell** (:func:`exact_vs_hybrid`): the same small
   group run once with full engines and once through
   :mod:`repro.pgm.aggregate`'s hybrid mode, asserting the two agree
   on acker identity, window-trajectory digest and goodput — the
   fidelity gate for part 3;
3. a **hybrid ladder** (:func:`run_hybrid_cell`): 10^3 → 10^6
   receivers behind K shared bottlenecks with the aggregate-tail
   subsystem.  What a cell costs in seconds and megabytes is measured
   from outside, by the ``hybrid_1e6`` workload of ``benchmarks/perf``.
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
from .common import ExperimentResult, kbps

#: documented goodput tolerance of the equivalence oracle (relative).
GOODPUT_TOLERANCE = 0.05

#: bottleneck used by the hybrid cells: moderate capacity, short
#: delay, clean (losses are injected deterministically per subtree so
#: cells are reproducible and the single rate doesn't collapse to the
#: min of K independently-lossy paths).
HYBRID_BOTTLENECK = LinkSpec(rate_bps=2_000_000, delay=0.02)

#: default hybrid ladder (receivers per cell).
HYBRID_SIZES = (1_000, 10_000, 100_000, 1_000_000)


# ---------------------------------------------------------------------------
# Part 1 — the paper's exact ladder (unchanged behaviour and metric keys)
# ---------------------------------------------------------------------------


def run_point(n_receivers: int, with_ne: bool, duration: float, seed: int,
              result: ExperimentResult | None = None) -> dict:
    net = dumbbell(1, n_receivers, NON_LOSSY, seed=seed)
    session = create_session(
        net, "h0", [f"r{i}" for i in range(n_receivers)]
    )
    if with_ne:
        enable_network_elements(net, telemetry=session.metrics)
    net.run(until=duration)
    sender = session.sender
    loss_events = max(session.trace.count("cc-loss"), 1)
    out = {
        "odata": sender.odata_sent,
        "acks": sender.acks_received,
        "naks": sender.naks_received,
        "naks_per_loss": sender.naks_received / loss_events,
        "acks_per_data": sender.acks_received / max(sender.odata_sent, 1),
        "rate": throughput_bps(session.trace, duration / 3, duration),
        "switches": session.acker_switches,
    }
    if result is not None:
        result.attach_telemetry(session, seed=seed, receivers=n_receivers,
                                with_ne=with_ne)
    session.close()
    return out


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


def subtrees_for(n: int) -> int:
    """Default subtree count for an ``n``-receiver hybrid cell."""
    return min(64, max(4, n // 2_000))


def run_hybrid_cell(
    n: int = 100_000,
    scale: float = 1.0,
    seed: int = 101,
    subtrees: int | None = None,
    check_invariants: bool = True,
) -> ExperimentResult:
    """One hybrid-fidelity scale cell: ``n`` receivers, K subtrees.

    Losses are deterministic (periodic, on two subtrees) so cells are
    reproducible and comparable across ``n``.  Returns per-cell metrics
    prefixed ``hyb{n}:``.
    """
    k = subtrees if subtrees is not None else subtrees_for(n)
    duration = max(6.0, 20.0 * scale)
    net = dumbbell_subtrees(n, subtrees=k, bottleneck=HYBRID_BOTTLENECK,
                            seed=seed)
    net.link("R0", net.subtree_plan.router(0)).loss = PeriodicLoss(
        period=50, offset=17)
    if k > 1:
        net.link("R0", net.subtree_plan.router(1)).loss = PeriodicLoss(
            period=80, offset=31)
    cfg = SessionConfig(stop_at=duration, aggregate=True,
                        check_invariants=check_invariants,
                        strict_invariants=False)
    session = create_session(net, "h0", [], config=cfg)
    enable_network_elements(net, telemetry=session.metrics)
    net.sim.run(until=duration + 1.0)
    summary = session.summary()
    agg = summary["aggregate"]
    violations = (len(session.invariants.violations)
                  if session.invariants is not None else 0)

    result = ExperimentResult(
        name=f"scalability-hybrid-{n}",
        params={"n": n, "subtrees": k, "scale": scale, "seed": seed,
                "duration": duration},
        expectation=(
            "hybrid fidelity keeps memory bounded per subtree and "
            "construction+run wall time seconds even at 10^6 "
            "receivers, with zero invariant violations"
        ),
    )
    label = f"hyb{n}"
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
        "invariant_violations": violations,
    }
    for key, value in point.items():
        result.metrics[f"{label}:{key}"] = value
    result.add_row(
        receivers=n,
        subtrees=k,
        exact_cohort=agg["exact_cohort"],
        promotions=agg["promotions"],
        rate_kbps=kbps(point["rate"]),
        violations=violations,
    )
    session.close()
    return result


def run_hybrid_ladder(result: ExperimentResult, sizes: tuple[int, ...],
                      scale: float, seed: int) -> None:
    """Run the hybrid cells in order and fold each into ``result``."""
    for n in sizes:
        cell = run_hybrid_cell(n, scale=scale, seed=seed)
        result.metrics.update(cell.metrics)
        result.rows.extend(cell.rows)


# ---------------------------------------------------------------------------
# The experiment entry point
# ---------------------------------------------------------------------------


def run(
    scale: float = 1.0,
    seed: int = 101,
    group_sizes: tuple[int, ...] = (25, 50, 100, 200),
    hybrid_sizes: tuple[int, ...] | None = None,
) -> ExperimentResult:
    duration = 60.0 * scale
    result = ExperimentResult(
        name="scalability",
        params={"scale": scale, "seed": seed, "group_sizes": group_sizes},
        expectation=(
            "source-side load is group-size independent: ~1 ACK per "
            "data packet (single acker) at every N; NE suppression "
            "keeps NAKs-per-loss-event roughly constant while without "
            "NEs it grows with the co-located group; throughput is "
            "unchanged across two orders of magnitude of receivers; "
            "hybrid-fidelity cells extend the sweep to 10^6 receivers "
            "with bounded memory, gated by an exact-vs-hybrid "
            "equivalence oracle"
        ),
    )
    largest = max(group_sizes)
    for n in group_sizes:
        for with_ne in (False, True):
            # Ship one session-metrics document: the largest NE run
            # (the configuration the scalability claim is about).
            attach_to = result if (n == largest and with_ne) else None
            point = run_point(n, with_ne, duration, seed, result=attach_to)
            result.add_row(
                receivers=n,
                network_elements=with_ne,
                rate_kbps=kbps(point["rate"]),
                acks_per_data=round(point["acks_per_data"], 2),
                naks_at_source=point["naks"],
                naks_per_loss=round(point["naks_per_loss"], 1),
            )
            label = f"n{n}:{'ne' if with_ne else 'plain'}"
            for key, value in point.items():
                result.metrics[f"{label}:{key}"] = value

    # Fidelity gate before the hybrid ladder is trusted.
    equiv = exact_vs_hybrid(seed=seed % 1000 or 7)
    result.metrics["equiv:acker_match"] = equiv["acker_match"]
    result.metrics["equiv:digest_match"] = equiv["digest_match"]
    result.metrics["equiv:goodput_rel_err"] = round(
        equiv["goodput_rel_err"], 6)
    result.metrics["equiv:ok"] = (
        equiv["acker_match"] and equiv["digest_match"]
        and equiv["goodput_within_tolerance"]
    )

    if hybrid_sizes is None:
        # Scale-adapted default: quick lanes skip the top of the
        # ladder (a 10^6 cell is seconds, but quick lanes are for
        # smoke, not scale measurement).
        hybrid_sizes = HYBRID_SIZES if scale >= 0.4 else HYBRID_SIZES[:2]
    run_hybrid_ladder(result, hybrid_sizes, scale, seed)
    return result
