"""EXP-ARENA: head-to-head congestion-controller comparison.

The paper's claim is architectural: *any* TCP-compatible window
controller, clocked by the elected acker, makes the whole multicast
group TCP-friendly (§3.4).  The arena tests that the harness can tell
a TCP-friendly controller from an unfriendly one by running every
registered backend (:mod:`repro.core.controller`) through the same
scenario matrix:

``clean-tcp``
    Fig. 4's scene — the session shares the non-lossy bottleneck with
    one TCP flow.  Measures goodput and the TCP-fairness ratio.
``fault``
    The lossy configuration with a mid-run loss burst on the
    bottleneck (an 8 % :class:`LinkImpairment` episode): recovery
    behavior, repair latency and stall time under transient stress.
``adversary``
    Fig. 4's scene plus a greedy acker (ackership capture + optimistic
    ACKs) with the :class:`~repro.pgm.guard.FeedbackGuard` engaged:
    does the controller stay within its fair share while the guard
    quarantines the attacker?

Each controller gets one row in the ranked table: goodput, fairness
ratio (pgmcc-vs-TCP throughput in the shared window), p99 repair
latency and total stall time.  Rank order is fairness first —
``|log2(ratio)|``, how far from an equal split, exactly 0 for perfect
sharing — with goodput as the tie-break, so a controller that starves
TCP (jain, which ignores loss signals) or starves itself ranks below
one that shares.

Two oracle metrics gate the harness itself: ``pgmcc_in_envelope``
(pgmcc's fairness ratio stays inside :data:`FAIRNESS_ENVELOPE`,
the documented claim) and ``discriminates`` (at least one alternative
lands *outside* the envelope — if every controller looked TCP-friendly
the arena would be measuring nothing).

Every session runs under the runtime invariant checker; the sessions
are digest-stable, so the arena's manifest entry is identical across
``-j1`` / ``-jN`` / cached runs.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from ..analysis import throughput_bps, throughput_ratio
from ..core.controller import controller_names
from ..core.sender_cc import CcConfig
from ..pgm import create_session
from ..pgm.session import SessionConfig
from ..simulator import (
    LOSSY,
    NON_LOSSY,
    FaultPlan,
    GreedyAcker,
    LinkImpairment,
    dumbbell,
)
from ..tcp import create_tcp_flow
from .common import ExperimentResult, kbps

#: pgmcc's documented TCP-fairness envelope for the clean-tcp scenario:
#: the session-to-TCP throughput ratio in the shared window.  The paper
#: reports "good sharing ... in all configurations" (§4, Fig. 4); the
#: reproduction's EXP-F4 lands near 1, and this envelope (≈ ±1.3×
#: in log2 terms) is the widest band we still call TCP-friendly.
FAIRNESS_ENVELOPE = (0.4, 2.5)

#: the misbehaving receiver in the adversary scenario
ATTACKER = "r0"

#: scenario ids, in table order
SCENARIOS = ("clean-tcp", "fault", "adversary")


def fairness_score(ratio: float) -> float:
    """Distance from a perfect split: ``|log2(ratio)|`` (0 = equal)."""
    if ratio <= 0:
        return math.inf
    return abs(math.log2(ratio))


def in_envelope(ratio: float) -> bool:
    low, high = FAIRNESS_ENVELOPE
    return low <= ratio <= high


def _scenario_net(scenario: str, duration: float, seed: int,
                  n_receivers: int):
    """Topology + per-scenario extras; returns (net, cfg_kwargs, tcp?)."""
    spec = LOSSY if scenario == "fault" else NON_LOSSY
    net = dumbbell(2, n_receivers + 1, spec, seed=seed)
    cfg: dict[str, Any] = {}
    if scenario == "fault":
        # Mid-run loss burst on the bottleneck: 8% for a fifth of the
        # run, on top of the lossy path's own 3%.
        cfg["faults"] = FaultPlan((
            LinkImpairment("R0", "R1", at=0.4 * duration,
                           duration=0.2 * duration, loss_rate=0.08,
                           both=False),
        ))
    elif scenario == "adversary":
        cfg["faults"] = FaultPlan((GreedyAcker(ATTACKER, at=0.15 * duration),))
        cfg["guard"] = True
        # Bound the optimistic-ACK blow-up so unfriendly controllers
        # terminate in reasonable wall time (same cap as EXP-ADV).
        cfg["max_rate_bps"] = 2_000_000
    tcp_host = f"r{n_receivers}" if scenario != "fault" else None
    return net, cfg, tcp_host


def run_bout(controller: str, scenario: str, duration: float,
             seed: int = 23, n_receivers: int = 4,
             result: Optional[ExperimentResult] = None) -> dict:
    """One controller through one scenario; returns the measurements."""
    net, extra, tcp_host = _scenario_net(scenario, duration, seed, n_receivers)
    session = create_session(
        net, "h0", [f"r{i}" for i in range(n_receivers)],
        config=SessionConfig(
            cc=CcConfig(controller=controller),
            check_invariants=True, strict_invariants=False,
            **extra,
        ),
    )
    tcp = None
    if tcp_host is not None:
        tcp = create_tcp_flow(net, "h1", tcp_host)
    net.run(until=duration)
    session.invariants.verify_now()

    t0 = duration / 3.0
    goodput = throughput_bps(session.trace, t0, duration)
    ratio = None
    if tcp is not None:
        ratio = throughput_ratio(goodput, tcp.throughput_bps(t0, duration))
    summary = session.summary()
    repair = summary["repair_latency"]
    stall = summary["phases"].get("stall", {})
    out = {
        "controller": controller,
        "scenario": scenario,
        "goodput_bps": goodput,
        "fairness_ratio": ratio,
        # the histogram snapshot exists with p99=None when no repair
        # completed inside the measurement window (short/clean bouts)
        "repair_p99_s": (repair["p99"] or 0.0) if repair else 0.0,
        "stall_s": stall.get("total_s", 0.0),
        "stalls": summary["stalls"],
        "rdata_sent": summary["rdata_sent"],
        "unrecoverable": summary["unrecoverable_data_loss"],
        "invariant_violations": len(session.invariants.violations),
        "quarantines": (summary["guard"]["quarantines"]
                        if summary["guard"] else 0),
    }
    if result is not None:
        result.attach_telemetry(session, seed=seed, controller=controller,
                                scenario=scenario)
    session.close()
    if tcp is not None:
        tcp.close()
    return out


def rank_controllers(bouts: dict[tuple[str, str], dict]) -> list[dict]:
    """Aggregate per-controller rows, ranked fairest-first.

    Sort key: fairness distance in the clean-tcp scenario (the paper's
    headline claim), then higher goodput.  Deterministic: ties beyond
    that break on the controller name.
    """
    rows = []
    controllers = sorted({c for c, _ in bouts})
    for name in controllers:
        clean = bouts[(name, "clean-tcp")]
        fault = bouts[(name, "fault")]
        adv = bouts[(name, "adversary")]
        ratio = clean["fairness_ratio"]
        rows.append({
            "controller": name,
            "fairness_ratio": round(ratio, 3),
            "fairness_score": round(fairness_score(ratio), 3),
            "tcp_friendly": in_envelope(ratio),
            "goodput_kbps": kbps(clean["goodput_bps"]),
            "fault_goodput_kbps": kbps(fault["goodput_bps"]),
            "adv_ratio": round(adv["fairness_ratio"], 3),
            "repair_p99_ms": round(1e3 * max(
                b["repair_p99_s"] for b in (clean, fault, adv)), 1),
            "stall_s": round(sum(
                b["stall_s"] for b in (clean, fault, adv)), 3),
            "inv_violations": sum(
                b["invariant_violations"] for b in (clean, fault, adv)),
        })
    rows.sort(key=lambda r: (r["fairness_score"], -r["goodput_kbps"],
                             r["controller"]))
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    # rank first in the rendered table
    return [{"rank": r["rank"], **{k: v for k, v in r.items() if k != "rank"}}
            for r in rows]


def matrix_table(bouts: dict[tuple[str, str], dict]) -> dict:
    """``{(controller, scenario): bout}`` -> the ranked rows and the two
    harness oracles: the one table behind both :func:`run` and the
    sweep's :func:`aggregate_cells`.

    Controllers missing a scenario (a sweep over a sub-matrix) get no
    row; the oracles need pgmcc's row.
    """
    complete = {name for name, _ in bouts
                if all((name, s) in bouts for s in SCENARIOS)}
    rows = rank_controllers({key: bout for key, bout in bouts.items()
                             if key[0] in complete})
    metrics: dict[str, object] = {}
    if "pgmcc" in complete:
        pgmcc_ratio = bouts[("pgmcc", "clean-tcp")]["fairness_ratio"]
        metrics["pgmcc_in_envelope"] = in_envelope(pgmcc_ratio)
        metrics["discriminates"] = any(
            not in_envelope(bouts[(n, "clean-tcp")]["fairness_ratio"])
            for n in complete if n != "pgmcc")
    return {"rows": rows, "metrics": metrics}


def run_cell(scale: float = 1.0, seed: int = 23, n_receivers: int = 4,
             controller: str = "pgmcc",
             scenario: str = "clean-tcp") -> ExperimentResult:
    """One arena bout as a standalone experiment (the sweep cell).

    The sweep DSL expands a ``controller x scenario`` grid into these,
    so each bout is cached, isolated and retried independently; the
    full ranked table is then rebuilt by :func:`aggregate_cells`.
    """
    duration = 120.0 * scale
    result = ExperimentResult(
        name=f"arena-cell-{controller}-{scenario}",
        params={"scale": scale, "seed": seed, "n_receivers": n_receivers,
                "controller": controller, "scenario": scenario},
        expectation="one cell of the EXP-ARENA scenario matrix",
    )
    bout = run_bout(controller, scenario, duration, seed=seed,
                    n_receivers=n_receivers)
    result.add_row(**bout)
    for key, value in bout.items():
        if key not in ("controller", "scenario"):
            result.metrics[key] = value
    ratio = bout["fairness_ratio"]
    if ratio is not None:
        result.metrics["fairness_score"] = round(fairness_score(ratio), 3)
        result.metrics["in_envelope"] = in_envelope(ratio)
    return result


def aggregate_cells(cells: list) -> dict:
    """Sweep aggregation hook: ranked table from expanded arena cells.

    ``cells`` is ``[(axes_dict, ExperimentResult), ...]`` as handed
    over by :func:`repro.sweep.aggregate.run_custom_aggregate`.  Each
    cell's first row is the raw bout, which is all
    :func:`matrix_table` needs.
    """
    bouts = {}
    for _axes, result in cells:
        bout = result.rows[0]
        bouts[(bout["controller"], bout["scenario"])] = bout
    return matrix_table(bouts)


def run(scale: float = 1.0, seed: int = 23, n_receivers: int = 4,
        controllers: Optional[tuple[str, ...]] = None) -> ExperimentResult:
    duration = 120.0 * scale
    names = tuple(controllers) if controllers else controller_names()
    result = ExperimentResult(
        name="controller-arena",
        params={"scale": scale, "seed": seed, "n_receivers": n_receivers,
                "controllers": list(names), "scenarios": list(SCENARIOS),
                "envelope": list(FAIRNESS_ENVELOPE)},
        expectation=(
            "pgmcc's fairness ratio stays inside the documented envelope "
            "in the clean-tcp scenario while at least one alternative "
            "controller lands outside it (the harness discriminates); "
            "all controllers hold the runtime invariants in every scenario"
        ),
    )
    bouts: dict[tuple[str, str], dict] = {}
    for name in names:
        for scenario in SCENARIOS:
            # Ship one session-metrics document: pgmcc under fault (the
            # scenario whose histograms/spans the table summarizes).
            attach = result if (name == "pgmcc" and scenario == "fault") else None
            bouts[(name, scenario)] = run_bout(
                name, scenario, duration, seed=seed,
                n_receivers=n_receivers, result=attach,
            )
    table = matrix_table(bouts)
    for row in table["rows"]:
        result.add_row(**row)
    for (name, scenario), bout in sorted(bouts.items()):
        prefix = f"{name}:{scenario}"
        for key in ("goodput_bps", "fairness_ratio", "repair_p99_s",
                    "stall_s", "stalls", "rdata_sent", "unrecoverable",
                    "invariant_violations", "quarantines"):
            result.metrics[f"{prefix}:{key}"] = bout[key]
    result.metrics.update(table["metrics"])
    return result
