"""EXP-RESILIENCE: partition-tolerant session recovery under an SLO.

The paper assumes the feedback path exists; this experiment measures
what the reproduction does when it *doesn't*.  Every registered
controller backend (:mod:`repro.core.controller`) runs — with the
acker-liveness watchdog attached (``liveness=True``) — through three
fault scenarios on the non-lossy dumbbell:

``partition``
    The topology is bisected between the routers for 15 % of the run:
    no data, no feedback, nothing crosses.  On heal the session must
    re-elect, repair (or resync past) the outage span and return to
    its pre-fault rate.
``blackhole``
    A :class:`~repro.simulator.faults.ControlBlackhole` eats every
    ACK/NAK on the reverse bottleneck while data keeps flowing — the
    asymmetric-failure case the watchdog's degraded mode exists for
    (feedback loss must not become an unbounded stall-backoff spiral).
``acker-crash``
    The current acker's host dies permanently
    (:class:`~repro.simulator.faults.NodeCrash` on the
    :data:`~repro.simulator.faults.ACKER` sentinel).  Liveness here is
    detection speed: the watchdog demotes on the first ACK timeout
    rather than after :data:`~repro.core.sender_cc.ELICIT_AFTER_STALLS`
    stall backoffs.

**Time-to-recover (TTR)** — the headline metric — is measured by a
deterministic sim-clock delivery sampler: the first post-heal sampling
bin whose group-wide delivery rate reaches
:data:`RECOVERY_FRACTION` of the pre-fault rate, minus the heal time.
The SLO oracle is ``TTR <= TTR_SLO_S`` (:data:`TTR_SLO_RTT_MULTIPLE`
path RTTs).  Each cell also reports p99 stall duration, the fraction
of pre-fault goodput retained at the end of the run, resyncs and
unrecoverable loss from the ``recovery`` block of the session summary.

One extra baseline cell re-runs the pgmcc acker-crash scenario with
the watchdog *disabled*, so the report can state the watchdog's value
as a number: ``ttr_improvement_s = TTR(stall-only) - TTR(watchdog)``,
asserted positive by the ``watchdog_faster`` oracle.

Every session runs under the strict runtime invariant checker — a
single window/token-accounting violation during any fault or heal
aborts the experiment.  Sessions are digest-stable, so the manifest
entry is identical across ``-j1`` / ``-jN`` / cached runs.
"""

from __future__ import annotations

from typing import Optional

from ..core.controller import controller_names
from ..core.sender_cc import CcConfig
from ..pgm import create_session
from ..pgm.session import SessionConfig
from ..simulator import (
    ACKER,
    NON_LOSSY,
    ControlBlackhole,
    FaultPlan,
    NodeCrash,
    Partition,
    Timer,
    dumbbell,
)
from .common import ExperimentResult

#: scenario ids, in table order
SCENARIOS = ("partition", "blackhole", "acker-crash")

#: approximate forward+return path latency of the NON_LOSSY dumbbell
#: (three 50 ms hops each way); the SLO is expressed in these units.
BASE_RTT_S = 0.3

#: the recovery SLO: time-to-recover within this many path RTTs.  The
#: budget covers detection (an ACK-timeout of ~2 loaded RTTs), one
#: election round trip and the slow-start rate rebuild after the
#: recovery restart.
TTR_SLO_RTT_MULTIPLE = 15.0

#: absolute SLO bound (seconds) for window-based backends
TTR_SLO_S = TTR_SLO_RTT_MULTIPLE * BASE_RTT_S

#: rate-based backends (``Controller.kind == "rate"``, i.e. tfrc) pay
#: a documented smoothness tax: the TFRC increase rule rebuilds the
#: rate over many RTTs by design, so their recovery budget is wider.
#: This is a property of the backend's equation, not of the liveness
#: layer — detection and re-election land in the same few RTTs.
RATE_TTR_SLO_RTT_MULTIPLE = 50.0

RATE_TTR_SLO_S = RATE_TTR_SLO_RTT_MULTIPLE * BASE_RTT_S

#: a post-heal sampling bin "recovers" when its group-wide delivery
#: rate reaches this fraction of the pre-fault rate.
RECOVERY_FRACTION = 0.5

#: delivery-sampler bin width (simulated seconds)
SAMPLE_DT = 0.25

#: number of group receivers (r0..rN-1 on the dumbbell's right side)
N_RECEIVERS = 3

#: the one watchdog-off ``(controller, scenario, liveness)`` cell of
#: :func:`run`: the same crash with only the generic stall machinery
#: (two backed-off stall restarts before an election is solicited)
#: as the recovery path.
BASELINE_CELL = ("pgmcc", "acker-crash", False)


class DeliverySampler:
    """Sim-clock sampler of the group-wide cumulative delivery count.

    Scheduled like any other event, so the sample series — and every
    metric derived from it — is deterministic for a ``(seed, plan)``
    pair regardless of host timing or worker count.  A session probe:
    ``session.close()`` stops it and leaves the heap drainable.
    """

    def __init__(self, session, dt: float = SAMPLE_DT):
        self.sim = session.network.sim
        self.receivers = session.receivers
        self.dt = dt
        #: [(t, total delivered at t), ...] from t=0
        self.samples: list[tuple[float, int]] = []
        self._timer = Timer(self.sim, self._tick)
        session.metrics.add_probe(self)
        self._tick()

    def _tick(self) -> None:
        self.samples.append(
            (self.sim.now, sum(rx.delivered for rx in self.receivers)))
        self._timer.restart(self.dt)

    def stop(self) -> None:
        self._timer.cancel()

    def rates(self) -> list[tuple[float, float, float]]:
        """Per-bin delivery rates: ``[(t_start, t_end, pkts/s), ...]``."""
        out = []
        for (t0, d0), (t1, d1) in zip(self.samples, self.samples[1:]):
            if t1 > t0:
                out.append((t0, t1, (d1 - d0) / (t1 - t0)))
        return out

    def mean_rate(self, start: float, end: float) -> float:
        """Mean delivery rate over bins fully inside ``[start, end]``."""
        window = [r for t0, t1, r in self.rates()
                  if t0 >= start and t1 <= end]
        return sum(window) / len(window) if window else 0.0

    def time_to_recover(self, fault_at: float, heal_at: float,
                        pre_window: float) -> Optional[float]:
        """Time-to-recover, impact-aware.

        Finds the first *impacted* bin (rate below
        :data:`RECOVERY_FRACTION` of the pre-fault mean) at or after
        ``fault_at``, then the first bin at or after it whose rate is
        back above the threshold.  Returns that bin's end minus
        ``heal_at`` (clamped to 0 — recovering faster than the fault
        heals is a zero, not a negative), ``0.0`` when the fault never
        dented the delivery rate, and ``None`` when the run never
        recovers.  For permanent faults (``heal_at == fault_at``) this
        measures the full disruption window: detection + re-election +
        rate rebuild."""
        pre = self.mean_rate(fault_at - pre_window, fault_at)
        if pre <= 0:
            return None
        threshold = RECOVERY_FRACTION * pre
        impacted = False
        for t0, t1, rate in self.rates():
            if t0 < fault_at:
                continue
            if not impacted:
                impacted = rate < threshold
            if impacted and rate >= threshold:
                return max(0.0, t1 - heal_at)
        return 0.0 if not impacted else None


def _fault_plan(scenario: str, fault_at: float,
                fault_duration: float) -> tuple[FaultPlan, float]:
    """The scenario's fault schedule and its heal time (when recovery
    can physically begin)."""
    if scenario == "partition":
        receivers = tuple(f"r{i}" for i in range(N_RECEIVERS))
        plan = FaultPlan((
            Partition(side_a=("h0", "R0"), side_b=("R1",) + receivers,
                      at=fault_at, duration=fault_duration),
        ))
        return plan, fault_at + fault_duration
    if scenario == "blackhole":
        plan = FaultPlan((
            ControlBlackhole(a="R1", b="R0", at=fault_at,
                             duration=fault_duration,
                             kinds=("Ack", "Nak")),
        ))
        return plan, fault_at + fault_duration
    if scenario == "acker-crash":
        # Permanent: the heal time is the crash itself — recovery is
        # electing a live acker, and the group is down one receiver
        # (the 50% recovery threshold absorbs the smaller group).
        return FaultPlan((NodeCrash(ACKER, at=fault_at),)), fault_at
    raise ValueError(f"unknown scenario {scenario!r}")


def run_bout(controller: str, scenario: str, duration: float,
             seed: int = 31, liveness: bool = True,
             result: Optional[ExperimentResult] = None) -> dict:
    """One controller through one fault scenario; returns the cell."""
    fault_at = 0.4 * duration
    fault_duration = 0.15 * duration
    plan, heal_at = _fault_plan(scenario, fault_at, fault_duration)
    net = dumbbell(1, N_RECEIVERS, NON_LOSSY, seed=seed)
    session = create_session(
        net, "h0", [f"r{i}" for i in range(N_RECEIVERS)],
        config=SessionConfig(
            cc=CcConfig(controller=controller, liveness=liveness),
            faults=plan,
            check_invariants=True, strict_invariants=True,
        ),
    )
    sampler = DeliverySampler(session)
    backend_kind = session.sender.controller.backend.kind
    net.run(until=duration)
    session.invariants.verify_now()

    pre_window = 0.2 * duration
    ttr = sampler.time_to_recover(fault_at, heal_at, pre_window)
    slo_s = TTR_SLO_S if backend_kind == "window" else RATE_TTR_SLO_S
    pre_rate = sampler.mean_rate(fault_at - pre_window, fault_at)
    post_rate = sampler.mean_rate(duration - pre_window, duration)
    summary = session.summary()
    recovery = summary["recovery"]
    stall_hist = summary["stall_duration"]
    cell = {
        "controller": controller,
        "scenario": scenario,
        "liveness": liveness,
        "kind": backend_kind,
        "ttr_s": None if ttr is None else round(ttr, 3),
        "slo_s": slo_s,
        "slo_ok": ttr is not None and ttr <= slo_s,
        "p99_stall_s": round((stall_hist["p99"] or 0.0)
                             if stall_hist else 0.0, 3),
        "goodput_retained": round(post_rate / pre_rate, 3) if pre_rate else 0.0,
        "demotions": recovery["demotions"],
        "degraded_entries": recovery["degraded_entries"],
        "degraded_time_s": round(recovery["degraded_time_s"], 3),
        "resyncs": recovery["resyncs"],
        "unrecoverable": recovery["unrecoverable_loss"],
        "stalls": summary["stalls"],
        "invariant_violations": len(session.invariants.violations),
    }
    if result is not None:
        result.attach_telemetry(session, seed=seed, controller=controller,
                                scenario=scenario)
    session.close()
    return cell


def run_cell(scale: float = 1.0, seed: int = 31,
             controller: str = "pgmcc", scenario: str = "partition",
             liveness: bool = True) -> ExperimentResult:
    """One resilience bout as a standalone experiment (the sweep cell).

    Exposes ``liveness`` as a real parameter, so a sweep can state the
    watchdog's value as a per-axis delta (``run()`` has the single
    watchdog-off :data:`BASELINE_CELL`).
    """
    duration = 60.0 * scale
    result = ExperimentResult(
        name=f"resilience-cell-{controller}-{scenario}",
        params={"scale": scale, "seed": seed, "controller": controller,
                "scenario": scenario, "liveness": liveness},
        expectation="one cell of the EXP-RESILIENCE fault matrix",
    )
    cell = run_bout(controller, scenario, duration, seed=seed,
                    liveness=liveness)
    result.add_row(**cell)
    for key, value in cell.items():
        if key not in ("controller", "scenario", "kind", "liveness"):
            result.metrics[key] = value
    result.metrics["recovered"] = cell["ttr_s"] is not None
    return result


def run(scale: float = 1.0, seed: int = 31,
        controllers: Optional[tuple[str, ...]] = None) -> ExperimentResult:
    duration = 60.0 * scale
    names = tuple(controllers) if controllers else controller_names()
    result = ExperimentResult(
        name="resilience",
        params={"scale": scale, "seed": seed, "controllers": list(names),
                "scenarios": list(SCENARIOS), "ttr_slo_s": TTR_SLO_S,
                "rate_ttr_slo_s": RATE_TTR_SLO_S,
                "recovery_fraction": RECOVERY_FRACTION,
                "n_receivers": N_RECEIVERS},
        expectation=(
            "every controller recovers from every fault scenario within "
            "the TTR SLO with zero runtime-invariant violations, and the "
            "liveness watchdog recovers the acker-crash strictly faster "
            "than the generic stall timer alone"
        ),
    )
    # table order: the watchdog-on matrix by (controller, scenario),
    # the baseline cell last
    matrix = sorted({(name, scenario, True)
                     for name in names for scenario in SCENARIOS})
    cells: dict[tuple[str, str, bool], dict] = {}
    for key in matrix + [BASELINE_CELL]:
        name, scenario, liveness = key
        # Ship one session-metrics document: pgmcc under partition
        # (the scenario the liveness gauges were built for).
        attach = result if (name, scenario) == ("pgmcc", "partition") else None
        cells[key] = run_bout(name, scenario, duration, seed=seed,
                              liveness=liveness, result=attach)
        result.add_row(**cells[key])
    watchdog_on = [cells[key] for key in matrix]

    for cell in watchdog_on:
        prefix = f"{cell['controller']}:{cell['scenario']}"
        for key in ("ttr_s", "slo_ok", "p99_stall_s", "goodput_retained",
                    "resyncs", "unrecoverable", "invariant_violations"):
            result.metrics[f"{prefix}:{key}"] = cell[key]

    result.metrics["all_recovered"] = all(
        c["ttr_s"] is not None for c in watchdog_on)
    result.metrics["all_slo_ok"] = all(c["slo_ok"] for c in watchdog_on)
    result.metrics["total_invariant_violations"] = sum(
        c["invariant_violations"] for c in cells.values())
    if "pgmcc" in names:
        wd_ttr = cells[("pgmcc", "acker-crash", True)]["ttr_s"]
        st_ttr = cells[BASELINE_CELL]["ttr_s"]
        result.metrics["ttr_watchdog_s"] = wd_ttr
        result.metrics["ttr_stall_only_s"] = st_ttr
        improvement = (None if wd_ttr is None or st_ttr is None
                       else round(st_ttr - wd_ttr, 3))
        result.metrics["ttr_improvement_s"] = improvement
        result.metrics["watchdog_faster"] = (
            improvement is not None and improvement > 0)
    return result
