"""EXP-RESILIENCE: partition-tolerant session recovery under an SLO.

The paper assumes the feedback path exists; this experiment measures
what the reproduction does when it *doesn't*.  EXP-RESILIENCE is a
registered study: each of the four built-in controller backends
(:mod:`repro.core.controller`) runs — with the acker-liveness watchdog
attached (``liveness=True``) — through three fault scenarios on the
non-lossy dumbbell, one :func:`run_cell` bout per ``controller x
scenario`` cell:

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

:func:`aggregate_cells` gives the study its three oracles:
``all_recovered``, ``all_slo_ok`` and ``total_invariant_violations``.
The watchdog's value is the ABL-WATCHDOG study's: it re-runs the pgmcc
acker-crash cell with the watchdog *disabled*, so its ``liveness``
axis delta of ``ttr_s`` is TTR(stall-only) - TTR(watchdog), positive
when the watchdog recovers faster.

Every session runs under the strict runtime invariant checker — a
single window/token-accounting violation during any fault or heal
aborts the cell.  Sessions are digest-stable, so every cell's manifest
entry is identical across ``-j1`` / ``-jN`` / cached runs.
"""

from __future__ import annotations

from typing import Optional

from ..core.sender_cc import CcConfig
from ..pgm import create_session
from ..pgm.session import SessionConfig
from ..simulator import NON_LOSSY, Timer, dumbbell
from ..simulator.faults import (
    ACKER,
    ControlBlackhole,
    FaultPlan,
    NodeCrash,
    Partition,
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
             seed: int = 31, liveness: bool = True) -> dict:
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
    session.close()
    return cell


def run_cell(scale: float = 1.0, seed: int = 31,
             controller: str = "pgmcc", scenario: str = "partition",
             liveness: bool = True) -> ExperimentResult:
    """One resilience bout: a cell of the EXP-RESILIENCE and
    ABL-WATCHDOG studies (and of any sweep over
    ``EXP-RESILIENCE-CELL``).  ``liveness=False`` leaves only the
    generic stall machinery (two backed-off stall restarts before an
    election is solicited) as the recovery path, so a study states the
    watchdog's value as a per-axis delta."""
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


def aggregate_cells(cells: list) -> dict:
    """The EXP-RESILIENCE study's aggregate hook: did every cell
    recover, within its SLO tier, with no invariant violated?

    ``cells`` is ``[(axes_dict, ExperimentResult), ...]`` as handed
    over by :func:`repro.sweep.aggregate.run_custom_aggregate`.
    """
    metrics = [result.metrics for _axes, result in cells]
    return {"metrics": {
        "all_recovered": all(m["recovered"] for m in metrics),
        "all_slo_ok": all(m["slo_ok"] for m in metrics),
        "total_invariant_violations": sum(
            m["invariant_violations"] for m in metrics),
    }}
