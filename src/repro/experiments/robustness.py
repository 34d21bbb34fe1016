"""Robustness experiments the paper describes but does not plot.

* EXP-MPATH (§4): "topologies presenting multiple paths between sender
  and receiver ... to verify the robustness of the scheme to
  out-of-order data or ACK delivery".  We spray the multicast data
  over two parallel unequal-delay paths (per-packet round robin — the
  worst case for reordering) and check the session neither stalls nor
  collapses; the ACK bitmap is what absorbs the reordering (§3.3).
  :func:`run_multipath` is one path; the registered EXP-MPATH study
  runs the sprayed pair and a single-path reference of equal capacity.

* EXP-CHURN: sustained receiver churn, including departures of the
  current acker.  The election plus the stall machinery must keep the
  session alive; pgmcc treats each takeover as the acker *moving*.

* ABL-BURST: Gilbert-Elliott bursty loss vs Bernoulli loss at equal
  average rate, a registered ``ablate`` study over one cell.  The
  per-packet low-pass filter weighs every lost packet, so bursts
  inflate the loss estimate relative to TFRC's loss-event counting;
  the session survives both.

* EXP-CHAOS: a scripted :class:`~repro.simulator.faults.FaultPlan`
  (acker crash, bottleneck flap, burst loss, duplication, corruption,
  receiver pause) runs against a dumbbell session with the runtime
  :class:`~repro.pgm.invariants.InvariantChecker` attached as the
  oracle.  The session must survive every episode with zero invariant
  violations: crashes are absorbed by re-election (§3.5), a dead
  bottleneck drains the ACK clock until the stall machinery restarts
  from W = T = 1 (§3.2/§3.6), and duplicated or reordered traffic is
  absorbed by the ACK bitmap (§3.3).
"""

from __future__ import annotations

from ..analysis import throughput_bps
from ..pgm import add_receiver, create_session
from ..simulator import (
    ACCESS,
    GilbertElliottLoss,
    LinkSpec,
    Network,
    dumbbell,
    star,
)
from ..simulator.faults import (
    ACKER,
    BurstLoss,
    Corruption,
    Duplication,
    FaultPlan,
    NodeCrash,
    NodePause,
    flap_link,
)
from .common import ExperimentResult, kbps


#: the sprayed paths' one-way delay difference
DELAY_SKEW = 0.040


def build_multipath(seed: int, delay_skew: float) -> Network:
    """src -- E0 ={two parallel links}= E1 -- rx, ACKs return the same
    sprayed way."""
    net = Network(seed=seed)
    net.add_host("src")
    net.add_ecmp_router("E0")
    net.add_router("Pa")
    net.add_router("Pb")
    net.add_ecmp_router("E1")
    net.add_host("rx")
    net.duplex_link("src", "E0", ACCESS)
    net.duplex_link("E0", "Pa", LinkSpec(500_000, 0.030, queue_slots=30))
    net.duplex_link("E0", "Pb", LinkSpec(500_000, 0.030 + delay_skew, queue_slots=30))
    net.duplex_link("Pa", "E1", ACCESS)
    net.duplex_link("Pb", "E1", ACCESS)
    net.duplex_link("E1", "rx", ACCESS)
    net.build_routes()
    return net


def run_multipath(scale: float = 1.0, seed: int = 71,
                  path: str = "sprayed") -> ExperimentResult:
    """One path: ``sprayed`` over the two unequal-delay 500 kbit/s
    links, or the ``single`` 1 Mbit/s reference of the same capacity
    (the EXP-MPATH study runs both)."""
    duration = 120.0 * scale
    if path == "single":
        net = Network(seed=seed)
        net.add_host("src")
        net.add_router("R")
        net.add_host("rx")
        net.duplex_link("src", "R", ACCESS)
        net.duplex_link("R", "rx", LinkSpec(1_000_000, 0.030, queue_slots=60))
        net.build_routes()
        session = create_session(net, "src", ["rx"])
    else:
        net = build_multipath(seed, DELAY_SKEW)
        mcast_group = "mc:pgm-mpath"
        session = create_session(net, "src", ["rx"], group=mcast_group)
        # Spray both the downstream group traffic and the upstream
        # feedback.  The shortest-path tree only provisioned one of the
        # parallel routers, so graft the alternate one onto the group too.
        net.router("E0").set_ecmp(mcast_group, ["Pa", "Pb"])
        net.router("E1").set_ecmp("src", ["Pa", "Pb"])
        for parallel in ("Pa", "Pb"):
            net.router(parallel).multicast_routes[mcast_group] = ("E1",)
    net.run(until=duration)
    case = {
        "rate": throughput_bps(session.trace, duration / 3, duration),
        "stalls": session.sender.controller.stalls,
        "cc_losses": session.trace.count("cc-loss"),
        "duplicates": session.receivers[0].cc.duplicates,
    }
    session.close()
    return ExperimentResult(
        name="multipath-reordering",
        params={"scale": scale, "seed": seed, "path": path,
                "delay_skew": DELAY_SKEW},
        metrics=case,
        expectation=(
            "per-packet spraying over unequal-delay paths reorders both "
            "data and ACKs; the ACK bitmap absorbs it — the session "
            "must not stall or starve, at the cost of some spurious "
            "dupack reactions (as for TCP under reordering)"
        ),
    )


def run_churn(scale: float = 1.0, seed: int = 73, n_receivers: int = 8,
              churn_period: float = 15.0) -> ExperimentResult:
    """Receivers leave (including ackers) and rejoin on a rolling
    schedule; the session must stay alive throughout."""
    duration = 240.0 * scale
    net = star(n_receivers, LinkSpec(500_000, 0.050, queue_slots=30), seed=seed)
    names = [f"r{i}" for i in range(n_receivers)]
    session = create_session(net, "src", names[: n_receivers // 2])
    events: list[tuple[float, str, str]] = []

    def leave(rx_id: str) -> None:
        try:
            rx = session.receiver(rx_id)
        except KeyError:
            return
        events.append((net.sim.now, "leave", rx_id))
        rx.host.unregister_agent("pgm")
        rx.close()
        session.receivers.remove(rx)
        session.members.remove(rx_id)
        net.set_group(session.group, "src", session.members)

    def join(rx_id: str) -> None:
        events.append((net.sim.now, "join", rx_id))
        add_receiver(net, session, rx_id)

    # Rolling churn: every period, one member leaves and one outsider joins.
    period = churn_period * scale if scale < 1 else churn_period
    t = period
    index = 0
    while t < duration - period:
        leaver = names[index % n_receivers]
        joiner = names[(index + n_receivers // 2) % n_receivers]
        net.sim.schedule_at(t, leave, leaver)
        net.sim.schedule_at(t + period / 2, join, joiner)
        index += 1
        t += period
    net.run(until=duration)

    # Rate over the churny middle of the run.
    rate = throughput_bps(session.trace, duration / 4, duration)
    quiet_gap = _longest_data_gap(session.trace, duration / 4, duration)
    result = ExperimentResult(
        name="receiver-churn",
        params={"scale": scale, "seed": seed, "n_receivers": n_receivers},
        expectation=(
            "departures — including the current acker's — are absorbed "
            "by re-election and the stall machinery; the session never "
            "dies and throughput stays healthy"
        ),
    )
    result.add_row(
        churn_events=len(events),
        rate_kbps=kbps(rate),
        acker_switches=session.acker_switches,
        stalls=session.sender.controller.stalls,
        longest_tx_gap_s=round(quiet_gap, 2),
    )
    result.metrics.update(
        rate=rate,
        churn_events=len(events),
        switches=session.acker_switches,
        stalls=session.sender.controller.stalls,
        longest_gap=quiet_gap,
        final_members=len(session.members),
    )
    session.close()
    return result


def _longest_data_gap(trace, t0: float, t1: float) -> float:
    times = trace.between(t0, t1).times("data")
    if len(times) < 2:
        return t1 - t0
    return max(b - a for a, b in zip(times, times[1:]))


def run_bursty_loss(scale: float = 1.0, seed: int = 79,
                    pattern: str = "bernoulli") -> ExperimentResult:
    """ABL-BURST's cell: 2 % average loss, independent (``bernoulli``)
    or in bursts (``bursty``)."""
    duration = 180.0 * scale
    net = Network(seed=seed)
    net.add_host("src")
    net.add_router("R0")
    net.add_host("rx")
    net.duplex_link("src", "R0", ACCESS)
    fwd, _ = net.duplex_link(
        "R0", "rx", LinkSpec(2_000_000, 0.100, queue_bytes=30_000,
                             loss_rate=0.02 if pattern == "bernoulli" else 0.0)
    )
    net.build_routes()
    if pattern == "bursty":
        model = GilbertElliottLoss(
            net.rng.stream("burst"),
            p_good_to_bad=0.004, p_bad_to_good=0.2,
            good_loss=0.0, bad_loss=1.0,
        )
        # steady-state: 0.004/(0.204) ≈ 2% average loss, in bursts
        fwd.loss = model
    session = create_session(net, "src", ["rx"])
    net.run(until=duration)
    rx = session.receivers[0]
    case = {
        "rate": throughput_bps(session.trace, duration / 3, duration),
        "raw_loss": rx.cc.loss_filter.raw_loss_rate,
        "filter_loss": rx.loss_rate,
        "stalls": session.sender.controller.stalls,
    }
    session.close()
    return ExperimentResult(
        name="abl-bursty-loss",
        params={"scale": scale, "seed": seed, "pattern": pattern},
        metrics=case,
        expectation=(
            "at equal average packet loss, bursts cluster the losses "
            "into fewer congestion *events* — the one-reaction-per-RTT "
            "rule (§3.4) then halves once per burst, so the bursty "
            "link sustains a higher rate (exactly as TCP does); long "
            "bursts may briefly stall the ACK clock, which the stall "
            "machinery absorbs"
        ),
    )


def chaos_plan(duration: float) -> FaultPlan:
    """The EXP-CHAOS fault schedule, laid out over ``duration`` seconds.

    Episode times are fractions of the run so the same shape holds at
    any ``scale``: crash the current acker a quarter in, flap the
    bottleneck around the midpoint, then a burst-loss episode, a
    duplication episode, a corruption episode, and a receiver pause in
    the final third.
    """
    return FaultPlan(episodes=(
        NodeCrash(node=ACKER, at=0.25 * duration),
        *flap_link("R0", "R1", first_at=0.45 * duration,
                   down_for=0.02 * duration, up_for=0.05 * duration, cycles=3),
        BurstLoss("R0", "R1", at=0.70 * duration, duration=0.03 * duration,
                  loss_rate=0.8),
        Duplication("R0", "R1", at=0.75 * duration, duration=0.08 * duration,
                    rate=0.2),
        Corruption("R0", "R1", at=0.80 * duration, duration=0.08 * duration,
                   rate=0.05),
        NodePause(node="r1", at=0.85 * duration, duration=0.05 * duration),
    ))


def run_chaos(scale: float = 1.0, seed: int = 83,
              n_receivers: int = 4) -> ExperimentResult:
    """EXP-CHAOS: scripted fault injection with the invariant oracle on."""
    duration = 120.0 * scale
    net = dumbbell(1, n_receivers, LinkSpec(500_000, 0.050, queue_slots=30),
                   seed=seed)
    plan = chaos_plan(duration)
    session = create_session(
        net, "h0", [f"r{i}" for i in range(n_receivers)], faults=plan,
        check_invariants=True, strict_invariants=False,
    )
    net.run(until=duration)
    session.invariants.verify_now()

    rate = throughput_bps(session.trace, duration / 4, duration)
    quiet_gap = _longest_data_gap(session.trace, duration / 4, duration)
    injector = session.fault_injector
    checker = session.invariants
    result = ExperimentResult(
        name="chaos-fault-injection",
        params={"scale": scale, "seed": seed, "n_receivers": n_receivers,
                "episodes": len(plan)},
        expectation=(
            "the session survives an acker crash, a flapping bottleneck, "
            "burst loss, duplication, corruption and a paused receiver "
            "without stalling permanently and with zero runtime invariant "
            "violations; link flaps restart the window from W = T = 1 "
            "(§3.2) rather than deadlocking"
        ),
    )
    result.add_row(
        faults_fired=len(injector.log),
        rate_kbps=kbps(rate),
        acker_switches=session.acker_switches,
        stalls=session.sender.controller.stalls,
        longest_tx_gap_s=round(quiet_gap, 2),
        invariant_sweeps=checker.checks_run,
        violations=len(checker.violations),
    )
    result.metrics.update(
        rate=rate,
        faults_fired=len(injector.log),
        crashes=len(injector.actions("crash")),
        link_downs=len(injector.actions("link-down")),
        switches=session.acker_switches,
        stalls=session.sender.controller.stalls,
        longest_gap=quiet_gap,
        invariant_sweeps=checker.checks_run,
        violations=len(checker.violations),
        odata_sent=session.sender.odata_sent,
    )
    result.attach_telemetry(session, seed=seed)
    session.close()
    return result
