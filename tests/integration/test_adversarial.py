"""Integration tests: misbehaving receivers against the full stack.

The attacks run inside real sessions with the runtime invariant
checker in *strict* mode (violations raise), so every deflection is
also a protocol-soundness proof.  The hypothesis property at the end
is the guard's no-false-positive contract: arbitrary PR-1-style
network fault plans — losses, outages, corruption, duplication,
crashes — may delay or silence compliant receivers, but must never
get one quarantined.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pgm import create_session
from repro.pgm.misbehavior import GreedyAcker, NakStorm, SilentJoiner
from repro.simulator import LinkSpec, dumbbell
from repro.simulator.faults import (
    BurstLoss,
    Corruption,
    Duplication,
    FaultPlan,
    LinkDown,
    LinkImpairment,
    NodeCrash,
    NodePause,
)

BOTTLENECK = LinkSpec(rate_bps=300_000, delay=0.02, queue_slots=15)


def session_under(plan, n_rx=3, seed=7, guard=True, strict=True, **kw):
    net = dumbbell(1, n_rx, BOTTLENECK, seed=seed)
    names = [f"r{i}" for i in range(n_rx)]
    session = create_session(
        net, "h0", names, faults=plan, guard=guard,
        check_invariants=True, strict_invariants=strict, **kw)
    return net, session


class TestGreedyAckerDeflection:
    def test_attacker_quarantined_and_unseated_under_strict_invariants(self):
        net, session = session_under(
            FaultPlan((GreedyAcker("r0", at=3.0),)))
        net.run(until=25.0)
        session.invariants.verify_now()  # strict: raises on violation
        guard = session.guard
        assert guard.quarantines >= 1
        assert "r0" in guard.quarantined_ids()
        assert session.sender.controller.current_acker != "r0"
        # the physical impossibility fired: ACKs overtook the
        # attacker's own reported window lead
        assert guard.violation_counts["ack-beyond-lead"] >= 1
        # compliant receivers kept receiving in spite of the attack
        for rx in session.receivers[1:]:
            assert rx.delivered > 0
            assert rx.unrecoverable_data_loss == 0
        session.close()

    def test_episode_end_restores_compliance(self):
        net, session = session_under(
            FaultPlan((GreedyAcker("r0", at=2.0, duration=3.0),)))
        net.run(until=6.0)
        assert session.receiver("r0").behaviors == {}
        session.close()


class TestNakStormContainment:
    def test_repair_budget_gates_rdata(self):
        net, session = session_under(
            FaultPlan((NakStorm("r0", at=2.0, duration=10.0, rate=200.0),)))
        net.run(until=14.0)
        session.invariants.verify_now()
        sender = session.sender
        guard = session.guard
        # the storm outran the budget: NAKs were rejected for repair
        assert guard.violation_counts["nak-flood"] > 0
        assert sender.guard_naks_blocked > 0
        # and RDATA stayed far below the ~2000 storm NAKs sent
        assert sender.rdata_sent < 600
        assert guard.quarantines >= 1
        session.close()


class TestSilentJoinerIsHarmless:
    def test_mute_member_neither_stalls_nor_trips_guard(self):
        net, session = session_under(
            FaultPlan((SilentJoiner("r1", at=1.0),)))
        net.run(until=12.0)
        session.invariants.verify_now()
        assert session.guard.quarantines == 0
        # the group keeps flowing, clocked by the vocal receivers
        assert session.receiver("r0").delivered > 0
        session.close()


class TestIngressAudit:
    def test_mangled_frames_counted_and_survived(self):
        """Satellite (packet-ingress audit): corrupted bytes on the
        wire are rejected by the frame checksum, counted, and never
        crash the session."""
        net, session = session_under(
            FaultPlan((Corruption("R0", "R1", at=1.0, duration=6.0,
                                  rate=0.3, mode="mangle", both=True),)))
        net.run(until=10.0)
        session.invariants.verify_now()
        summary = session.summary()
        assert summary["malformed_dropped"] > 0
        per_rx = summary["receivers"]
        assert sum(d["malformed_dropped"] for d in per_rx.values()) > 0
        assert all(d["delivered"] > 0 for d in per_rx.values())
        session.close()


class TestUnrecoverableLoss:
    def test_retry_exhaustion_is_reported(self):
        """Satellite (NAK give-up): when every repair attempt dies on a
        blacked-out link, the receiver stops retrying after
        nak_max_retries and surfaces the gap instead of wedging."""
        net, session = session_under(
            FaultPlan((BurstLoss("R1", "r0", at=2.0, duration=5.0,
                                 loss_rate=0.95),)),
            strict=False)  # heavy loss legitimately delays; only collect
        rx = session.receiver("r0")
        rx.nak_rpt_ivl = 0.2
        rx.nak_rdata_ivl = 0.2
        rx.nak_max_retries = 2
        net.run(until=10.0)
        assert rx.unrecoverable_data_loss >= 1
        assert rx.repairs_abandoned >= 1
        s = session.summary()
        assert s["receivers"]["r0"]["unrecoverable_data_loss"] >= 1
        # in-order delivery advanced past the permanent holes
        assert rx.delivered > 0
        session.close()


class TestTimerLifecycle:
    def test_close_cancels_every_timer(self):
        """Satellite (teardown): close() must cancel sender pump/SPM
        timers, receiver NAK timers, and misbehaviour timers so a
        closed session leaves the event heap drainable to empty."""
        net, session = session_under(
            FaultPlan((GreedyAcker("r0", at=1.0),
                       NakStorm("r1", at=1.0, duration=3.0, rate=50.0))),
            strict=False)
        net.run(until=5.0)
        session.close()
        # drain whatever was in flight at close time; nothing may
        # reschedule itself afterwards
        net.sim.run(until=net.sim.now + 30.0)
        assert net.sim.pending() == 0


# -- the no-false-positive property ------------------------------------

TIMES = st.sampled_from([0.5, 1.0, 2.0, 3.5])
DURATIONS = st.sampled_from([0.3, 0.8, 1.5])
LINKS = [("R0", "R1"), ("h0", "R0"), ("R1", "r0"), ("R1", "r1")]


@st.composite
def network_episodes(draw):
    """PR-1-style *network* faults only: everything here may hurt a
    compliant receiver, none of it is the receiver's fault."""
    kind = draw(st.sampled_from(
        ["down", "impair", "burst", "dup", "corrupt", "pause", "crash"]))
    at = draw(TIMES)
    if kind == "pause":
        return NodePause(draw(st.sampled_from(["r0", "r1"])), at=at,
                         duration=draw(DURATIONS))
    if kind == "crash":
        return NodeCrash(draw(st.sampled_from(["r0", "r1"])), at=at)
    a, b = draw(st.sampled_from(LINKS))
    duration = draw(DURATIONS)
    both = draw(st.booleans())
    if kind == "down":
        return LinkDown(a, b, at=at, duration=duration, both=both)
    if kind == "impair":
        return LinkImpairment(a, b, at=at, duration=duration, both=both,
                              loss_rate=draw(st.sampled_from([0.05, 0.3])),
                              delay=draw(st.sampled_from([0.05, None])))
    if kind == "burst":
        return BurstLoss(a, b, at=at, duration=duration, both=both,
                         loss_rate=draw(st.sampled_from([0.5, 1.0])))
    if kind == "dup":
        return Duplication(a, b, at=at, duration=duration, both=both,
                           rate=draw(st.sampled_from([0.3, 1.0])))
    return Corruption(a, b, at=at, duration=duration, both=both,
                      rate=draw(st.sampled_from([0.2, 0.5])),
                      mode=draw(st.sampled_from(["drop", "mangle"])))


@st.composite
def network_plans(draw, max_episodes=4):
    n = draw(st.integers(min_value=0, max_value=max_episodes))
    return FaultPlan(tuple(draw(network_episodes()) for _ in range(n)))


class TestNoFalsePositives:
    @given(plan=network_plans(), seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_compliant_receivers_never_quarantined(self, plan, seed):
        net = dumbbell(1, 2, BOTTLENECK, seed=seed)
        session = create_session(
            net, "h0", ["r0", "r1"], faults=plan, guard=True,
            check_invariants=True, strict_invariants=False)
        net.run(until=8.0)
        guard = session.guard
        assert guard.quarantines == 0, (
            f"honest receiver quarantined under {plan}: "
            f"{guard.summary()['violations']}")
        session.close()
