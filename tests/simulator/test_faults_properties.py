"""Property tests for fault plans: arbitrary valid plans compose and
compile without error, and the same ``(seed, plan)`` pair yields a
byte-identical trace run after run — the determinism contract the
chaos suite is built on."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sender_cc import CcConfig
from repro.pgm import create_session
from repro.pgm.session import SessionConfig
from repro.simulator import LinkSpec, dumbbell
from repro.simulator.faults import (
    ACKER,
    BurstLoss,
    ControlBlackhole,
    Corruption,
    Duplication,
    FaultPlan,
    LinkDown,
    LinkImpairment,
    NodeCrash,
    NodePause,
    Partition,
)

BOTTLENECK = LinkSpec(rate_bps=300_000, delay=0.02, queue_slots=15)

# Names present in every dumbbell(1, 2) topology.
LINKS = [("R0", "R1"), ("h0", "R0"), ("R1", "r0"), ("R1", "r1")]
NODES = ["r0", "r1", "R0", "R1", ACKER]

TIMES = st.sampled_from([0.5, 1.0, 2.5, 4.0, 6.0, 7.5])
DURATIONS = st.sampled_from([0.2, 0.5, 1.0, 2.0])

#: ways to bisect every dumbbell(1, 2) topology — all have cut links.
CUTS = [
    (("h0", "R0"), ("R1", "r0", "r1")),
    (("h0", "R0", "R1"), ("r0", "r1")),
    (("h0",), ("R0", "R1", "r0", "r1")),
]

#: control-packet kind sets for blackholes (payload class names)
KIND_SETS = [("Ack",), ("Ack", "Nak"), ("Ack", "Nak", "Ncf", "Spm")]


@st.composite
def episodes(draw):
    kind = draw(st.sampled_from(
        ["down", "impair", "burst", "dup", "corrupt", "pause", "crash",
         "partition", "blackhole"]
    ))
    at = draw(TIMES)
    if kind == "partition":
        side_a, side_b = draw(st.sampled_from(CUTS))
        return Partition(side_a, side_b, at=at, duration=draw(DURATIONS))
    if kind == "blackhole":
        a, b = draw(st.sampled_from(LINKS))
        return ControlBlackhole(a, b, at=at, duration=draw(DURATIONS),
                                kinds=draw(st.sampled_from(KIND_SETS)),
                                both=draw(st.booleans()))
    if kind in ("pause", "crash"):
        node = draw(st.sampled_from(NODES))
        if kind == "pause":
            return NodePause(node, at=at, duration=draw(DURATIONS))
        return NodeCrash(node, at=at)
    a, b = draw(st.sampled_from(LINKS))
    duration = draw(DURATIONS)
    both = draw(st.booleans())
    if kind == "down":
        return LinkDown(a, b, at=at, duration=duration, both=both)
    if kind == "impair":
        rate_bps = draw(st.sampled_from([50_000, 150_000, None]))
        delay = draw(st.sampled_from([0.001, 0.1, None]))
        loss_rate = draw(st.sampled_from([0.05, 0.5, None]))
        if rate_bps is None and delay is None and loss_rate is None:
            rate_bps = 50_000  # at least one knob must be set
        return LinkImpairment(a, b, at=at, duration=duration, both=both,
                              rate_bps=rate_bps, delay=delay,
                              loss_rate=loss_rate)
    if kind == "burst":
        return BurstLoss(a, b, at=at, duration=duration, both=both,
                         loss_rate=draw(st.sampled_from([0.5, 1.0])))
    if kind == "dup":
        return Duplication(a, b, at=at, duration=duration, both=both,
                           rate=draw(st.sampled_from([0.1, 0.5, 1.0])))
    return Corruption(a, b, at=at, duration=duration, both=both,
                      rate=draw(st.sampled_from([0.1, 0.5])))


@st.composite
def fault_plans(draw, max_episodes=6):
    n = draw(st.integers(min_value=0, max_value=max_episodes))
    return FaultPlan(tuple(draw(episodes()) for _ in range(n)))


def run_traced(plan: FaultPlan, seed: int) -> bytes:
    """One full session under ``plan``; the trace, byte-encoded."""
    net = dumbbell(1, 2, BOTTLENECK, seed=seed)
    session = create_session(net, "h0", ["r0", "r1"], faults=plan)
    net.run(until=10.0)
    payload = "\n".join(repr(r) for r in session.trace)
    return payload.encode()


class TestPlanProperties:
    @given(p1=fault_plans(), p2=fault_plans())
    @settings(max_examples=50, deadline=None)
    def test_plans_compose_and_validate(self, p1, p2):
        combined = p1 + p2
        assert len(combined) == len(p1) + len(p2)
        net = dumbbell(1, 2, BOTTLENECK, seed=1)
        combined.validate_against(net)
        # compiling arbitrary valid plans never raises
        net.install_faults(combined, acker_lookup=lambda: "r0")

    @given(plan=fault_plans(), factor=st.sampled_from([0.25, 0.5, 2.0]))
    @settings(max_examples=50, deadline=None)
    def test_scaling_scales_the_horizon(self, plan, factor):
        scaled = plan.scaled(factor)
        assert len(scaled) == len(plan)
        assert scaled.horizon == plan.horizon * factor

    @pytest.mark.slow
    @given(plan=fault_plans(max_episodes=4),
           seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_seed_and_plan_is_byte_identical(self, plan, seed):
        assert run_traced(plan, seed) == run_traced(plan, seed)


@st.composite
def partition_plans(draw, max_episodes=4):
    """Plans of only the liveness-layer faults: partitions (freely
    overlapping), control blackholes, and acker crashes — including
    heal-before-crash and crash-during-partition orderings."""
    n = draw(st.integers(min_value=1, max_value=max_episodes))
    eps = []
    for _ in range(n):
        kind = draw(st.sampled_from(["partition", "blackhole", "crash"]))
        at = draw(TIMES)
        if kind == "partition":
            side_a, side_b = draw(st.sampled_from(CUTS))
            eps.append(Partition(side_a, side_b, at=at,
                                 duration=draw(DURATIONS)))
        elif kind == "blackhole":
            a, b = draw(st.sampled_from(LINKS))
            eps.append(ControlBlackhole(
                a, b, at=at, duration=draw(DURATIONS),
                kinds=draw(st.sampled_from(KIND_SETS)),
                both=draw(st.booleans())))
        else:
            eps.append(NodeCrash(draw(st.sampled_from(["r0", "r1", ACKER])),
                                 at=at))
    return FaultPlan(tuple(eps))


class TestPartitionInvariants:
    """The satellite oracle: no ordering of partitions, blackholes and
    crashes — overlapping episodes, heals racing crashes — may ever
    violate the window/token accounting, with or without the liveness
    watchdog driving recovery restarts."""

    @pytest.mark.slow
    @given(plan=partition_plans(),
           liveness=st.booleans(),
           seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_partition_plans_never_violate_invariants(self, plan, liveness,
                                                      seed):
        net = dumbbell(1, 2, BOTTLENECK, seed=seed)
        session = create_session(
            net, "h0", ["r0", "r1"],
            config=SessionConfig(cc=CcConfig(liveness=liveness),
                                 faults=plan, check_invariants=True,
                                 strict_invariants=True))
        net.run(until=12.0)
        session.invariants.verify_now()
        assert session.invariants.ok
        session.close()

    @given(plan=partition_plans(max_episodes=2))
    @settings(max_examples=20, deadline=None)
    def test_partition_plans_compile(self, plan):
        net = dumbbell(1, 2, BOTTLENECK, seed=3)
        plan.validate_against(net)
        net.install_faults(plan, acker_lookup=lambda: "r0")
