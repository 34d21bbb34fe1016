"""Whole-stack fuzzing: random network parameters through a full
session must never crash and must preserve conservation invariants.

The fault-plan fuzzer additionally draws a random chaos schedule and
runs the whole session under a *strict* runtime
:class:`~repro.pgm.invariants.InvariantChecker` — any invariant break
under any drawn fault combination fails the test (the checker is the
oracle)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sender_cc import CcConfig
from repro.pgm import create_session
from repro.simulator import LinkSpec, dumbbell
from repro.simulator.faults import (
    ACKER,
    BurstLoss,
    Corruption,
    Duplication,
    FaultPlan,
    LinkDown,
    NodeCrash,
    NodePause,
)


@st.composite
def bottlenecks(draw):
    rate = draw(st.sampled_from([100_000, 300_000, 500_000, 1_500_000]))
    delay = draw(st.sampled_from([0.005, 0.05, 0.25]))
    queue = draw(st.sampled_from([4, 15, 40]))
    loss = draw(st.sampled_from([0.0, 0.01, 0.08]))
    return LinkSpec(rate_bps=rate, delay=delay, queue_slots=queue,
                    loss_rate=loss)


@st.composite
def configs(draw):
    return CcConfig(
        c=draw(st.sampled_from([0.6, 0.75, 1.0])),
        ssthresh=draw(st.sampled_from([2, 6, 16])),
        dupack_threshold=draw(st.sampled_from([2, 3, 5])),
        model=draw(st.sampled_from(["simple", "padhye"])),
        adaptive_ssthresh=draw(st.booleans()),
    )


class TestStackFuzz:
    @given(
        spec=bottlenecks(),
        cc=configs(),
        n_receivers=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_session_never_crashes(self, spec, cc, n_receivers, seed):
        net = dumbbell(1, n_receivers, spec, seed=seed)
        session = create_session(
            net, "h0", [f"r{i}" for i in range(n_receivers)], cc=cc
        )
        net.run(until=15.0)

        # liveness: something was sent, and unless the link is nearly
        # unusable some data reached the receivers
        assert session.sender.odata_sent >= 1
        total_received = sum(rx.odata_received for rx in session.receivers)
        if spec.loss_rate < 0.5:
            assert total_received >= 1

        # controller invariants
        ctl = session.sender.controller
        assert ctl.backend.w >= 1.0
        assert ctl.backend.ignore_acks >= 0
        assert ctl.tracker.outstanding_count >= 0

        # conservation on every link after a drain period
        session.close()
        net.run(until=25.0)
        for node in net.nodes.values():
            for link in node.links.values():
                assert link.sent == (
                    link.delivered + link.random_drops
                    + link.queue_drops + link.queued
                ), link.name

        # receiver monotonicity
        for rx in session.receivers:
            assert rx.rxw_lead <= session.sender.next_seq - 1


@st.composite
def fault_plans(draw, n_receivers: int):
    """Random chaos schedules over the dumbbell's fixed names.

    The sender host is never crashed (a dead source trivially ends the
    session); receivers — including whoever is the acker — are fair
    game.
    """
    targets = [f"r{i}" for i in range(n_receivers)] + [ACKER]
    times = st.sampled_from([1.0, 3.0, 5.0, 8.0])
    durations = st.sampled_from([0.3, 1.0, 2.5])
    episodes = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(
            ["down", "burst", "dup", "corrupt", "pause", "crash"]
        ))
        at = draw(times)
        if kind == "crash":
            episodes.append(NodeCrash(draw(st.sampled_from(targets)), at=at))
        elif kind == "pause":
            episodes.append(NodePause(draw(st.sampled_from(targets)), at=at,
                                      duration=draw(durations)))
        elif kind == "down":
            episodes.append(LinkDown("R0", "R1", at=at,
                                     duration=draw(durations)))
        elif kind == "burst":
            episodes.append(BurstLoss("R0", "R1", at=at,
                                      duration=draw(durations),
                                      loss_rate=draw(st.sampled_from([0.5, 1.0]))))
        elif kind == "dup":
            episodes.append(Duplication("R0", "R1", at=at,
                                        duration=draw(durations), rate=0.3))
        else:
            episodes.append(Corruption("R0", "R1", at=at,
                                       duration=draw(durations), rate=0.2))
    return FaultPlan(tuple(episodes))


@pytest.mark.slow
class TestChaosFuzz:
    @given(data=st.data(),
           spec=bottlenecks(),
           n_receivers=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_faults_never_break_invariants(self, data, spec,
                                                  n_receivers, seed):
        plan = data.draw(fault_plans(n_receivers))
        net = dumbbell(1, n_receivers, spec, seed=seed)
        session = create_session(
            net, "h0", [f"r{i}" for i in range(n_receivers)],
            faults=plan, check_invariants=True, strict_invariants=True,
        )
        # strict mode: the checker raises on the first violation, so
        # merely completing the run is the oracle's verdict
        net.run(until=15.0)
        session.invariants.verify_now()
        assert session.invariants.ok
        session.close()
        net.run(until=25.0)  # drain

        # fault-aware conservation on every link, post-drain
        for node in net.nodes.values():
            for link in node.links.values():
                assert link.conserves_packets(), link.name

        # liveness: the sender made progress before the chaos window
        assert session.sender.odata_sent >= 1
