"""Unit tests for the deterministic fault-injection subsystem."""

import pytest

from repro.simulator import LinkSpec, Network, Packet
from repro.simulator.faults import (
    ACKER,
    BurstLoss,
    Corruption,
    Duplication,
    FaultInjector,
    FaultPlan,
    LinkDown,
    LinkImpairment,
    NodeCrash,
    NodePause,
    flap_link,
)

FAST = LinkSpec(rate_bps=80_000, delay=0.01, queue_slots=100)


def pair(seed: int = 0) -> Network:
    """Two hosts joined by one duplex link."""
    net = Network(seed=seed)
    net.add_host("a")
    net.add_host("b")
    net.duplex_link("a", "b", FAST)
    net.build_routes()
    return net


def feed(net: Network, t0: float, t1: float, interval: float = 0.05) -> None:
    """Offer a packet to the a->b link every ``interval`` seconds."""
    link = net.link("a", "b")
    t = t0
    while t < t1:
        net.sim.schedule_at(t, link.send, Packet("a", "b", 100))
        t += interval


class TestEpisodeValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            LinkDown("a", "b", at=-1.0)

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            BurstLoss("a", "b", at=0.0, duration=0.0)
        with pytest.raises(ValueError):
            NodePause("a", at=1.0, duration=-2.0)

    def test_impairment_needs_a_knob(self):
        with pytest.raises(ValueError):
            LinkImpairment("a", "b", at=0.0, duration=1.0)

    def test_rates_bounded(self):
        with pytest.raises(ValueError):
            Duplication("a", "b", at=0.0, duration=1.0, rate=1.5)
        with pytest.raises(ValueError):
            BurstLoss("a", "b", at=0.0, duration=1.0, loss_rate=-0.1)
        with pytest.raises(ValueError):
            LinkImpairment("a", "b", at=0.0, duration=1.0, rate_bps=0)

    def test_impairment_knobs_are_refused_when_the_plan_is_written(self):
        # Link's own setters would refuse these values too, but only at
        # ``at`` seconds into the run; the plan's message comes first
        with pytest.raises(ValueError, match="rate_bps must be positive, got 0"):
            LinkImpairment("a", "b", at=1.0, duration=1.0, rate_bps=0)
        with pytest.raises(ValueError, match="delay cannot be negative, got -1"):
            LinkImpairment("a", "b", at=1.0, duration=1.0, delay=-1)

    def test_flap_link_expands_to_cycles(self):
        episodes = flap_link("a", "b", first_at=2.0, down_for=0.5,
                             up_for=1.0, cycles=3)
        assert [ep.at for ep in episodes] == [2.0, 3.5, 5.0]
        assert all(ep.duration == 0.5 for ep in episodes)
        with pytest.raises(ValueError):
            flap_link("a", "b", first_at=0.0, down_for=0.5, up_for=1.0, cycles=0)
        with pytest.raises(ValueError):
            flap_link("a", "b", first_at=0.0, down_for=0.0, up_for=1.0, cycles=1)


class TestFaultPlan:
    def test_rejects_non_episodes(self):
        with pytest.raises(TypeError):
            FaultPlan(episodes=("not an episode",))

    def test_composition_concatenates(self):
        p1 = FaultPlan((LinkDown("a", "b", at=1.0),))
        p2 = FaultPlan((NodeCrash("b", at=2.0),))
        combined = p1 + p2
        assert len(combined) == 2
        assert combined.episodes == p1.episodes + p2.episodes
        # operands are unchanged (plans are values)
        assert len(p1) == 1 and len(p2) == 1

    def test_scaled_scales_times_and_durations(self):
        plan = FaultPlan((
            LinkDown("a", "b", at=2.0, duration=1.0),
            NodeCrash("b", at=4.0),
        ))
        scaled = plan.scaled(0.5)
        assert scaled.episodes[0].at == 1.0
        assert scaled.episodes[0].duration == 0.5
        assert scaled.episodes[1].at == 2.0
        assert scaled.horizon == plan.horizon * 0.5

    def test_horizon_covers_longest_episode(self):
        plan = FaultPlan((
            LinkDown("a", "b", at=1.0, duration=5.0),
            NodeCrash("b", at=3.0),
        ))
        assert plan.horizon == 6.0

    def test_validate_against_topology(self):
        net = pair()
        FaultPlan((LinkDown("a", "b", at=0.0),)).validate_against(net)
        with pytest.raises(ValueError):
            FaultPlan((LinkDown("a", "zz", at=0.0),)).validate_against(net)
        with pytest.raises(ValueError):
            FaultPlan((NodeCrash("zz", at=0.0),)).validate_against(net)
        # the acker sentinel is resolved at fire time, not validation time
        FaultPlan((NodeCrash(ACKER, at=0.0),)).validate_against(net)


class TestLinkFaults:
    def test_down_link_rejects_and_recovers(self):
        net = pair()
        plan = FaultPlan((LinkDown("a", "b", at=1.0, duration=1.0, both=False),))
        net.install_faults(plan)
        feed(net, 0.0, 3.0, interval=0.25)
        net.run(until=5.0)
        link = net.link("a", "b")
        # 4 packets fall inside [1.0, 2.0)
        assert link.fault_drops == 4
        assert link.delivered == link.sent - link.fault_drops
        assert link.up
        assert link.conserves_packets()

    def test_overlapping_downs_refcount(self):
        net = pair()
        plan = FaultPlan((
            LinkDown("a", "b", at=1.0, duration=2.0, both=False),
            LinkDown("a", "b", at=1.5, duration=3.0, both=False),
        ))
        net.install_faults(plan)
        states = []
        for t in (0.5, 1.2, 2.5, 3.5, 5.0):
            net.sim.schedule_at(t, lambda: states.append(net.link("a", "b").up))
        net.run(until=6.0)
        # down throughout the union [1.0, 4.5), not just the first episode
        assert states == [True, False, False, False, True]

    def test_impairment_overrides_and_restores(self):
        net = pair()
        link = net.link("a", "b")
        base_rate, base_delay, base_loss = link.rate_bps, link.delay, link.loss
        plan = FaultPlan((
            LinkImpairment("a", "b", at=1.0, duration=2.0, rate_bps=8_000,
                           delay=0.2, loss_rate=0.5, both=False),
        ))
        net.install_faults(plan)
        probes = []
        for t in (0.5, 2.0, 4.0):
            net.sim.schedule_at(
                t, lambda: probes.append((link.rate_bps, link.delay, link.loss))
            )
        net.run(until=5.0)
        assert probes[0] == (base_rate, base_delay, base_loss)
        assert probes[1][0] == 8_000 and probes[1][1] == 0.2
        assert probes[1][2] is not base_loss
        assert probes[2] == (base_rate, base_delay, base_loss)

    def test_stacked_impairments_last_started_wins(self):
        net = pair()
        link = net.link("a", "b")
        base = link.rate_bps
        plan = FaultPlan((
            LinkImpairment("a", "b", at=1.0, duration=4.0, rate_bps=40_000,
                           both=False),
            LinkImpairment("a", "b", at=2.0, duration=1.0, rate_bps=10_000,
                           both=False),
        ))
        net.install_faults(plan)
        probes = []
        for t in (1.5, 2.5, 3.5, 6.0):
            net.sim.schedule_at(t, lambda: probes.append(link.rate_bps))
        net.run(until=7.0)
        # inner episode shadows the outer, then the outer resumes
        assert probes == [40_000, 10_000, 40_000, base]

    def test_burst_loss_drops_everything(self):
        net = pair()
        plan = FaultPlan((BurstLoss("a", "b", at=1.0, duration=1.0),))
        net.install_faults(plan)
        feed(net, 1.1, 1.9, interval=0.2)
        feed(net, 3.0, 3.5, interval=0.2)
        net.run(until=5.0)
        link = net.link("a", "b")
        assert link.random_drops == 4  # all in-burst packets
        assert link.delivered == 3  # all post-burst packets
        assert link.conserves_packets()

    def test_duplication_injects_copies(self):
        net = pair()
        plan = FaultPlan((Duplication("a", "b", at=0.0, duration=10.0, rate=1.0),))
        net.install_faults(plan)
        feed(net, 1.0, 2.0, interval=0.25)
        net.run(until=5.0)
        link = net.link("a", "b")
        assert link.sent == 4
        assert link.fault_duplicates == 4
        assert link.delivered == 8
        assert link.conserves_packets()

    def test_corruption_drops_with_own_counter(self):
        net = pair()
        plan = FaultPlan((Corruption("a", "b", at=0.0, duration=10.0, rate=1.0),))
        net.install_faults(plan)
        feed(net, 1.0, 2.0, interval=0.25)
        net.run(until=5.0)
        link = net.link("a", "b")
        assert link.corrupt_drops == 4
        assert link.delivered == 0
        assert link.conserves_packets()

    def test_stages_disabled_after_episode(self):
        net = pair()
        plan = FaultPlan((Corruption("a", "b", at=0.0, duration=1.0, rate=1.0),))
        net.install_faults(plan)
        feed(net, 2.0, 3.0, interval=0.25)
        net.run(until=5.0)
        link = net.link("a", "b")
        assert link.corrupt_drops == 0
        assert link.delivered == 4
        assert link._fault_stages is None  # stage fully torn down


class TestNodeFaults:
    def test_pause_resume_cycle(self):
        net = pair()
        plan = FaultPlan((NodePause("b", at=1.0, duration=1.0),))
        net.install_faults(plan)
        feed(net, 0.5, 3.0, interval=0.5)
        net.run(until=5.0)
        b = net.nodes["b"]
        assert not b.paused and b.alive and not b.faulted
        assert b.fault_drops >= 1  # packets arriving while paused
        assert net.link("a", "b").delivered == net.link("a", "b").sent

    def test_crash_is_permanent(self):
        net = pair()
        plan = FaultPlan((
            NodeCrash("b", at=1.0),
            NodePause("b", at=0.5, duration=1.5),  # resume must not revive a corpse
        ))
        injector = net.install_faults(plan)
        net.run(until=5.0)
        b = net.nodes["b"]
        assert not b.alive and b.faulted
        assert [r.action for r in injector.log] == ["pause", "crash", "resume"]

    def test_acker_sentinel_without_lookup_is_skipped(self):
        net = pair()
        plan = FaultPlan((NodeCrash(ACKER, at=1.0),))
        injector = net.install_faults(plan)
        net.run(until=5.0)
        assert [r.action for r in injector.log] == ["crash-skipped"]
        assert all(node.alive for node in net.nodes.values())

    def test_acker_sentinel_resolved_at_fire_time(self):
        net = pair()
        plan = FaultPlan((NodeCrash(ACKER, at=1.0),))
        injector = net.install_faults(plan, acker_lookup=lambda: "b")
        net.run(until=5.0)
        assert [(r.action, r.target) for r in injector.log] == [("crash", "b")]
        assert not net.nodes["b"].alive


class TestInjector:
    def test_validation_on_compile(self):
        net = pair()
        with pytest.raises(ValueError):
            FaultInjector(net, FaultPlan((LinkDown("a", "zz", at=0.0),)))

    def test_audit_log_is_chronological(self):
        net = pair()
        plan = FaultPlan((
            LinkDown("a", "b", at=2.0, duration=1.0, both=False),
            NodePause("b", at=1.0, duration=0.5),
        ))
        injector = net.install_faults(plan)
        net.run(until=5.0)
        times = [r.time for r in injector.log]
        assert times == sorted(times)
        assert injector.actions_applied == 4
        assert len(injector.actions("link-down")) == 1
        assert len(injector.actions("pause")) == 1

    def test_past_times_clamped_to_now(self):
        net = pair()
        net.run(until=3.0)
        plan = FaultPlan((LinkDown("a", "b", at=1.0, duration=1.0, both=False),))
        injector = net.install_faults(plan)
        net.run(until=6.0)
        # both actions fired (at now), rather than raising on a past time
        assert [r.action for r in injector.log] == ["link-down", "link-up"]
        assert net.link("a", "b").up

    def test_both_directions_by_default(self):
        net = pair()
        plan = FaultPlan((LinkDown("a", "b", at=1.0, duration=1.0),))
        injector = net.install_faults(plan)
        net.run(until=3.0)
        assert {r.target for r in injector.actions("link-down")} == {
            "a->b", "b->a"
        }
