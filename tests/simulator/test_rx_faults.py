"""Tests for the receiver-misbehavior fault episodes: validation,
injector wiring, audit records, and (seed, plan) determinism."""

import pytest

from repro.pgm import create_session
from repro.pgm.misbehavior import (
    AckReplay,
    GreedyAcker,
    NakStorm,
    SilentJoiner,
    Throttler,
)
from repro.simulator import LinkSpec, dumbbell
from repro.simulator.faults import (
    ACKER,
    FaultInjector,
    FaultPlan,
    LinkDown,
    LinkImpairment,
    NodePause,
    flap_link,
)

NAN, INF = float("nan"), float("inf")
BOTTLENECK = LinkSpec(rate_bps=300_000, delay=0.02, queue_slots=15)


def small_net(seed=5):
    return dumbbell(1, 2, BOTTLENECK, seed=seed)


class TestEpisodeValidation:
    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            GreedyAcker("r0", at=-1.0)
        with pytest.raises(ValueError):
            SilentJoiner("r0", at=-0.1)

    def test_greedy_acker_params_validated(self):
        with pytest.raises(ValueError):
            GreedyAcker("r0", at=0.0, report_ivl=0.0)
        with pytest.raises(ValueError):
            GreedyAcker("r0", at=0.0, capture_loss=0.0)
        with pytest.raises(ValueError):
            GreedyAcker("r0", at=0.0, capture_loss=1.5)
        with pytest.raises(ValueError):
            GreedyAcker("r0", at=0.0, ack_rate=-1.0)

    def test_throttler_rates_bounded(self):
        with pytest.raises(ValueError):
            Throttler("r0", at=0.0, loss_rate=2.0)
        with pytest.raises(ValueError):
            Throttler("r0", at=0.0, ack_drop_rate=-0.5)

    def test_storm_and_replay_need_durations(self):
        with pytest.raises(ValueError):
            NakStorm("r0", at=0.0, duration=0.0)
        with pytest.raises(ValueError):
            AckReplay("r0", at=0.0, duration=-1.0)
        with pytest.raises(ValueError):
            AckReplay("r0", at=0.0, duration=1.0, copies=0)
        with pytest.raises(ValueError):
            NakStorm("r0", at=0.0, duration=1.0, rate=0.0)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: LinkDown("a", "b", at=NAN), id="at-nan"),
        pytest.param(lambda: LinkDown("a", "b", at=INF), id="at-inf"),
        pytest.param(lambda: LinkDown("a", "b", at=0.0, duration=NAN),
                     id="duration-nan"),
        pytest.param(lambda: LinkDown("a", "b", at=0.0, duration=INF),
                     id="duration-inf"),
        pytest.param(lambda: LinkImpairment("a", "b", at=0.0, duration=1.0,
                                            rate_bps=NAN), id="rate_bps"),
        pytest.param(lambda: LinkImpairment("a", "b", at=0.0, duration=1.0,
                                            delay=NAN), id="delay"),
        pytest.param(lambda: NodePause("b", at=NAN), id="pause-at"),
        pytest.param(lambda: GreedyAcker("r0", at=0.0, report_ivl=NAN),
                     id="report_ivl"),
        pytest.param(lambda: GreedyAcker("r0", at=0.0, ack_rate=NAN),
                     id="ack_rate"),
        pytest.param(lambda: Throttler("r0", at=0.0, report_ivl=NAN),
                     id="throttler-report_ivl"),
        pytest.param(lambda: NakStorm("r0", at=0.0, duration=NAN, rate=NAN),
                     id="storm-duration"),
        pytest.param(lambda: NakStorm("r0", at=0.0, duration=1.0, rate=NAN),
                     id="storm-rate"),
        pytest.param(lambda: AckReplay("r0", at=0.0, duration=1.0,
                                       interval=NAN), id="interval"),
        pytest.param(lambda: flap_link("a", "b", 0.0, down_for=NAN,
                                       up_for=1.0, cycles=2), id="flap"),
        pytest.param(lambda: FaultPlan((LinkDown("a", "b", at=1.0),))
                     .scaled(NAN), id="scaled-nan"),
        pytest.param(lambda: FaultPlan((LinkDown("a", "b", at=1.0),))
                     .scaled(INF), id="scaled-inf"),
    ])
    def test_non_finite_values_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_plans_compose_with_link_faults(self):
        plan = FaultPlan((GreedyAcker("r0", at=1.0),)) + FaultPlan(
            (Throttler("r1", at=2.0, duration=3.0),)
        )
        assert len(plan) == 2
        assert plan.horizon >= 5.0


class TestInjectorWiring:
    def test_without_receiver_lookup_episode_skipped(self):
        """A plan naming receivers compiles on a bare network (no PGM
        session): the action is skipped and audited, never an error."""
        net = small_net()
        injector = FaultInjector(
            net, FaultPlan((GreedyAcker("r0", at=0.5),)))
        net.run(until=1.0)
        assert [r.action for r in injector.log] == ["greedy-acker-skipped"]

    def test_acker_sentinel_without_lookup_skipped(self):
        net = small_net()
        injector = FaultInjector(
            net, FaultPlan((SilentJoiner(ACKER, at=0.5, duration=1.0),)))
        net.run(until=1.0)
        assert injector.actions("silent-joiner-skipped")

    @pytest.mark.parametrize("name", ["R0", "h0"])
    def test_session_refuses_an_episode_for_a_non_receiver(self, name):
        """A receiver episode the session could only skip at fire time
        is refused when the session is built."""
        with pytest.raises(ValueError, match="not a receiver of this session"):
            create_session(small_net(), "h0", ["r0", "r1"],
                           faults=FaultPlan((GreedyAcker(name, at=0.5),)))

    def test_start_and_stop_recorded(self):
        net = small_net()
        session = create_session(
            net, "h0", ["r0", "r1"],
            faults=FaultPlan((Throttler("r0", at=0.5, duration=1.0),)),
        )
        net.run(until=2.0)
        log = [r.action for r in session.fault_injector.log]
        assert log == ["throttler-start", "throttler-stop"]
        # behaviour uninstalled after the episode
        assert session.receiver("r0").behaviors == {}
        session.close()

    def test_behavior_installed_during_episode(self):
        net = small_net()
        session = create_session(
            net, "h0", ["r0", "r1"],
            faults=FaultPlan((SilentJoiner("r0", at=0.5),)),
        )
        net.run(until=1.0)
        assert "silent-joiner" in session.receiver("r0").behaviors
        session.close()


class TestDeterminism:
    @pytest.mark.parametrize("episode", [
        GreedyAcker("r0", at=1.0, ack_rate=40.0),
        Throttler("r0", at=1.0),
        NakStorm("r0", at=1.0, duration=4.0, rate=80.0),
        AckReplay("r0", at=1.0, duration=4.0),
        SilentJoiner("r0", at=1.0),
    ])
    def test_same_seed_same_trace(self, episode):
        def run_once():
            net = small_net(seed=11)
            session = create_session(
                net, "h0", ["r0", "r1"], faults=FaultPlan((episode,)))
            net.run(until=6.0)
            trace = "\n".join(repr(r) for r in session.trace)
            session.close()
            return trace

        assert run_once() == run_once()
