"""SessionConfig construction API: config objects, the legacy kwargs
shim, summary key-set stability and the indexed receiver lookup."""

import dataclasses

import pytest

from repro.core.sender_cc import CcConfig
from repro.pgm import add_receiver, create_session
from repro.pgm.session import SessionConfig
from repro.simulator import LOSSY, NON_LOSSY, dumbbell, dumbbell_subtrees, star
from repro.simulator.routing import NoPath

#: the summary's first keys: keys may be added but never removed or
#: renamed.
SUMMARY_V1_KEYS = {
    "tsi", "group", "odata_sent", "rdata_sent", "bytes_sent",
    "acks_received", "naks_received", "nak_origins", "acker",
    "acker_switches", "acker_evictions", "stalls", "window",
    "malformed_dropped", "unrecoverable_data_loss", "guard", "phases",
    "repair_latency", "receivers",
}

RECEIVER_V1_KEYS = {
    "odata_received", "rdata_received", "loss_rate", "delivered",
    "acks_sent", "naks_sent", "malformed_dropped",
    "unrecoverable_data_loss",
}

#: keys v2 adds on top of v1.
SUMMARY_V2_NEW_KEYS = {"stall_duration", "recovery", "ncfs_sent"}

RECEIVER_V2_NEW_KEYS = {"resyncs"}

#: the fixed key set of the v2 ``recovery`` block — identical whether
#: or not a liveness watchdog is attached.
RECOVERY_KEYS = {
    "watchdog", "state", "demotions", "degraded_entries",
    "degraded_time_s", "probes_sent", "repairs_blocked", "ttr_last_s",
    "ttr_samples", "resyncs", "unrecoverable_loss",
}


#: session options every receiver of the session is built with
INHERITED_OPTIONS = [
    dict(reliable=False, echo_timestamps=True, filter_w=64000),
    dict(reliable=False, echo_timestamps=True, filter_w=64000,
         estimator="tfrc"),
]


def _receiver_options(rx):
    estimator = rx.cc.loss_filter
    return (rx.reliable, rx.echo_timestamps, type(estimator).__name__,
            getattr(estimator, "w_fixed", None))


class TestSessionConfig:
    def test_config_object_is_primary_signature(self):
        net = dumbbell(1, 1, NON_LOSSY)
        cfg = SessionConfig(cc=CcConfig(), stop_at=5.0)
        session = create_session(net, "h0", ["r0"], config=cfg)
        net.run(until=10.0)
        assert session.sender.odata_sent > 0
        assert max(session.trace.times("data")) <= 5.0
        assert session.config is cfg

    def test_legacy_kwargs_still_accepted(self):
        net = dumbbell(1, 1, NON_LOSSY)
        session = create_session(net, "h0", ["r0"], stop_at=5.0)
        net.run(until=10.0)
        assert max(session.trace.times("data")) <= 5.0

    def test_kwargs_and_config_produce_identical_sessions(self):
        def run_one(use_config):
            net = dumbbell(1, 1, NON_LOSSY, seed=21)
            if use_config:
                session = create_session(
                    net, "h0", ["r0"],
                    config=SessionConfig(payload_size=512, filter_w=16))
            else:
                session = create_session(net, "h0", ["r0"],
                                         payload_size=512, filter_w=16)
            net.run(until=15.0)
            out = (session.sender.odata_sent, session.sender.acks_received,
                   session.receivers[0].delivered)
            session.close()
            return out

        assert run_one(True) == run_one(False)

    def test_kwargs_override_config_fields(self):
        net = dumbbell(1, 1, NON_LOSSY)
        cfg = SessionConfig(payload_size=512)
        session = create_session(net, "h0", ["r0"], config=cfg,
                                 payload_size=256)
        assert session.config.payload_size == 256
        assert session.sender.source.payload_size == 256
        # the caller's config object is never mutated
        assert cfg.payload_size == 512

    def test_unknown_kwarg_raises_type_error(self):
        net = dumbbell(1, 1, NON_LOSSY)
        with pytest.raises(TypeError, match="create_session"):
            create_session(net, "h0", ["r0"], no_such_option=1)

    def test_removed_engine_fields_fail_loudly(self):
        # the scheduler / packet-pool / telemetry switches are gone; a
        # caller still passing them must hear about it rather than be
        # ignored
        with pytest.raises(TypeError):
            SessionConfig(scheduler="heap")
        with pytest.raises(TypeError, match="telemetry"):
            SessionConfig(telemetry=False)
        net = dumbbell(1, 1, NON_LOSSY)
        with pytest.raises(TypeError, match="create_session"):
            create_session(net, "h0", ["r0"], packet_pool=False)
        with pytest.raises(TypeError, match="create_session.*telemetry"):
            create_session(net, "h0", ["r0"], telemetry=False)

    def test_removed_options_fail_loudly(self):
        # one place picks the controller (cc=CcConfig(...)), a joiner
        # takes its options from the session, traces have no name
        for field in ("controller", "controller_params", "liveness",
                      "liveness_params", "trace_name", "telemetry_interval"):
            with pytest.raises(TypeError, match=field):
                SessionConfig(**{field: None})
        net = dumbbell(1, 2, NON_LOSSY)
        with pytest.raises(TypeError, match="create_session.*trace_name"):
            create_session(net, "h0", ["r0"], trace_name="pgm")
        session = create_session(net, "h0", ["r0"])
        for option in ("reliable", "echo_timestamps", "estimator"):
            with pytest.raises(TypeError, match=option):
                add_receiver(net, session, "r1", **{option: False})
        assert session.members == ["r0"]

    def test_config_sweeps_compose_with_replace(self):
        base = SessionConfig(stop_at=30.0)
        variants = [dataclasses.replace(base, filter_w=w) for w in (2, 8)]
        assert [v.filter_w for v in variants] == [2, 8]
        assert all(v.stop_at == 30.0 for v in variants)
        assert base.filter_w is None


class TestReceiverIndex:
    @pytest.mark.parametrize("options", INHERITED_OPTIONS)
    def test_late_joiner_is_built_like_an_initial_receiver(self, options):
        # add_receiver used to re-ask for reliable/echo_timestamps/
        # estimator (defaulting to a *reliable* joiner in an unreliable
        # session) and could not pass filter_w at all
        net = dumbbell(1, 3, NON_LOSSY)
        session = create_session(net, "h0", ["r0"],
                                 config=SessionConfig(**options))
        add_receiver(net, session, "r1")
        add_receiver(net, session, "r2", at=2.0)
        net.run(until=3.0)
        built = [_receiver_options(session.receiver(f"r{i}")) for i in range(3)]
        assert built[0][:2] == (False, True)
        assert built[0][2:] in (("LossRateFilter", 64000),
                                ("LossIntervalEstimator", None))
        assert built[1] == built[2] == built[0]
        session.close()

    @pytest.mark.parametrize("options", INHERITED_OPTIONS)
    def test_promoted_aggregate_member_is_built_like_a_sampled_one(
            self, options):
        net = dumbbell_subtrees(40, subtrees=2, members="virtual", seed=3)
        session = create_session(
            net, "h0", [], config=SessionConfig(aggregate=True, **options))
        manager = session.aggregate
        before = list(session.receivers)
        tail = next(identity for identity in net.subtree_plan.identities(0)
                    if manager.is_tail_identity(identity))
        assert manager.promote(tail)
        assert len(session.receivers) == len(before) + 1
        built = {_receiver_options(rx) for rx in session.receivers}
        assert built == {_receiver_options(before[0])}
        assert before[0].reliable is False
        session.close()

    @pytest.mark.parametrize("at", [None, 5.0])
    def test_add_receiver_rejects_a_bad_host_at_the_call(self, at):
        net = dumbbell(1, 2, NON_LOSSY)
        net.add_host("island")  # a host the source has no path to
        session = create_session(net, "h0", ["r0"])
        routes = dict(net.router("R0").multicast_routes)
        agents = dict(net.host("r0")._agents)
        for name, error in (("r0", ValueError), ("nope", KeyError),
                            ("R1", TypeError), ("island", NoPath)):
            with pytest.raises(error, match=name):
                add_receiver(net, session, name, at=at)
        assert session.members == ["r0"]
        assert [rx.rx_id for rx in session.receivers] == ["r0"]
        assert net.router("R0").multicast_routes == routes
        assert net.host("r0")._agents == agents
        assert net.host("island")._agents == {}
        net.run(until=6.0)  # and nothing was left on the event heap
        assert session.members == ["r0"]
        # a rejected join used to stay in the member list and fail
        # every later one with it
        add_receiver(net, session, "r1")
        assert session.members == ["r0", "r1"]
        assert net.router("R1").multicast_routes[session.group] == ("r0", "r1")
        session.close()

    def test_a_host_wired_after_build_routes_is_rejected_at_the_call(self):
        """The source reaches it (the tree is solved on demand) but it
        has no unicast route back: every NAK it sent used to die at the
        host, as unrecoverable loss."""
        net = star(3, LOSSY, seed=1)
        net.add_host("late")
        net.duplex_link("R0", "late", LOSSY)
        unrouted = "no unicast route from late to src.*build_routes"
        with pytest.raises(NoPath, match=unrouted):
            create_session(net, "src", ["r0", "late"])
        assert net.host("late").groups == set()
        session = create_session(net, "src", ["r0"], stop_at=8.0)
        with pytest.raises(NoPath, match=unrouted):
            add_receiver(net, session, "late", at=2.0)
        assert session.members == ["r0"]
        net.build_routes()
        add_receiver(net, session, "late", at=2.0)
        net.run(until=10.0)
        late = session.receiver("late")
        assert late.odata_received > 0 and late.naks_sent > 0
        assert net.host("late").packets_dropped_no_route == 0
        assert session.summary()["unrecoverable_data_loss"] == 0
        session.close()

    def test_lookup_survives_direct_list_append(self):
        # Some experiments extend session.receivers directly; the index
        # rebuilds itself rather than returning stale misses.
        net = dumbbell(1, 2, NON_LOSSY)
        session = create_session(net, "h0", ["r0"])
        from repro.pgm.session import _make_receiver

        session.receivers.append(
            _make_receiver(net, session, "r1"))
        assert session.receiver("r1").host.name == "r1"

    def test_missing_receiver_raises_keyerror(self):
        net = dumbbell(1, 1, NON_LOSSY)
        session = create_session(net, "h0", ["r0"])
        with pytest.raises(KeyError):
            session.receiver("nope")

    def test_add_receiver_during_election_with_guard_active(self):
        # A receiver joining while the FeedbackGuard is active and the
        # acker election is still converging must integrate cleanly:
        # it gets delivered to, may win the election, and a demotion
        # (election cleared, elicit in flight) right before the join
        # must not wedge the session or violate guard rules.
        net = dumbbell(1, 3, NON_LOSSY, seed=9)
        session = create_session(net, "h0", ["r0", "r1"], guard=True)
        controller = session.sender.controller

        def join_mid_election():
            # Force an in-flight election: clear the incumbent and
            # mark the next ODATA elicit-NAK, then add the receiver
            # before any report answers it.
            controller.demote_acker()
            add_receiver(net, session, "r2")

        net.sim.schedule_at(3.0, join_mid_election)
        net.run(until=12.0)
        assert session.sender.guard is not None
        late = session.receiver("r2")
        assert late.delivered > 0
        # Election re-converged on some live receiver.
        assert controller.current_acker in {"r0", "r1", "r2"}
        summary = session.summary()
        assert "r2" in summary["receivers"]
        session.close()


class TestSummarySchema:
    def test_v1_keys_survive_in_v2(self):
        net = dumbbell(1, 2, NON_LOSSY)
        session = create_session(net, "h0", ["r0", "r1"])
        net.run(until=10.0)
        summary = session.summary()
        assert "schema" not in summary
        assert SUMMARY_V1_KEYS <= set(summary)
        for rx_summary in summary["receivers"].values():
            assert RECEIVER_V1_KEYS <= set(rx_summary)
        session.close()

    def test_v2_recovery_block_fixed_keys_without_watchdog(self):
        net = dumbbell(1, 1, NON_LOSSY)
        session = create_session(net, "h0", ["r0"])
        net.run(until=5.0)
        summary = session.summary()
        assert SUMMARY_V2_NEW_KEYS <= set(summary)
        recovery = summary["recovery"]
        assert set(recovery) == RECOVERY_KEYS
        assert recovery["watchdog"] is False
        assert recovery["demotions"] == 0
        for rx_summary in summary["receivers"].values():
            assert RECEIVER_V2_NEW_KEYS <= set(rx_summary)
        session.close()

    def test_v2_recovery_block_fixed_keys_with_watchdog(self):
        net = dumbbell(1, 1, NON_LOSSY)
        session = create_session(
            net, "h0", ["r0"],
            config=SessionConfig(cc=CcConfig(liveness=True)))
        net.run(until=5.0)
        summary = session.summary()
        recovery = summary["recovery"]
        assert set(recovery) == RECOVERY_KEYS
        assert recovery["watchdog"] is True
        assert recovery["state"] == "normal"
        session.close()

    def test_the_source_confirms_every_nak_it_receives(self):
        """One multicast NCF per NAK reaching the source: the count the
        join-time storm is measured by."""
        net = star(4, LOSSY, seed=3)
        session = create_session(net, "src", ["r0", "r1", "r2", "r3"])
        net.run(until=10.0)
        summary = session.summary()
        assert summary["naks_received"] > 0
        assert summary["ncfs_sent"] == summary["naks_received"]
        session.close()

    def test_summary_round_trips_through_json(self):
        import json

        net = dumbbell(1, 1, NON_LOSSY)
        session = create_session(net, "h0", ["r0"])
        net.run(until=10.0)
        session.close()
        summary = session.summary()
        restored = json.loads(json.dumps(summary))
        assert restored["odata_sent"] == summary["odata_sent"]
        assert restored["receivers"].keys() == summary["receivers"].keys()
