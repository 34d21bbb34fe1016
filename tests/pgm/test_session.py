"""Tests for session wiring (create_session, add_receiver, NEs)."""

import pytest

from repro.pgm import add_receiver, create_session, enable_network_elements
from repro.pgm import constants as C
from repro.pgm.network_element import PgmNetworkElement
from repro.simulator import NON_LOSSY, LinkSpec, dumbbell, star
from repro.tcp import create_tcp_flow


class TestCreateSession:
    def test_end_to_end_flow(self):
        net = dumbbell(1, 1, NON_LOSSY)
        session = create_session(net, "h0", ["r0"])
        net.run(until=10.0)
        assert session.sender.odata_sent > 50
        assert session.receivers[0].odata_received > 50
        assert session.sender.current_acker == "r0"

    def test_delayed_start(self):
        net = dumbbell(1, 1, NON_LOSSY)
        session = create_session(net, "h0", ["r0"], start_at=5.0)
        net.run(until=4.9)
        assert session.sender.odata_sent == 0
        net.run(until=10.0)
        assert session.sender.odata_sent > 0

    def test_stop_at(self):
        net = dumbbell(1, 1, NON_LOSSY)
        session = create_session(net, "h0", ["r0"], stop_at=5.0)
        net.run(until=20.0)
        last_data = max(session.trace.times("data"))
        assert last_data <= 5.0

    def test_stop_at_precedes_a_heartbeat_due_at_the_same_instant(self):
        # tie rule (DESIGN.md §6): create_session schedules close()
        # before the sender has armed any timer, so an SPM due at
        # exactly stop_at is not sent
        net = dumbbell(1, 1, NON_LOSSY)
        session = create_session(net, "h0", ["r0"], stop_at=4 * C.SPM_IVL)
        net.run(until=10.0)
        assert session.sender._spm_seq == 4  # t = 0, 0.5, 1.0, 1.5

    def test_unique_tsi_and_group(self):
        net = dumbbell(2, 2, NON_LOSSY)
        s1 = create_session(net, "h0", ["r0"])
        s2 = create_session(net, "h1", ["r1"])
        assert s1.tsi != s2.tsi
        assert s1.group != s2.group

    def test_throughput_helper(self):
        net = dumbbell(1, 1, NON_LOSSY)
        session = create_session(net, "h0", ["r0"])
        net.run(until=20.0)
        rate = session.throughput_bps(5.0, 20.0)
        assert 300_000 < rate < 520_000  # most of a 500 kbit/s link

    def test_a_link_hop_costs_one_event(self):
        """Pins the link's event model end to end: a hop costs its
        arrival event whether or not the packet waited (DESIGN.md §6),
        so even a bottleneck that overflows stays near one event per
        hop — the rest are the agents' timers."""
        net = dumbbell(2, 4, NON_LOSSY, seed=9)
        create_session(net, "h0", ["r0", "r1", "r2"])
        create_tcp_flow(net, "h1", "r3")
        net.run(until=10.0)
        links = [link for node in net.nodes.values()
                 for link in node.links.values()]
        assert sum(link.enqueues for link in links) > 500
        assert sum(link.queue_drops for link in links) > 0
        hop_packets = sum(link.delivered for link in links)
        assert hop_packets > 3000
        assert net.sim.events_processed / hop_packets < 1.1

    def test_receiver_lookup(self):
        net = dumbbell(1, 2, NON_LOSSY)
        session = create_session(net, "h0", ["r0", "r1"])
        assert session.receiver("r1").rx_id == "r1"
        with pytest.raises(KeyError):
            session.receiver("zzz")

    def test_sessions_share_bottleneck_fairly(self):
        net = dumbbell(2, 2, NON_LOSSY, seed=6)
        s1 = create_session(net, "h0", ["r0"])
        s2 = create_session(net, "h1", ["r1"])
        net.run(until=60.0)
        r1 = s1.throughput_bps(20, 60)
        r2 = s2.throughput_bps(20, 60)
        assert max(r1, r2) / min(r1, r2) < 2.0


class TestAddReceiver:
    def test_mid_session_join_receives_data(self):
        net = dumbbell(1, 2, NON_LOSSY)
        session = create_session(net, "h0", ["r0"])
        add_receiver(net, session, "r1", at=5.0)
        net.run(until=15.0)
        late = session.receiver("r1")
        assert late.odata_received > 0
        assert late.naks_sent == 0 or late.naks_sent < 5  # no history storm
        assert late.cc.loss_filter.losses < 5

    def test_immediate_join(self):
        net = dumbbell(1, 2, NON_LOSSY)
        session = create_session(net, "h0", ["r0"])
        add_receiver(net, session, "r1")
        assert len(session.receivers) == 2

    def test_members_tracked(self):
        net = dumbbell(1, 3, NON_LOSSY)
        session = create_session(net, "h0", ["r0"])
        add_receiver(net, session, "r1", at=1.0)
        add_receiver(net, session, "r2", at=2.0)
        net.run(until=5.0)
        assert session.members == ["r0", "r1", "r2"]


class TestNetworkElements:
    def test_enable_on_all_routers(self):
        net = dumbbell(1, 2, NON_LOSSY)
        elements = enable_network_elements(net)
        assert set(elements) == {"R0", "R1"}
        assert all(isinstance(ne, PgmNetworkElement) for ne in elements.values())

    def test_enable_on_subset(self):
        net = dumbbell(1, 2, NON_LOSSY)
        elements = enable_network_elements(net, ["R1"])
        assert set(elements) == {"R1"}

    def test_session_works_through_nes(self):
        net = dumbbell(1, 3, NON_LOSSY, seed=9)
        enable_network_elements(net)
        session = create_session(net, "h0", ["r0", "r1", "r2"])
        net.run(until=20.0)
        rate = session.throughput_bps(5, 20)
        assert rate > 300_000
        for rx in session.receivers:
            assert rx.odata_received > 100

    def test_nes_reduce_naks_at_source(self):
        """Three co-located receivers: suppression cuts the duplicate
        NAKs the source sees for the same loss events."""
        lossy_bneck = LinkSpec(rate_bps=500_000, delay=0.050,
                               queue_slots=30, loss_rate=0.02)

        def run_one(with_ne):
            net = dumbbell(1, 3, lossy_bneck, seed=12)
            if with_ne:
                enable_network_elements(net)
            session = create_session(net, "h0", ["r0", "r1", "r2"])
            net.run(until=40.0)
            naks = session.sender.naks_received
            session.close()
            return naks

        assert run_one(True) < run_one(False)


class TestUnreliableSession:
    def test_no_rdata_but_data_flows(self):
        spec = LinkSpec(rate_bps=500_000, delay=0.05, queue_slots=30,
                        loss_rate=0.02)
        net = star(1, spec, seed=8)
        session = create_session(net, "src", ["r0"], reliable=False)
        net.run(until=20.0)
        assert session.sender.odata_sent > 100
        assert session.sender.rdata_sent == 0
        assert session.sender.naks_received > 0  # reports still flow
