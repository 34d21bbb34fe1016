"""Tests for network construction, routing and multicast trees."""

import math

import pytest

from repro.simulator import (
    ACCESS,
    LOSSY,
    NON_LOSSY,
    LinkSpec,
    Network,
    Packet,
    dumbbell,
    dumbbell_subtrees,
    star,
    two_bottleneck,
)
from repro.simulator.rng import RngRegistry


class TestLinkSpec:
    def test_default_queue_is_30_slots(self):
        q = LinkSpec(1000, 0.01).make_queue()
        assert q.max_slots == 30

    def test_byte_queue(self):
        q = LinkSpec(1000, 0.01, queue_bytes=30_000).make_queue()
        assert q.max_bytes == 30_000
        assert q.max_slots is None

    def test_paper_configs(self):
        assert NON_LOSSY.rate_bps == 500_000
        assert NON_LOSSY.delay == 0.050
        assert NON_LOSSY.queue_slots == 30
        assert LOSSY.rate_bps == 2_000_000
        assert LOSSY.delay == 0.230
        assert LOSSY.queue_bytes == 30_000
        assert LOSSY.loss_rate == 0.03

    def test_loss_model_selection(self):
        streams = RngRegistry(1)
        assert LinkSpec(1000, 0.0).make_loss(streams, "x").__class__.__name__ == "NoLoss"
        assert (
            LinkSpec(1000, 0.0, loss_rate=0.1)
            .make_loss(streams, "x")
            .__class__.__name__
            == "BernoulliLoss"
        )

    @pytest.mark.parametrize("rate", [-0.1, math.nan, 1.5])
    def test_bad_loss_rate_raises_where_the_spec_is_written(self, rate):
        with pytest.raises(ValueError, match="loss_rate"):
            LinkSpec(1000, 0.0, loss_rate=rate)

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_loss_rate_bounds_are_accepted(self, rate):
        assert LinkSpec(1000, 0.0, loss_rate=rate).loss_rate == rate

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan])
    def test_bad_rate_raises_where_the_spec_is_written(self, rate):
        with pytest.raises(ValueError, match="rate_bps"):
            LinkSpec(rate, 0.01)

    @pytest.mark.parametrize("delay", [-0.1, math.nan, math.inf])
    def test_bad_delay_raises_where_the_spec_is_written(self, delay):
        with pytest.raises(ValueError, match="delay"):
            LinkSpec(1000, delay)


class TestLossStreams:
    @pytest.fixture
    def requested(self, monkeypatch):
        names = []
        real = RngRegistry.stream
        monkeypatch.setattr(RngRegistry, "stream",
                            lambda self, name: names.append(name) or real(self, name))
        return names

    @pytest.mark.parametrize("build, lossy", [
        (lambda: dumbbell(2, 4, NON_LOSSY), set()),
        (lambda: dumbbell_subtrees(10**6, subtrees=64), set()),
        (lambda: dumbbell(2, 4, LOSSY), {"loss:R0->R1", "loss:R1->R0"}),
    ], ids=["dumbbell", "hybrid_1e6", "dumbbell_lossy"])
    def test_only_a_lossy_link_requests_a_stream(self, requested, build, lossy):
        build()
        assert {name for name in requested if name.startswith("loss:")} == lossy

    def test_lossy_link_draws_its_named_stream(self):
        net = Network(seed=11)
        net.add_host("a")
        net.add_host("b")
        link = net.simplex_link("a", "b", LinkSpec(1000, 0.0, loss_rate=0.3))
        fresh = RngRegistry(11).stream("loss:a->b")
        packet = Packet("a", "b", 10)
        assert ([link.loss.should_drop(packet) for _ in range(200)]
                == [fresh.random() < 0.3 for _ in range(200)])


class TestNetworkConstruction:
    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_host("a")
        with pytest.raises(ValueError):
            net.add_host("a")

    def test_duplex_link_creates_both_directions(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.duplex_link("a", "b", ACCESS)
        assert net.link("a", "b").name == "a->b"
        assert net.link("b", "a").name == "b->a"

    def test_asymmetric_duplex(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        slow = LinkSpec(1000, 0.5)
        net.duplex_link("a", "b", ACCESS, reverse_spec=slow)
        assert net.link("b", "a").rate_bps == 1000

    def test_host_router_type_guards(self):
        net = Network()
        net.add_host("h")
        net.add_router("r")
        with pytest.raises(TypeError):
            net.host("r")
        with pytest.raises(TypeError):
            net.router("h")


class TestUnicastRouting:
    def test_delivery_across_routers(self):
        net = dumbbell(1, 1, NON_LOSSY)
        received = []

        class Sink:
            def handle_packet(self, packet):
                received.append(packet)

        net.host("r0").register_agent("raw", Sink())
        net.host("h0").send(Packet("h0", "r0", 100, proto="raw"))
        net.run(until=5.0)
        assert len(received) == 1

    def test_shortest_path_prefers_lower_delay(self):
        net = Network()
        for n in ("a", "b"):
            net.add_host(n)
        for r in ("fast", "slow"):
            net.add_router(r)
        net.duplex_link("a", "fast", LinkSpec(1e6, 0.001, queue_slots=10))
        net.duplex_link("fast", "b", LinkSpec(1e6, 0.001, queue_slots=10))
        net.duplex_link("a", "slow", LinkSpec(1e6, 0.5, queue_slots=10))
        net.duplex_link("slow", "b", LinkSpec(1e6, 0.5, queue_slots=10))
        net.build_routes()
        assert net.nodes["a"].unicast_routes["b"] == "fast"

    def test_host_does_not_forward_transit(self):
        net = dumbbell(1, 1, NON_LOSSY)
        host = net.host("r0")
        before = host.packets_dropped_no_route
        host.receive(Packet("x", "nonexistent", 10), from_node="R1")
        assert host.packets_dropped_no_route == before + 1


class TestMulticast:
    def test_tree_delivers_to_all_members(self):
        net = dumbbell(1, 3, NON_LOSSY)
        received = {f"r{i}": [] for i in range(3)}

        class Sink:
            def __init__(self, name):
                self.name = name

            def handle_packet(self, packet):
                received[self.name].append(packet)

        members = ["r0", "r1", "r2"]
        net.set_group("mc:g", "h0", members)
        for m in members:
            net.host(m).register_agent("raw", Sink(m))
        net.host("h0").send(Packet("h0", "mc:g", 100, proto="raw"))
        net.run(until=5.0)
        assert all(len(v) == 1 for v in received.values())

    def test_non_members_not_delivered(self):
        net = dumbbell(1, 2, NON_LOSSY)
        hits = []

        class Sink:
            def handle_packet(self, packet):
                hits.append(packet)

        net.set_group("mc:g", "h0", ["r0"])
        net.host("r1").register_agent("raw", Sink())
        net.host("h0").send(Packet("h0", "mc:g", 100, proto="raw"))
        net.run(until=5.0)
        assert hits == []

    def test_bottleneck_carries_one_copy(self):
        """Replication happens below the branch point, not above."""
        net = dumbbell(1, 3, NON_LOSSY)
        net.set_group("mc:g", "h0", ["r0", "r1", "r2"])
        bottleneck = net.link("R0", "R1")
        net.host("h0").send(Packet("h0", "mc:g", 100, proto="raw"))
        net.run(until=5.0)
        assert bottleneck.delivered == 1

    def test_join_group_requires_multicast_addr(self):
        net = Network()
        host = net.add_host("h")
        with pytest.raises(ValueError):
            host.join_group("not-multicast")

    def test_group_reinstall_extends_membership(self):
        net = star(3, ACCESS)
        net.set_group("mc:g", "src", ["r0"])
        net.set_group("mc:g", "src", ["r0", "r1"])
        hits = []

        class Sink:
            def handle_packet(self, packet):
                hits.append(packet)

        net.host("r1").register_agent("raw", Sink())
        net.host("src").send(Packet("src", "mc:g", 100, proto="raw"))
        net.run(until=1.0)
        assert len(hits) == 1

    def test_one_multicast_packet_from_the_hub_is_one_heap_entry(self):
        """The hub's 100 copies arrive at one instant and share one
        engine entry.  The benchmark's ``engine.events`` counts
        deliveries, so only a structural count shows grouping lost."""
        net = star(100, ACCESS)
        members = [f"r{i}" for i in range(100)]
        net.set_group("mc:g", "src", members)
        net.host("src").send(Packet("src", "mc:g", 100))
        sim = net.sim
        sim.run(max_events=1)  # src -> R0: the hub forwards 100 copies
        assert sim.pending() == 100 and len(sim._heap) == 1
        sim.run()
        assert [net.host(m).packets_received for m in members] == [1] * 100
        assert sim.events_processed == 101


class TestCannedTopologies:
    def test_dumbbell_shape(self):
        net = dumbbell(2, 3, NON_LOSSY)
        assert set(net.nodes) == {"h0", "h1", "r0", "r1", "r2", "R0", "R1"}
        assert net.link("R0", "R1").rate_bps == 500_000

    def test_star_shape(self):
        net = star(4, LOSSY)
        assert "src" in net.nodes
        assert net.link("R0", "r3").rate_bps == LOSSY.rate_bps

    def test_two_bottleneck_shape(self):
        l1 = LinkSpec(400_000, 0.05, queue_bytes=20_000)
        l2 = LinkSpec(500_000, 0.05, queue_slots=30)
        net = two_bottleneck(l1, l2)
        assert net.link("R0", "R1").rate_bps == 400_000
        assert net.link("R0", "R2").rate_bps == 500_000
        # TCP receiver shares L2's subtree
        assert net.nodes["R2"].links.keys() >= {"pr2", "tr"}
