"""Unit tests for hosts, routers and the interceptor hook."""

import pytest

from repro.simulator import ACCESS, Network, Packet, is_multicast
from repro.simulator.engine import Simulator
from repro.simulator.node import Host
from repro.simulator.packet import MULTICAST_PREFIX


class Sink:
    def __init__(self):
        self.packets = []

    def handle_packet(self, packet):
        self.packets.append(packet)


class TestAddressing:
    def test_is_multicast(self):
        assert is_multicast(f"{MULTICAST_PREFIX}group1")
        assert not is_multicast("host1")

    def test_packet_uids_unique(self):
        a = Packet("a", "b", 10)
        b = Packet("a", "b", 10)
        assert a.uid != b.uid


class TestHost:
    def make_host(self):
        return Host(Simulator(), "h")

    def test_duplicate_agent_rejected(self):
        host = self.make_host()
        host.register_agent("x", Sink())
        with pytest.raises(ValueError):
            host.register_agent("x", Sink())

    def test_unregister_allows_replacement(self):
        host = self.make_host()
        host.register_agent("x", Sink())
        host.unregister_agent("x")
        host.register_agent("x", Sink())  # no raise

    def test_local_delivery_by_proto(self):
        host = self.make_host()
        sink = Sink()
        host.register_agent("tcp", sink)
        host.receive(Packet("a", "h", 10, proto="tcp"), from_node="r")
        host.receive(Packet("a", "h", 10, proto="pgm"), from_node="r")
        assert len(sink.packets) == 1

    def test_multicast_delivery_requires_join(self):
        host = self.make_host()
        sink = Sink()
        host.register_agent("raw", sink)
        group = f"{MULTICAST_PREFIX}g"
        host.receive(Packet("a", group, 10, proto="raw"), from_node="r")
        assert sink.packets == []
        host.join_group(group)
        host.receive(Packet("a", group, 10, proto="raw"), from_node="r")
        assert len(sink.packets) == 1

    def test_leave_group(self):
        host = self.make_host()
        group = f"{MULTICAST_PREFIX}g"
        host.join_group(group)
        host.leave_group(group)
        assert group not in host.groups

    def test_send_without_route_returns_false(self):
        host = self.make_host()
        assert not host.send(Packet("h", "nowhere", 10))


class TestRouterForwarding:
    def build(self):
        net = Network(seed=1)
        net.add_host("a")
        router = net.add_router("R")
        net.add_host("b")
        net.add_host("c")
        for h in ("a", "b", "c"):
            net.duplex_link(h, "R", ACCESS)
        net.build_routes()
        return net, router

    def test_unicast_next_hop(self):
        net, router = self.build()
        assert router.unicast_next_hop("b") == "b"

    def test_multicast_split_horizon(self):
        """The arrival branch is excluded from replication."""
        net, router = self.build()
        group = f"{MULTICAST_PREFIX}g"
        router.multicast_routes[group] = ("a", "b", "c")
        packet = Packet("a", group, 10)
        copies = router.forward_multicast(packet, from_node="a")
        assert copies == 2

    def test_hop_limit_drops_loops(self):
        net, router = self.build()
        packet = Packet("a", "b", 10)
        packet.hops = Packet.MAX_HOPS
        before = router.packets_dropped_no_route
        router.receive(packet, from_node="a")
        assert router.packets_dropped_no_route == before + 1

    def test_wide_multicast_fanout_not_dropped_as_loop(self):
        # Multicast fan-out shares one packet instance across
        # every branch, so the hop counter accumulates one visit per
        # branch router — a fan-out wider than MAX_HOPS used to trip
        # the loop guard on whichever branch happened to be delivered
        # last, silently starving that subtree of ODATA.
        from repro.simulator import dumbbell_subtrees

        width = Packet.MAX_HOPS + 16
        net = dumbbell_subtrees(2 * width, subtrees=width)
        plan = net.subtree_plan
        group = f"{MULTICAST_PREFIX}g"
        net.set_group(group, "h0", plan.session_hosts())
        net.host("h0").send(Packet("h0", group, 100))
        net.sim.run(until=1.0)
        received = [net.host(plan.agg_host(k)).packets_received
                    for k in range(width)]
        assert received == [1] * width, received.index(0)

    def test_interceptor_consumes(self):
        net, router = self.build()

        class Interceptor:
            def __init__(self):
                self.seen = []

            def intercept(self, packet, from_node):
                self.seen.append((packet.uid, from_node))
                return True  # consume everything

        interceptor = Interceptor()
        router.set_interceptor(interceptor)
        forwarded_before = router.packets_forwarded
        router.receive(Packet("a", "b", 10), from_node="a")
        assert len(interceptor.seen) == 1
        assert router.packets_forwarded == forwarded_before

    def test_interceptor_pass_through(self):
        net, router = self.build()

        class Passive:
            def intercept(self, packet, from_node):
                return False

        router.set_interceptor(Passive())
        router.receive(Packet("a", "b", 10), from_node="a")
        assert router.packets_forwarded == 1

    def test_duplicate_link_rejected(self):
        net, router = self.build()
        from repro.simulator.link import Link

        with pytest.raises(ValueError):
            router.attach_link("a", Link(net.sim, "dup", 1000, 0.0))
