"""Tests for the ECMP (packet-spraying) router."""

import pytest

from repro.simulator import ACCESS, LinkSpec, Network, Packet


def build():
    net = Network(seed=9)
    net.add_host("a")
    net.add_ecmp_router("E")
    net.add_router("P1")
    net.add_router("P2")
    net.add_host("b")
    net.duplex_link("a", "E", ACCESS)
    net.duplex_link("E", "P1", ACCESS)
    net.duplex_link("E", "P2", LinkSpec(100_000_000, 0.050, queue_slots=1000))
    net.duplex_link("P1", "b", ACCESS)
    net.duplex_link("P2", "b", ACCESS)
    net.build_routes()
    return net


class Sink:
    def __init__(self):
        self.packets = []

    def handle_packet(self, packet):
        self.packets.append(packet)


class TestEcmp:
    def test_needs_two_hops(self):
        net = build()
        with pytest.raises(ValueError):
            net.router("E").set_ecmp("b", ["P1"])

    def test_round_robin_split(self):
        net = build()
        net.router("E").set_ecmp("b", ["P1", "P2"])
        sink = Sink()
        net.host("b").register_agent("raw", sink)
        for _ in range(10):
            net.host("a").send(Packet("a", "b", 100, proto="raw"))
        net.run(until=1.0)
        assert len(sink.packets) == 10
        assert net.link("E", "P1").delivered == 5
        assert net.link("E", "P2").delivered == 5

    def test_unequal_delays_reorder(self):
        net = build()
        net.router("E").set_ecmp("b", ["P1", "P2"])
        sink = Sink()
        net.host("b").register_agent("raw", sink)
        for i in range(6):
            # tag send order in the payload (Host.send stamps created_at)
            net.host("a").send(Packet("a", "b", 100, payload=i, proto="raw"))
        net.run(until=1.0)
        arrival_order = [p.payload for p in sink.packets]
        assert arrival_order != sorted(arrival_order)  # reordering happened

    def test_non_ecmp_destinations_unchanged(self):
        net = build()
        net.router("E").set_ecmp("b", ["P1", "P2"])
        # traffic back to 'a' follows the plain unicast table
        sink = Sink()
        net.host("a").register_agent("raw", sink)
        net.host("b").send(Packet("b", "a", 100, proto="raw"))
        net.run(until=1.0)
        assert len(sink.packets) == 1

    def test_multicast_spray(self):
        net = build()
        group = "mc:g"
        net.set_group(group, "a", ["b"])
        net.router("E").set_ecmp(group, ["P1", "P2"])
        for parallel in ("P1", "P2"):
            net.router(parallel).multicast_routes[group] = ("b",)
        sink = Sink()
        net.host("b").register_agent("raw", sink)
        for _ in range(8):
            net.host("a").send(Packet("a", group, 100, proto="raw"))
        net.run(until=1.0)
        assert len(sink.packets) == 8
        assert net.link("E", "P1").delivered == 4
