"""Shared fixtures for PGM protocol tests."""

import pytest

from repro.simulator import LinkSpec, Network

FAST = LinkSpec(rate_bps=10_000_000, delay=0.010, queue_slots=200)


class Collector:
    """Agent capturing every packet delivered to its host."""

    def __init__(self):
        self.packets = []

    def handle_packet(self, packet):
        self.packets.append(packet)

    def payloads(self, cls=None):
        msgs = [p.payload for p in self.packets]
        if cls is not None:
            msgs = [m for m in msgs if isinstance(m, cls)]
        return msgs


@pytest.fixture
def wire():
    """src -- R0 -- rx  over fast symmetric links, multicast group
    'mc:t' installed from src to rx."""
    net = Network(seed=3)
    net.add_host("src")
    net.add_router("R0")
    net.add_host("rx")
    net.duplex_link("src", "R0", FAST)
    net.duplex_link("R0", "rx", FAST)
    net.build_routes()
    net.set_group("mc:t", "src", ["rx"])
    return net


@pytest.fixture
def fanout():
    """src -- R0 -- {rx0, rx1, rx2}, group installed to all three."""
    net = Network(seed=4)
    net.add_host("src")
    net.add_router("R0")
    for i in range(3):
        net.add_host(f"rx{i}")
        net.duplex_link("R0", f"rx{i}", FAST)
    net.duplex_link("src", "R0", FAST)
    net.build_routes()
    net.set_group("mc:t", "src", ["rx0", "rx1", "rx2"])
    return net
