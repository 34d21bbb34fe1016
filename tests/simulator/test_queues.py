"""Unit tests for the link's drop-tail queue.

A packet that finds the wire busy waits in the link's one FIFO while
the slots and bytes waiting stay within ``queue_slots`` and
``queue_bytes``; past either limit it is dropped.  At 8000 bps a
100-byte packet holds the wire for 0.1 s.
"""

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.packet import Packet


class Sink(list):
    def receive(self, packet, from_node):
        self.append(packet)


def make_link(sim, **limits):
    received = Sink()
    link = Link(sim, "L", rate_bps=8000.0, delay=0.1, **limits)
    link.connect(received, "a")
    return link, received


def pkt(size=100, tag=None):
    return Packet("a", "b", size, tag)


class TestDropTail:
    def test_slot_limit(self):
        sim = Simulator()
        link, _ = make_link(sim, queue_slots=2)
        assert link.send(pkt())  # takes the idle wire
        assert link.send(pkt())
        assert link.send(pkt())
        assert not link.send(pkt())
        assert link.queue_drops == 1
        assert link.queued == 2

    def test_byte_limit(self):
        sim = Simulator()
        link, _ = make_link(sim, queue_bytes=250)
        assert link.send(pkt(100))  # takes the idle wire
        assert link.send(pkt(100))
        assert link.send(pkt(100))
        assert not link.send(pkt(100))  # would be 300 bytes waiting
        assert link.send(pkt(50))
        assert link.bytes_queued == 250

    def test_fifo_order(self):
        sim = Simulator()
        link, received = make_link(sim, queue_slots=3)
        for tag in range(4):
            assert link.send(pkt(tag=tag))
        sim.run()
        assert [packet.payload for packet in received] == [0, 1, 2, 3]

    def test_bytes_accounting_on_pop(self):
        sim = Simulator()
        link, _ = make_link(sim, queue_slots=5)
        link.send(pkt(100))  # takes the idle wire
        link.send(pkt(100))
        link.send(pkt(200))
        assert link.bytes_queued == 300
        # the first packet ends at 0.1 s and the head leaves for the wire
        sim.run(until=0.1)
        assert link.bytes_queued == 200

    def test_invalid_limits(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="queue_slots"):
            Link(sim, "bad", rate_bps=1000, delay=0.1, queue_slots=0)
        with pytest.raises(ValueError, match="queue_bytes"):
            Link(sim, "bad", rate_bps=1000, delay=0.1, queue_bytes=0)
