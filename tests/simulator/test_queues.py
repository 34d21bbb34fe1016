"""Unit tests for the drop-tail queue."""

import pytest

from repro.simulator.packet import Packet
from repro.simulator.queues import DropTailQueue


def pkt(size=100):
    return Packet("a", "b", size)


class TestDropTail:
    def test_requires_a_limit(self):
        with pytest.raises(ValueError):
            DropTailQueue()

    def test_slot_limit(self):
        q = DropTailQueue(max_slots=2)
        assert q.offer(pkt())
        assert q.offer(pkt())
        assert not q.offer(pkt())
        assert q.drops == 1
        assert len(q) == 2

    def test_byte_limit(self):
        q = DropTailQueue(max_bytes=250)
        assert q.offer(pkt(100))
        assert q.offer(pkt(100))
        assert not q.offer(pkt(100))  # would be 300 bytes
        assert q.offer(pkt(50))
        assert q.bytes_queued == 250

    def test_both_limits_enforced(self):
        q = DropTailQueue(max_slots=10, max_bytes=150)
        assert q.offer(pkt(100))
        assert not q.offer(pkt(100))

    def test_fifo_order(self):
        q = DropTailQueue(max_slots=3)
        packets = [pkt(), pkt(), pkt()]
        for p in packets:
            q.offer(p)
        assert [q.pop() for _ in range(3)] == packets

    def test_pop_empty_returns_none(self):
        q = DropTailQueue(max_slots=1)
        assert q.pop() is None

    def test_bytes_accounting_on_pop(self):
        q = DropTailQueue(max_slots=5)
        q.offer(pkt(100))
        q.offer(pkt(200))
        q.pop()
        assert q.bytes_queued == 200

    def test_peak_tracking(self):
        q = DropTailQueue(max_slots=5)
        for _ in range(3):
            q.offer(pkt(100))
        q.pop()
        assert q.peak_slots == 3
        assert q.peak_bytes == 300

    def test_invalid_limits(self):
        with pytest.raises(ValueError):
            DropTailQueue(max_slots=0)
        with pytest.raises(ValueError):
            DropTailQueue(max_bytes=0)

    def test_paper_queue_sizes(self):
        """The paper's configurations: 30 slots or 30 KB."""
        slots = DropTailQueue(max_slots=30)
        for _ in range(30):
            assert slots.offer(pkt(1500))
        assert not slots.offer(pkt(1500))

        kb = DropTailQueue(max_bytes=30_000)
        accepted = 0
        while kb.offer(pkt(1500)):
            accepted += 1
        assert accepted == 20  # 30000 // 1500

