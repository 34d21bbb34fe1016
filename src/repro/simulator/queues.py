"""Link output queues.

The paper's bottlenecks are FIFO queues limited either in *slots*
(e.g. "30 queue slots") or in *bytes* (e.g. "30 KBytes queue"); both
appear in §4, so both limits are supported.  A drop-tail discipline is
what dummynet and the ns-2 scripts of the era used, and the only one
the paper's experiments need.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .packet import Packet


class DropTailQueue:
    """FIFO queue with a slot limit, a byte limit, or both.

    ``None`` for a limit means unconstrained in that dimension.  At
    least one limit must be given (an infinite queue hides congestion
    entirely and is almost always a configuration error).
    """

    def __init__(self, max_slots: Optional[int] = None, max_bytes: Optional[int] = None):
        if max_slots is None and max_bytes is None:
            raise ValueError("queue needs a slot limit, a byte limit, or both")
        if max_slots is not None and max_slots < 1:
            raise ValueError("max_slots must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_slots = max_slots
        self.max_bytes = max_bytes
        self._queue: deque[Packet] = deque()
        self.bytes_queued = 0
        self.drops = 0
        self.enqueues = 0
        self.peak_bytes = 0
        self.peak_slots = 0

    def __len__(self) -> int:
        return len(self._queue)

    def offer(self, packet: Packet) -> bool:
        """Enqueue ``packet`` if it fits; return whether it was accepted."""
        # Single-pass limit checks and byte/peak accounting: this runs
        # once per packet on every congested link.
        queue = self._queue
        slots = len(queue)
        if self.max_slots is not None and slots >= self.max_slots:
            self.drops += 1
            return False
        nbytes = self.bytes_queued + packet.size
        if self.max_bytes is not None and nbytes > self.max_bytes:
            self.drops += 1
            return False
        queue.append(packet)
        self.bytes_queued = nbytes
        self.enqueues += 1
        if nbytes > self.peak_bytes:
            self.peak_bytes = nbytes
        slots += 1
        if slots > self.peak_slots:
            self.peak_slots = slots
        return True

    def pop(self) -> Optional[Packet]:
        """Dequeue the head packet, or ``None`` if empty."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self.bytes_queued -= packet.size
        return packet

    def metrics(self) -> dict:
        """Queue counters for telemetry pull-bindings."""
        return {
            "depth": len(self._queue),
            "bytes_queued": self.bytes_queued,
            "enqueues": self.enqueues,
            "drops": self.drops,
            "peak_slots": self.peak_slots,
            "peak_bytes": self.peak_bytes,
        }

