"""Simulated network packets and the packet pool.

Packets carry a protocol *payload object* (a PGM or TCP message) plus
the addressing metadata the simulator needs to route and account for
them.  The ``size`` field — total bytes on the wire — is what links use
for serialisation delay and byte-limited queues, so protocol code must
set it to header + payload length.

Pooling and the ownership contract
----------------------------------

``Packet`` is a slotted, reference-counted class recycled through a
process-global free list (:data:`POOL`), so the per-packet allocation
churn of the old dataclass is gone from the hot path.  ``Packet(...)``
call sites are unchanged: ``__new__`` transparently reuses a released
instance and ``__init__`` re-stamps every field including a fresh
``uid``, so a recycled packet is indistinguishable from a new one.

Ownership rules (enforced by the simulator layer, invisible to
protocol agents — see DESIGN.md "Packet pool"):

* creating a packet gives the creator one reference;
* ``Host.send`` and ``Link.send`` *consume* one reference on every
  path (drop or transmit);
* multicast fan-out retains one reference per branch, so replicated
  branches legally share the one instance;
* ``receive`` consumes the reference on final delivery or drop;
* router interceptors *borrow* — an interceptor that re-forwards the
  same packet object must ``retain()`` it first;
* link observers and traces borrow and must not hold packets past the
  callback.

``release()`` on an already-released packet is counted
(``POOL.double_release``) instead of corrupting the free list — the
canary for the fault-episode/queue double-release class of bug — and
``Packet.__repr__`` guards the released state so debug output and
event dumps never render stale pooled fields.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

#: Addresses are plain strings ("s0", "r3", multicast groups "mc:...").
Address = str

#: Multicast group addresses use this prefix.
MULTICAST_PREFIX = "mc:"

_packet_ids = itertools.count(1)


def is_multicast(addr: Address) -> bool:
    """True if ``addr`` names a multicast group rather than a host."""
    return addr.startswith(MULTICAST_PREFIX)


class PacketPool:
    """Free list + accounting for recycled :class:`Packet` instances.

    The counters make leaks observable: ``outstanding`` is the number
    of live (not-yet-released) packets, which returns to zero once a
    drained scenario has released everything, and ``double_release``
    counts releases of already-dead packets (always zero in correct
    code; surfaced via ``repro.telemetry`` as ``pool.double_release``).
    """

    __slots__ = ("free", "allocated", "reused", "released",
                 "double_release")

    def __init__(self):
        self.free: list["Packet"] = []
        #: fresh instances constructed
        self.allocated = 0
        #: constructions served from the free list
        self.reused = 0
        #: packets whose refcount reached zero
        self.released = 0
        #: releases of an already-released packet (bug canary)
        self.double_release = 0

    @property
    def outstanding(self) -> int:
        """Live packets: created (fresh + reused) minus released."""
        return self.allocated + self.reused - self.released

    def stats(self) -> dict:
        """Counter snapshot for telemetry and leak assertions."""
        return {
            "allocated": self.allocated,
            "reused": self.reused,
            "released": self.released,
            "double_release": self.double_release,
            "outstanding": self.outstanding,
            "free": len(self.free),
        }

    def reset(self) -> None:
        """Zero the counters and drop the free list (test isolation)."""
        self.free.clear()
        self.allocated = 0
        self.reused = 0
        self.released = 0
        self.double_release = 0


#: The process-global pool.  All ``Packet`` construction and release
#: goes through it.
POOL = PacketPool()


class Packet:
    """A packet in flight.

    Attributes:
        src: originating host address.
        dst: destination host or multicast group address.
        size: total wire size in bytes (headers included).
        payload: the protocol message object.
        proto: short protocol tag ("pgm", "tcp", ...) used by routers
            and trace filters.
        created_at: simulation time the packet was created (set by the
            sender; used by trace analysis).
        hops: incremented by each router; a TTL-style safety net
            against forwarding loops.
        uid: unique id, fresh per construction (pooled reuse included).
    """

    __slots__ = ("src", "dst", "size", "payload", "proto", "created_at",
                 "hops", "uid", "_refs")

    MAX_HOPS = 64

    def __new__(cls, *args: Any, **kwargs: Any) -> "Packet":
        pool = POOL
        if pool.free and cls is Packet:
            pool.reused += 1
            return pool.free.pop()
        pool.allocated += 1
        return object.__new__(cls)

    def __init__(
        self,
        src: Address,
        dst: Address,
        size: int,
        payload: Any = None,
        proto: str = "raw",
        created_at: float = 0.0,
        hops: int = 0,
        uid: Optional[int] = None,
    ):
        self.src = src
        self.dst = dst
        self.size = size
        self.payload = payload
        self.proto = proto
        self.created_at = created_at
        self.hops = hops
        self.uid = next(_packet_ids) if uid is None else uid
        self._refs = 1

    # -- lifecycle -------------------------------------------------------

    @property
    def live(self) -> bool:
        """False once every reference has been released."""
        return self._refs > 0

    def retain(self) -> "Packet":
        """Add a reference (one per extra owner, e.g. multicast branch)."""
        self._refs += 1
        return self

    def release(self) -> None:
        """Drop one reference; the last release recycles the packet.

        Releasing an already-dead packet is counted in
        ``POOL.double_release`` and otherwise ignored, so a
        double-release bug can never hand the same instance out twice.
        """
        refs = self._refs
        if refs <= 0:
            POOL.double_release += 1
            return
        refs -= 1
        self._refs = refs
        if refs == 0:
            pool = POOL
            pool.released += 1
            self.payload = None  # drop the payload reference eagerly
            if type(self) is Packet:
                pool.free.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._refs <= 0:
            # Guard: a released (possibly recycled-soon) packet must
            # not render stale routing/payload fields.
            return f"<Packet #{self.uid} released>"
        return (
            f"<Packet #{self.uid} {self.proto} {self.src}->{self.dst} "
            f"{self.size}B {self.payload!r}>"
        )
