"""Simulated network packets.

Packets carry a protocol *payload object* (a PGM or TCP message) plus
the addressing metadata the simulator needs to route and account for
them.  The ``size`` field — total bytes on the wire — is what links use
for serialisation delay and byte-limited queues, so protocol code must
set it to header + payload length.

A ``Packet`` is a plain slotted object with the interpreter's lifetime:
whoever holds it may keep it.  Multicast fan-out hands the one instance
to every branch, so ``hops`` counts router visits on the whole tree.
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


class _ConstructionCounter:
    """How many packets this process has built.

    NEXT-READER: a placeholder, not a pool.  ``benchmarks/perf/child.py``
    reads ``POOL.stats()["allocated"]`` and ``["reused"]`` for its
    ``packet.allocated`` counter and its reuse ratio, and no ``src/`` PR
    may edit the benchmark; the ``[benchmark]`` PR that drops the ratio
    deletes this class and the name ``POOL`` with it (the
    ``sweep(baseline=None)`` precedent of PR 22).
    """

    __slots__ = ("allocated",)

    def __init__(self):
        self.allocated = 0

    def stats(self) -> dict:
        return {"allocated": self.allocated, "reused": 0}


POOL = _ConstructionCounter()


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
        uid: unique id, fresh per construction.
    """

    __slots__ = ("src", "dst", "size", "payload", "proto", "created_at",
                 "hops", "uid")

    MAX_HOPS = 64

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
        POOL.allocated += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.uid} {self.proto} {self.src}->{self.dst} "
            f"{self.size}B {self.payload!r}>"
        )
