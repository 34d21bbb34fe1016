"""Point-to-point links: the dummynet pipe equivalent.

A :class:`Link` is unidirectional and models exactly what the paper's
emulated bottlenecks did: a fixed capacity (serialisation delay
``size * 8 / rate``), a fixed one-way propagation delay, one drop-tail
FIFO limited in slots, in bytes or both (§4 sizes its bottlenecks both
ways: "30 queue slots", "30 KBytes queue") and an optional random-loss
stage.

Random loss is applied on ingress, before queueing, as dummynet's
``plr`` does — a randomly lost packet consumes no link bandwidth.
Queue drops happen when the packet arrives while the transmitter is
busy and the queue will not accept it.

Event model (DESIGN.md §6): every accepted packet costs one event, its
arrival, whether or not it had to wait.  A FIFO's departures are
arithmetic: the packet starts serialising at ``start`` — now on an idle
wire, otherwise the instant the one ahead of it ends (``_free_at``) —
ends at ``done = start + size * 8 / rate`` and arrives at ``done +
delay``, posted on the spot (``Simulator.post_at``: the copies a
multicast fan-out accepts for one arrival instant share a heap entry).
Those are the float expressions an end-of-serialisation event at
``done`` would evaluate, so arrival times are bit-identical to that
textbook two-event model.  Queue occupancy is
therefore a function of the clock: a waiting packet whose ``start <=
now`` has left the queue for the wire (a departure comes before an
arrival at the same instant).  The waiting line that times those
departures is the drop-tail queue itself: one deque of ``(start,
arrival handle, packet)``, whose length the slot limit and whose
``bytes_queued`` the byte limit are checked against.  The link settles
it before every offer, every delivery and every outside read —
``queued``, ``bytes_queued`` and ``in_transit`` are settling
properties.  A packet is serialised at the rate and delay in force
when its serialisation starts: assigning ``rate_bps`` or ``delay``
validates like the constructor and re-times the packets still waiting;
the one on the wire keeps its arrival.

A hop is ``send`` → ``_accept`` → ``Simulator.post_at``, then
``_deliver`` → the far node's ``receive(packet, from_node)``, with no
other Python frame on it: the link calls the node :meth:`Link.connect`
named itself, and a lossless link holds ``loss=None`` and calls no loss
model.

Links also carry the hook points the fault-injection subsystem
(:mod:`repro.simulator.faults`) drives: an administrative up/down flag,
a control filter, transient duplication/corruption stages and dedicated
fault counters.  Those rare ingress stages sit behind one flag that
their setters (``set_down``/``set_up``, ``set_control_filter``,
``set_fault_stages``) keep current, so a link with none of them active
tests one attribute for all of them.  Fault semantics:

* a *down* link rejects new packets on ingress (``fault_drops``);
  packets already queued or in flight still complete — the outage
  models a path failure at the ingress interface, not a cable cut;
* *corruption* in ``drop`` mode drops the packet at ingress with its
  own counter (``corrupt_drops``), modelling a checksum failure at the
  receiving interface; in ``mangle`` mode the packet is delivered with
  its encoded bytes bit-flipped instead (``corrupt_mangled``) so the
  receiving protocol's ``decode()`` path has to cope — payloads with
  no byte codec fall back to drop;
* *duplication* injects a second copy of the packet into the
  transmitter (``fault_duplicates``), so the conservation identity
  becomes ``sent + fault_duplicates == delivered + all drops +
  queued + in_transit``;
* a *control filter* drops packets whose payload class name matches a
  configured set (``filter_drops``) while everything else flows — the
  asymmetric control-plane blackhole :class:`~repro.simulator.faults.
  ControlBlackhole` drives, matched by duck type so the simulator stays
  protocol-agnostic (raw-byte payloads never match).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional, Protocol

from .engine import Simulator
from .loss_models import LossModel
from .packet import Packet


class FarNode(Protocol):
    """What a link delivers to: a :class:`~repro.simulator.node.Node`,
    or anything else with its ``receive``."""

    def receive(self, packet: Packet, from_node: str) -> None:  # pragma: no cover
        ...


class Link:
    """A unidirectional rate/delay/queue/loss pipe.

    Args:
        sim: the event engine.
        name: label used in traces ("L1", "r0->s0", ...).
        rate_bps: capacity in bits per second, positive.  Assignable
            mid-run: validated, and packets still waiting are re-timed.
        delay: one-way propagation delay in seconds, finite and
            non-negative; assignable likewise.
        queue_slots: the queue's limit in packets, at least 1.
        queue_bytes: the queue's limit in bytes, at least 1.  Either
            limit, both, or neither: neither is 30 slots, the paper's
            most common configuration.
        loss: random-loss model applied on ingress; ``None`` (the
            default) is a lossless link.  Assignable mid-run.

    Each packet that survives is handed to ``far_node.receive(packet,
    from_node)`` (set by :meth:`connect`) one propagation delay after
    its serialisation completes.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        delay: float,
        queue_slots: Optional[int] = None,
        queue_bytes: Optional[int] = None,
        loss: Optional[LossModel] = None,
    ):
        if queue_slots is None and queue_bytes is None:
            queue_slots = 30
        if queue_slots is not None and queue_slots < 1:
            raise ValueError(f"queue_slots must be >= 1, not {queue_slots!r}")
        if queue_bytes is not None and queue_bytes < 1:
            raise ValueError(f"queue_bytes must be >= 1, not {queue_bytes!r}")
        self.sim = sim
        self.name = name
        #: the drop-tail queue: ``(start, arrival handle, packet)`` of
        #: every packet waiting for the wire, in FIFO order; allocated by
        #: the first packet to wait, so a link that never queues owns no
        #: container for it
        self._waiting: Optional[deque] = None
        self.queue_slots = queue_slots
        self.queue_bytes = queue_bytes
        #: bytes of the packets in ``_waiting`` (read ``bytes_queued``)
        self._bytes_queued = 0
        self.rate_bps = rate_bps
        self.delay = delay
        self.loss = loss
        #: the delivery target and the name it is told a packet came
        #: from (see :meth:`connect`)
        self.far_node: Optional[FarNode] = None
        self.from_node = ""
        #: when the last accepted packet finishes serialising
        self._free_at = 0.0
        #: accepted and not yet delivered: queued + on the wire or in flight
        self._pending = 0
        # Counters for analysis and assertions.
        self.sent = 0
        self.delivered = 0
        self.random_drops = 0
        self.queue_drops = 0
        #: packets that had to wait (accepted onto a busy wire)
        self.enqueues = 0
        self.bytes_delivered = 0
        # Fault-injection state (see module docstring).  ``_staged``
        # is the one hot-path flag: True while the link is down or has
        # a control filter or dup/corrupt stage; ``_restage`` derives it.
        self._up = True
        self._staged = False
        self.fault_drops = 0
        self.corrupt_drops = 0
        self.corrupt_mangled = 0
        self.fault_duplicates = 0
        self.filter_drops = 0
        #: ``(dup_rate, corrupt_rate, corrupt_mode, rng)`` while a
        #: dup/corrupt stage is on, else ``None``.  One attribute, not
        #: four: CPython 3.11 keeps an instance dict compact up to 29
        #: keys (a 296 B dict; 30 keys take 1584 B), and a 10^6-receiver
        #: build holds one Link per subtree edge.
        self._fault_stages: Optional[tuple] = None
        self._filter_kinds: Optional[frozenset[str]] = None

    # -- wiring ----------------------------------------------------------

    def connect(self, far_node: FarNode, from_node: str) -> None:
        """Deliver to ``far_node.receive(packet, from_node)`` (set or
        replace the target); a link must be connected before its first
        delivery."""
        self.far_node = far_node
        self.from_node = from_node

    # -- knobs ---------------------------------------------------------------

    @property
    def rate_bps(self) -> float:
        return self._rate_bps

    @rate_bps.setter
    def rate_bps(self, value: float) -> None:
        if not value > 0:  # NaN too
            raise ValueError(f"rate_bps must be positive, not {value!r}")
        self._rate_bps = value
        self._retime()

    @property
    def delay(self) -> float:
        return self._delay

    @delay.setter
    def delay(self, value: float) -> None:
        if not 0.0 <= value < math.inf:
            raise ValueError(
                f"delay cannot be negative, NaN or infinite, not {value!r}")
        self._delay = value
        self._retime()

    def _retime(self) -> None:
        """Reschedule the packets still waiting at the rate and delay
        now in force.  The first of them starts when the packet on the
        wire ends, which a knob write does not move."""
        self._settle()
        waiting = self._waiting
        if not waiting:
            return
        sim = self.sim
        rate, delay = self._rate_bps, self._delay
        start = waiting[0][0]
        self._waiting = retimed = deque()
        for _, arrival, packet in waiting:
            sim.cancel(arrival)
            done = start + packet.size * 8.0 / rate
            arrival = sim.post_at(done + delay, self._deliver, packet)
            retimed.append((start, arrival, packet))
            start = done
        self._free_at = start

    # -- queue occupancy -----------------------------------------------------

    def _settle(self) -> None:
        """Move every waiting packet whose serialisation has started by
        now from the queue to the wire."""
        waiting = self._waiting
        if waiting:
            now = self.sim.now
            while waiting and waiting[0][0] <= now:
                self._bytes_queued -= waiting.popleft()[2].size

    @property
    def queued(self) -> int:
        """Packets in the queue, settled to the current instant."""
        self._settle()
        return len(self._waiting) if self._waiting else 0

    @property
    def bytes_queued(self) -> int:
        """Bytes in the queue, settled to the current instant."""
        self._settle()
        return self._bytes_queued

    @property
    def in_transit(self) -> int:
        """Packets being serialised or propagating."""
        return self._pending - self.queued

    # -- data path ---------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Offer a packet to the link.  Returns False if it was dropped."""
        self.sent += 1
        if self._staged:
            return self._send_staged(packet)
        loss = self.loss
        if loss is not None and loss.should_drop(packet):
            self.random_drops += 1
            return False
        return self._accept(packet)

    def _send_staged(self, packet: Packet) -> bool:
        """``send`` through every ingress stage, in order: down, control
        filter, random loss, corruption, duplication."""
        if not self._up:
            self.fault_drops += 1
            return False
        if (self._filter_kinds is not None
                and type(packet.payload).__name__ in self._filter_kinds):
            self.filter_drops += 1
            return False
        loss = self.loss
        if loss is not None and loss.should_drop(packet):
            self.random_drops += 1
            return False
        if self._fault_stages is not None:
            dup_rate, corrupt_rate, corrupt_mode, rng = self._fault_stages
            if corrupt_rate > 0.0 and rng.random() < corrupt_rate:
                mangled = None
                if corrupt_mode == "mangle":
                    mangled = self._mangle(packet, rng)
                if mangled is None:
                    self.corrupt_drops += 1
                    return False
                self.corrupt_mangled += 1
                packet = mangled
            if dup_rate > 0.0 and rng.random() < dup_rate:
                self.fault_duplicates += 1
                self._accept(packet)
        return self._accept(packet)

    def _accept(self, packet: Packet) -> bool:
        sim = self.sim
        start = self._free_at
        waits = sim.now < start
        if waits:
            # wire busy: the packet queues behind what was accepted
            # before it, if the queue as it stands now has room
            waiting = self._waiting
            if waiting is None:
                self._waiting = waiting = deque()
            else:
                self._settle()
            nbytes = self._bytes_queued + packet.size
            if ((self.queue_slots is not None and len(waiting) >= self.queue_slots)
                    or (self.queue_bytes is not None and nbytes > self.queue_bytes)):
                self.queue_drops += 1
                return False
            self._bytes_queued = nbytes
            self.enqueues += 1
        else:
            start = sim.now
        # (start + tx) + delay, as an event at ``done`` would compute it
        self._free_at = done = start + packet.size * 8.0 / self._rate_bps
        arrival = sim.post_at(done + self._delay, self._deliver, packet)
        if waits:
            waiting.append((start, arrival, packet))
        self._pending += 1
        return True

    def _deliver(self, packet: Packet) -> None:
        if self._waiting:
            # it may have waited itself: out of the queue before it is
            # handed on, so the queue pins no delivered packet
            self._settle()
        self._pending -= 1
        self.delivered += 1
        self.bytes_delivered += packet.size
        self.far_node.receive(packet, self.from_node)

    # -- fault hooks -------------------------------------------------------

    @property
    def up(self) -> bool:
        """False while the link is administratively down."""
        return self._up

    def _restage(self) -> None:
        self._staged = (not self._up or self._filter_kinds is not None
                        or self._fault_stages is not None)

    def set_down(self) -> None:
        """Administratively disable the link (ingress rejects packets)."""
        self._up = False
        self._restage()

    def set_up(self) -> None:
        """Re-enable a downed link."""
        self._up = True
        self._restage()

    def set_fault_stages(self, dup_rate: float, corrupt_rate: float, rng,
                         corrupt_mode: str = "drop") -> None:
        """Configure the duplication/corruption stages (0.0 disables)."""
        self._fault_stages = ((dup_rate, corrupt_rate, corrupt_mode, rng)
                              if dup_rate > 0.0 or corrupt_rate > 0.0 else None)
        self._restage()

    def set_control_filter(self, kinds) -> None:
        """Drop packets whose payload class name is in ``kinds``
        (empty/None disables).  Drives :class:`ControlBlackhole`."""
        self._filter_kinds = frozenset(kinds) if kinds else None
        self._restage()

    def _mangle(self, packet: Packet, rng):
        """Encode ``packet``'s payload and flip a few bytes (positions
        and bits drawn from ``rng``, the stage's stream); returns a
        fresh packet carrying the raw bytes (the original object is
        left untouched — multicast forwarding shares packet instances
        across branches) or ``None`` when the payload has no codec."""
        pack = getattr(packet.payload, "pack", None)
        if pack is None:
            return None
        try:
            raw = bytearray(pack())
        except Exception:
            return None
        if not raw:
            return None
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(raw))
            raw[pos] ^= 1 << rng.randrange(8)
        return Packet(packet.src, packet.dst, packet.size, bytes(raw),
                      packet.proto, created_at=packet.created_at,
                      hops=packet.hops)

    def conserves_packets(self) -> bool:
        """The runtime conservation identity (fault-aware, any instant)."""
        return self.sent + self.fault_duplicates == (
            self.delivered
            + self.random_drops
            + self.corrupt_drops
            + self.fault_drops
            + self.filter_drops
            + self.queue_drops
            + self._pending  # queued + in transit, whatever the clock says
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.name} {self.rate_bps / 1000:.0f}kbit/s "
            f"{self.delay * 1000:.0f}ms q={self.queued}>"
        )
