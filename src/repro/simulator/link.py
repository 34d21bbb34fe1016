"""Point-to-point links: the dummynet pipe equivalent.

A :class:`Link` is unidirectional and models exactly what the paper's
emulated bottlenecks did: a fixed capacity (serialisation delay
``size * 8 / rate``), a fixed one-way propagation delay, a FIFO queue
(slot- or byte-limited) and an optional random-loss stage.

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
arrival at the same instant).  The link settles that before every offer
to the queue, every delivery and every outside read — ``queue`` and
``in_transit`` are settling properties.  A packet is serialised at the
rate and delay in force when its serialisation starts: assigning
``rate_bps`` or ``delay`` validates like the constructor and re-times
the packets still waiting; the one on the wire keeps its arrival.

Links also carry the hook points the fault-injection subsystem
(:mod:`repro.simulator.faults`) drives: an administrative up/down flag,
transient duplication/corruption stages and dedicated fault counters.
All of them sit behind single attribute checks so the no-fault hot
path is unaffected.  Fault semantics:

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
from typing import Callable, Optional

from .engine import Simulator
from .loss_models import LossModel, NoLoss
from .packet import Packet
from .queues import DropTailQueue

#: Signature of a link delivery target: ``fn(packet)``.
DeliverFn = Callable[[Packet], None]


class Link:
    """A unidirectional rate/delay/queue/loss pipe.

    Args:
        sim: the event engine.
        name: label used in traces ("L1", "r0->s0", ...).
        rate_bps: capacity in bits per second, positive.  Assignable
            mid-run: validated, and packets still waiting are re-timed.
        delay: one-way propagation delay in seconds, finite and
            non-negative; assignable likewise.
        queue: output queue; defaults to a 30-slot drop-tail FIFO
            (the paper's most common configuration).
        loss: random-loss model applied on ingress.
        deliver: callback invoked with each packet that survives, one
            propagation delay after its serialisation completes.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        delay: float,
        deliver: Optional[DeliverFn] = None,
        queue: Optional[DropTailQueue] = None,
        loss: Optional[LossModel] = None,
    ):
        self.sim = sim
        self.name = name
        #: ``(start, arrival handle, packet)`` of every packet the queue
        #: holds, in FIFO order; allocated by the first packet to wait,
        #: so a link that never queues owns no container for it
        self._waiting: Optional[deque] = None
        self.rate_bps = rate_bps
        self.delay = delay
        self._queue = queue if queue is not None else DropTailQueue(max_slots=30)
        self.loss = loss if loss is not None else NoLoss()
        self.deliver = deliver
        #: when the last accepted packet finishes serialising
        self._free_at = 0.0
        #: accepted and not yet delivered: queued + on the wire or in flight
        self._pending = 0
        # Counters for analysis and assertions.
        self.sent = 0
        self.delivered = 0
        self.random_drops = 0
        self.bytes_delivered = 0
        # Fault-injection state (see module docstring).
        self.up = True
        self.fault_drops = 0
        self.corrupt_drops = 0
        self.corrupt_mangled = 0
        self.fault_duplicates = 0
        self.filter_drops = 0
        self._dup_rate = 0.0
        self._corrupt_rate = 0.0
        self._corrupt_mode = "drop"
        self._fault_rng = None
        self._filter_kinds: Optional[frozenset[str]] = None

    # -- wiring ----------------------------------------------------------

    def connect(self, deliver: DeliverFn) -> None:
        """Set (or replace) the delivery target."""
        self.deliver = deliver

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
            pop = self._queue.pop
            while waiting and waiting[0][0] <= now:
                waiting.popleft()
                pop()

    @property
    def queue(self) -> DropTailQueue:
        """The output queue, settled to the current instant."""
        self._settle()
        return self._queue

    @property
    def in_transit(self) -> int:
        """Packets being serialised or propagating."""
        self._settle()
        return self._pending - len(self._queue)

    # -- data path ---------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Offer a packet to the link.  Returns False if it was dropped."""
        self.sent += 1
        if not self.up:
            self.fault_drops += 1
            return False
        if (self._filter_kinds is not None
                and type(packet.payload).__name__ in self._filter_kinds):
            self.filter_drops += 1
            return False
        if self.loss.should_drop(packet):
            self.random_drops += 1
            return False
        if self._fault_rng is not None:
            if self._corrupt_rate > 0.0 and self._fault_rng.random() < self._corrupt_rate:
                mangled = None
                if self._corrupt_mode == "mangle":
                    mangled = self._mangle(packet)
                if mangled is None:
                    self.corrupt_drops += 1
                    return False
                self.corrupt_mangled += 1
                packet = mangled
            if self._dup_rate > 0.0 and self._fault_rng.random() < self._dup_rate:
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
            self._settle()
            if not self._queue.offer(packet):
                return False
        else:
            start = sim.now
        # (start + tx) + delay, as an event at ``done`` would compute it
        self._free_at = done = start + packet.size * 8.0 / self._rate_bps
        arrival = sim.post_at(done + self._delay, self._deliver, packet)
        if waits:
            if self._waiting is None:
                self._waiting = deque()
            self._waiting.append((start, arrival, packet))
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
        deliver = self.deliver
        if deliver is not None:
            deliver(packet)

    # -- fault hooks -------------------------------------------------------

    def set_down(self) -> None:
        """Administratively disable the link (ingress rejects packets)."""
        self.up = False

    def set_up(self) -> None:
        """Re-enable a downed link."""
        self.up = True

    def set_fault_stages(self, dup_rate: float, corrupt_rate: float, rng,
                         corrupt_mode: str = "drop") -> None:
        """Configure the duplication/corruption stages (0.0 disables)."""
        self._dup_rate = dup_rate
        self._corrupt_rate = corrupt_rate
        self._corrupt_mode = corrupt_mode
        self._fault_rng = rng if (dup_rate > 0.0 or corrupt_rate > 0.0) else None

    def set_control_filter(self, kinds) -> None:
        """Drop packets whose payload class name is in ``kinds``
        (empty/None disables).  Drives :class:`ControlBlackhole`."""
        self._filter_kinds = frozenset(kinds) if kinds else None

    def _mangle(self, packet: Packet):
        """Encode ``packet``'s payload and flip a few bytes; returns a
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
        for _ in range(self._fault_rng.randint(1, 3)):
            pos = self._fault_rng.randrange(len(raw))
            raw[pos] ^= 1 << self._fault_rng.randrange(8)
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
            + self._queue.drops
            + self._pending  # queued + in transit, whatever the clock says
        )

    # -- introspection -----------------------------------------------------

    def metrics(self) -> dict:
        """Link counters for telemetry pull-bindings (includes the
        queue's own counters under ``queue.*``-style keys)."""
        queue = self.queue
        out = {
            "sent": self.sent,
            "delivered": self.delivered,
            "bytes_delivered": self.bytes_delivered,
            "random_drops": self.random_drops,
            "queue_drops": queue.drops,
            "fault_drops": self.fault_drops,
            "filter_drops": self.filter_drops,
            "corrupt_drops": self.corrupt_drops,
            "corrupt_mangled": self.corrupt_mangled,
            "fault_duplicates": self.fault_duplicates,
            "in_transit": self.in_transit,
        }
        for key, value in queue.metrics().items():
            out[f"queue_{key}"] = value
        return out

    @property
    def queue_drops(self) -> int:
        return self._queue.drops

    @property
    def utilization_bps(self) -> float:
        """Average delivered goodput since t=0 (bits per second)."""
        if self.sim.now <= 0:
            return 0.0
        return self.bytes_delivered * 8.0 / self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Link {self.name} {self.rate_bps / 1000:.0f}kbit/s "
            f"{self.delay * 1000:.0f}ms q={len(self.queue)}>"
        )
