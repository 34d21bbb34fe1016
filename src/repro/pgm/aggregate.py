"""Hybrid-fidelity aggregate receivers: 10^6-receiver groups (§3's
scalability argument, taken at its word).

pgmcc's source-side state is *constant* in the group size: exactly one
receiver — the acker — clocks the window, and NAKs are deduplicated by
network elements before they converge on the source.  So, for
modelling the *controller*, only a handful of receivers must exist as
full protocol engines:

* the acker (and any receiver the election might pick next),
* the :class:`~repro.pgm.guard.FeedbackGuard`'s suspect set,
* a small seeded *sampled cohort* kept exact for ground truth.

Everything else — the **aggregate tail** — is folded into per-subtree
analytic state.  Receivers behind one shared bottleneck with identical
access links see the *identical* packet stream, so one shared receiver
state machine models them all; the only per-member effect that is
sender-visible is the feedback-suppression lottery (whose randomised
NAK backoff fires first).  A :class:`TailProxy` — a real
:class:`~repro.pgm.receiver.PgmReceiver` on the subtree's aggregate
host — therefore emits the *minimum* of its members' backoff draws and
stamps the winning member's identity into the report.  Behind a
suppressing network element this is packet-for-packet what the sender
would have seen from the full population.

Member draws come from one of two banks:

* :class:`MirrorBank` (tail <= :data:`MIRROR_THRESHOLD`): one persistent
  ``random.Random`` stream per member — the *same* registry streams
  exact-mode receivers would use — drawn in the same per-event order,
  so the min and argmin equal the exact simulation's.  This is what
  the small-N equivalence oracle runs against.
* :class:`AnalyticBank` (beyond the threshold): the minimum of ``n``
  uniforms drawn in O(1) via the order-statistic inverse CDF
  ``B * (1 - (1 - u)**(1/n))``, with the reporting identity drawn
  uniformly from the unpromoted index space.  Memory per subtree is
  O(promoted), independent of ``n`` — this is the 10^6 mode.

**Promotion** turns a tail member exact: when the election names a
tail identity (seen in ODATA ``acker_id``), or the guard grows
suspicious of one, the :class:`AggregateManager` instantiates a full
``PgmReceiver`` for that identity on one of the subtree's reserved
*slot hosts* (same access-link spec as every member) and removes it
from the bank.  The first election needs no help: the proxy's first
fake NAK carries the member that won the tail's jitter lottery, the
sender elects it and names it in the next ODATA, and the proxy
promotes it on sight.  **Demotion** returns a promoted member to the
tail once it has been idle (not acker, not suspect, not sampled) for
:data:`DEMOTE_AFTER` seconds.

See DESIGN.md §9 for the architecture and the promotion state machine.
"""

from __future__ import annotations

import copy
import dataclasses
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..simulator.engine import Timer
from . import constants as C
from .receiver import PgmReceiver, min_of_uniforms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..simulator.topology import Network, SubtreePlan
    from .session import PgmSession

__all__ = [
    "AggregateManager",
    "AggregateSubtree",
    "MirrorBank",
    "AnalyticBank",
    "TailProxy",
]

#: seeded exact engines per subtree (ground-truth cohort)
SAMPLE = 1
#: largest tail simulated draw-for-draw (MirrorBank); larger tails
#: switch to the O(1) AnalyticBank.  A mirror stream costs ~3 KB
#: (Mersenne state), so this bounds per-subtree memory at ~1.5 MB.
MIRROR_THRESHOLD = 512
#: idle seconds before a promoted member returns to the tail
DEMOTE_AFTER = 5.0
#: manager bookkeeping period (promotion/demotion sweep)
SWEEP_INTERVAL = 0.5
#: invariant tolerance: how long the acker may be an unpromoted tail
#: identity before ``aggregate-promotion`` fires
PROMOTION_GRACE = 1.0
#: guard suspicion above which a tail identity is promoted
SUSPECT_THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# Member banks
# ---------------------------------------------------------------------------


class MirrorBank:
    """Draw-for-draw faithful tail: one rng stream per member.

    The streams are the registry streams (``rx:{tsi}:{identity}``)
    exact-mode receivers are seeded from, and every bank draw consumes
    exactly one value from *each* member's stream — the same draw
    indices an exact run would have consumed at the same protocol
    event — so the (min, argmin) pair equals the exact simulation's.
    """

    mode = "mirror"

    def __init__(self, streams: dict[str, random.Random]):
        self._streams = dict(streams)

    @property
    def size(self) -> int:
        return len(self._streams)

    def __contains__(self, identity: str) -> bool:
        return identity in self._streams

    def draw(self, bound: float) -> tuple[float, str]:
        """One suppression-lottery round: the winning (delay, identity)."""
        best = None
        winner = None
        for identity, rng in self._streams.items():
            value = rng.uniform(0, bound)
            if best is None or value < best:
                best, winner = value, identity
        return best, winner

    def remove(self, identity: str) -> bool:
        return self._streams.pop(identity, None) is not None

    def add(self, identity: str, rng: random.Random) -> None:
        self._streams[identity] = rng


class AnalyticBank:
    """O(1) tail: order-statistic draws over ``n`` virtual members.

    The minimum of ``n`` iid U(0, B) draws has CDF
    ``1 - (1 - x/B)**n``; inverting one uniform gives the winning
    delay without touching ``n`` streams.  The winning identity is a
    *sticky representative* drawn uniformly over the unpromoted index
    space and reused until it is promoted away: a real group's
    election sees the same worst-path receiver win round after round,
    and redrawing a fresh identity per NAK would instead churn the
    sender through an endless parade of phantom candidates (promote,
    defer, stall).  The exclusion set and the representative are the
    only per-member state, so memory is bounded per subtree
    regardless of ``n``.
    """

    mode = "analytic"

    def __init__(self, plan: "SubtreePlan", subtree: int, size: int,
                 excluded: set[int], rng: random.Random):
        self._plan = plan
        self._subtree = subtree
        self._total = size
        self._excluded = set(excluded)  # promoted/sampled indices
        self._rng = rng
        self._rep: Optional[int] = None  # sticky reporting identity

    @property
    def size(self) -> int:
        return self._total - len(self._excluded)

    def __contains__(self, identity: str) -> bool:
        index = self._index_of(identity)
        return index is not None and index not in self._excluded

    def _index_of(self, identity: str) -> Optional[int]:
        prefix = f"t{self._subtree}r"
        if not identity.startswith(prefix):
            return None
        tail = identity[len(prefix):]
        if not tail.isdigit() or int(tail) >= self._total:
            return None
        return int(tail)

    def _representative(self) -> int:
        if self._rep is None or self._rep in self._excluded:
            # r-th available index, skipping the (few, sorted)
            # excluded ones
            r = self._rng.randrange(self.size)
            for excluded in sorted(self._excluded):
                if excluded <= r:
                    r += 1
            self._rep = r
        return self._rep

    def draw(self, bound: float) -> tuple[float, str]:
        delay = min_of_uniforms(self._rng.random(), self.size, bound)
        return delay, self._plan.identity(self._subtree,
                                          self._representative())

    def remove(self, identity: str) -> bool:
        index = self._index_of(identity)
        if index is None or index in self._excluded:
            return False
        self._excluded.add(index)
        if self._rep == index:
            self._rep = None
        return True

    def add(self, identity: str, rng: random.Random = None) -> None:
        index = self._index_of(identity)
        if index is not None:
            self._excluded.discard(index)


# ---------------------------------------------------------------------------
# The tail proxy receiver
# ---------------------------------------------------------------------------


class TailProxy(PgmReceiver):
    """One shared receiver engine standing in for a subtree's tail.

    Behind the shared bottleneck every tail member sees the identical
    packet stream, so the proxy's window/loss-filter state *is* every
    member's.  Only the randomised-delay hooks differ: each draw is
    the minimum over the member bank, and the winning identity is
    stamped into the outgoing report, so the NAK the network element
    forwards upstream is field-for-field the one the winning member
    would have sent.  The proxy itself never ACKs (its own identity
    never appears in a report, so the election cannot pick it).
    """

    def __init__(self, manager: "AggregateManager",
                 subtree: "AggregateSubtree", **kwargs):
        self._manager = manager
        self._subtree = subtree
        #: seq -> drawn member identity (loss NAKs keep theirs across
        #: retries; fakes are one-shot)
        self._nak_identity: dict[int, str] = {}
        self._fake_identity: dict[int, str] = {}
        self._stamp: Optional[str] = None
        self.synthetic_naks = 0
        self.synthetic_fake_naks = 0
        super().__init__(**kwargs)

    @property
    def bank(self):
        return self._subtree.bank

    # -- suppression-lottery hooks ------------------------------------------

    def _backoff_delay(self, seq: int) -> float:
        if self.bank.size == 0:
            return super()._backoff_delay(seq)
        delay, identity = self.bank.draw(self.nak_bo_ivl)
        self._nak_identity[seq] = identity
        self._manager.observe_backoff(delay)
        return delay

    def _fake_jitter(self, seq: int) -> float:
        if self.bank.size == 0:
            return super()._fake_jitter(seq)
        delay, identity = self.bank.draw(self.nak_bo_ivl / 4)
        self._fake_identity[seq] = identity
        self._manager.observe_backoff(delay)
        return delay

    def _storm_jitter(self, k: int) -> float:
        if self.bank.size == 0:
            return super()._storm_jitter(k)
        # The members' earliest uniform, mapped through the k-gap
        # order statistic — each member's own min-of-k, minimised.
        u, _ = self.bank.draw(1.0)
        return min_of_uniforms(u, k, self.storm_spacing)

    # -- synthetic feedback --------------------------------------------------

    def _send_nak(self, seq: int, fake: bool = False) -> None:
        if fake:
            identity = self._fake_identity.pop(seq, None)
        else:
            identity = self._nak_identity.get(seq)
        if identity is None and self.bank.size == 0:
            # Fully promoted subtree: every member speaks for itself.
            return
        self._stamp = identity
        try:
            super()._send_nak(seq, fake)
        finally:
            self._stamp = None
        if fake:
            self.synthetic_fake_naks += 1
        else:
            self.synthetic_naks += 1

    def _report(self, context: str = "nak"):
        report = super()._report(context)
        if self._stamp is not None:
            report = dataclasses.replace(report, rx_id=self._stamp)
        return report

    def _send_ack(self, ack_seq: int) -> None:
        # Proxy identities never enter the election, so this only fires
        # if something is badly wrong — refuse rather than double-clock.
        self.acks_suppressed += 1

    def _retire(self, seq: int, state) -> None:
        super()._retire(seq, state)
        self._nak_identity.pop(seq, None)

    def _clear_nak_states(self) -> None:
        super()._clear_nak_states()
        self._nak_identity.clear()

    def _handle_data(self, msg, is_repair: bool) -> None:
        super()._handle_data(msg, is_repair)
        if not is_repair and msg.acker_id and msg.acker_id in self.bank:
            self._manager.on_acker_observed(msg.acker_id, msg.seq)


class _MemberEngine(PgmReceiver):
    """A member's own engine.  Promoted mid-run, it starts from the
    proxy's state, which has already taken every ODATA up to
    ``seen_through`` for it: its own copies of those are skipped."""

    seen_through = -1

    def _handle_data(self, msg, is_repair: bool) -> None:
        if is_repair or msg.seq > self.seen_through:
            super()._handle_data(msg, is_repair)


# ---------------------------------------------------------------------------
# Per-subtree bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class _ExactMember:
    """One member currently simulated as a full engine."""

    identity: str
    host: str            # slot host carrying the engine
    receiver: PgmReceiver
    promoted_at: float
    #: sampled members never demote
    pinned: bool = False
    #: last sweep at which this member held ackership
    last_acker_at: float = 0.0


class AggregateSubtree:
    """State of one shared-bottleneck subtree."""

    def __init__(self, index: int, size: int, bank, slot_hosts: list[str]):
        self.index = index
        self.size = size
        self.bank = bank
        self.proxy: Optional[TailProxy] = None
        self._free_slots = list(reversed(slot_hosts))  # pop() -> slot order
        self.exact: dict[str, _ExactMember] = {}

    def take_slot(self) -> Optional[str]:
        return self._free_slots.pop() if self._free_slots else None

    def give_slot(self, host: str) -> None:
        self._free_slots.append(host)


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------


class AggregateManager:
    """Owns the exact-cohort/tail split of one aggregate session.

    Built by :func:`repro.pgm.create_session` when
    ``SessionConfig.aggregate`` is set (the network must come from
    :func:`repro.simulator.dumbbell_subtrees` with
    ``members="virtual"``).  ``rx_defaults`` are the keyword arguments
    shared by every receiver the manager instantiates (group, tsi,
    source address, reliability, telemetry, ...).
    """

    def __init__(self, net: "Network", session: "PgmSession",
                 plan: "SubtreePlan", rx_defaults: dict):
        self.net = net
        self.session = session
        self.plan = plan
        self.rx_defaults = rx_defaults
        self.sim = net.sim
        self.subtrees: list[AggregateSubtree] = []
        # counters
        self.promotions = 0
        self.demotions = 0
        self.promotions_deferred = 0
        self.sampled_count = 0
        self._backoff_hist = None
        self._sweep_timer: Optional[Timer] = None

    # -- construction --------------------------------------------------------

    def _stream(self, identity: str) -> random.Random:
        return self.net.rng.stream(f"rx:{self.session.tsi}:{identity}")

    def _make_exact(self, subtree: AggregateSubtree, identity: str,
                    host: str, pinned: bool) -> _ExactMember:
        receiver = _MemberEngine(
            host=self.net.host(host),
            rx_id=identity,
            rng=self._stream(identity),
            **self.rx_defaults,
        )
        proxy = subtree.proxy
        if proxy is not None and proxy.cc.data_packets > 0:
            # Mid-run promotion: the member has been behind this
            # bottleneck all along, so its protocol state *is* the
            # proxy's — loss filter, window lead, delivery cursor.  A
            # fresh engine would report zero loss and skew the acker
            # election the moment its ACKs update the incumbent metric.
            receiver.cc = copy.deepcopy(proxy.cc)
            # An attached InvariantChecker wraps cc.on_data with an
            # instance-level closure over the *proxy's* state; deepcopy
            # carries the function by reference, so the clone would
            # feed the proxy's bookkeeping.  Drop instance overrides —
            # the checker re-wraps the new receiver on its next sweep.
            receiver.cc.__dict__.pop("on_data", None)
            receiver.cc.rx_id = identity
            receiver._next_deliver = proxy._next_deliver
            receiver._pending_delivery = dict(proxy._pending_delivery)
            receiver._last_spm_lead = proxy._last_spm_lead
            receiver.seen_through = proxy.cc.rxw_lead
        self.session._register_receiver(receiver)
        member = _ExactMember(identity, host, receiver,
                              promoted_at=self.sim.now, pinned=pinned)
        subtree.exact[identity] = member
        return member

    def setup(self) -> None:
        """Build banks, sampled cohort and proxies.  Must run before
        the sim starts."""
        plan, tsi = self.plan, self.session.tsi
        sample_rng = self.net.rng.stream(f"agg:sample:{tsi}")
        for k in range(plan.subtrees):
            size = plan.sizes[k]
            slots = [plan.slot_host(k, j) for j in range(plan.slots)]
            n_sampled = min(SAMPLE, size, plan.slots)
            sampled = sorted(sample_rng.sample(range(size), n_sampled))
            tail_size = size - n_sampled
            if tail_size <= MIRROR_THRESHOLD:
                streams = {
                    plan.identity(k, i): self._stream(plan.identity(k, i))
                    for i in range(size) if i not in sampled
                }
                bank = MirrorBank(streams)
            else:
                bank = AnalyticBank(plan, k, size, set(sampled),
                                    self.net.rng.stream(f"agg:tail:{tsi}:{k}"))
            subtree = AggregateSubtree(k, size, bank, slots)
            self.subtrees.append(subtree)
            for i in sampled:
                slot = subtree.take_slot()
                self._make_exact(subtree, plan.identity(k, i), slot,
                                 pinned=True)
                self.sampled_count += 1
            if bank.size > 0:
                subtree.proxy = TailProxy(
                    self, subtree,
                    host=self.net.host(plan.agg_host(k)),
                    rng=self._stream(plan.agg_host(k)),
                    **self.rx_defaults,
                )
                self.session._register_receiver(subtree.proxy)
        self._sweep_timer = Timer(self.sim, self._tick)
        self._sweep_timer.start(SWEEP_INTERVAL)

    # -- identity space -------------------------------------------------------

    def subtree_of(self, identity: str) -> Optional[AggregateSubtree]:
        k = self.plan.subtree_of(identity)
        return self.subtrees[k] if k is not None and k < len(self.subtrees) else None

    def is_tail_identity(self, identity: str) -> bool:
        """True when ``identity`` is currently modeled by a bank (not
        an exact engine, not foreign to the plan)."""
        subtree = self.subtree_of(identity)
        return subtree is not None and identity not in subtree.exact

    # -- promotion / demotion -------------------------------------------------

    def promote(self, identity: str, preempt: bool = False) -> bool:
        """Turn a tail identity into a full engine on a slot host.

        ``preempt=True`` (the acker path) may demote the most idle
        unprotected member to free a slot: an acker that cannot be
        promoted cannot ACK, and the session would stall until the
        demotion sweep caught up.
        """
        subtree = self.subtree_of(identity)
        if subtree is None or identity in subtree.exact:
            return False
        slot = subtree.take_slot()
        if slot is None and preempt:
            victim = self._preemption_victim(subtree)
            if victim is not None:
                self.demote(victim)
                slot = subtree.take_slot()
        if slot is None:
            self.promotions_deferred += 1
            return False
        subtree.bank.remove(identity)
        self._make_exact(subtree, identity, slot, pinned=False)
        self.promotions += 1
        return True

    def _preemption_victim(self, subtree: AggregateSubtree) -> Optional[str]:
        """Most idle member whose slot an acker promotion may take
        (never pinned, the current acker, or anyone the guard holds)."""
        acker = self.session.sender.controller.current_acker
        guard = self.session.sender.guard
        best = None
        best_at = None
        for identity, member in subtree.exact.items():
            if member.pinned or identity == acker:
                continue
            if guard is not None and (
                    guard.is_quarantined(identity)
                    or guard.suspicion(identity) > 0.01):
                continue
            active_at = max(member.promoted_at, member.last_acker_at)
            if best_at is None or active_at < best_at:
                best, best_at = identity, active_at
        return best

    def demote(self, identity: str) -> bool:
        """Return an idle promoted member to the tail."""
        subtree = self.subtree_of(identity)
        member = subtree.exact.get(identity) if subtree else None
        if member is None or member.pinned:
            return False
        member.receiver.close()
        member.receiver.host.unregister_agent(C.PROTO)
        del subtree.exact[identity]
        subtree.give_slot(member.host)
        try:
            self.session.receivers.remove(member.receiver)
        except ValueError:  # pragma: no cover - defensive
            pass
        self.session._rx_index.pop(identity, None)
        subtree.bank.add(identity, self._stream(identity))
        self.demotions += 1
        return True

    def on_acker_observed(self, acker_id: str, seq: int) -> None:
        """ODATA ``seq`` named ``acker_id`` as the acker: tail members
        must be exact to ACK, so promote on sight.  The new engine ACKs
        ``seq`` here, because its own copy of that ODATA reaches its
        slot host in this same instant, before or after the proxy's
        (and is skipped if after)."""
        if self.promote(acker_id, preempt=True):
            self.subtree_of(acker_id).exact[acker_id].receiver._send_ack(seq)

    # -- periodic sweep -------------------------------------------------------

    def _tick(self) -> None:
        now = self.sim.now
        self._bind_network_elements()
        sender = self.session.sender
        acker = sender.controller.current_acker
        guard = sender.guard
        # Guard suspects must be exact: promotion puts their quarantine
        # under the full quarantined-never-acker machinery.
        if guard is not None:
            for rx_id in guard.quarantined_ids():
                self.promote(rx_id)
            for rx_id, score in guard.summary()["suspects"].items():
                if score >= SUSPECT_THRESHOLD:
                    self.promote(rx_id)
        for subtree in self.subtrees:
            for identity in list(subtree.exact):
                member = subtree.exact[identity]
                if identity == acker:
                    member.last_acker_at = now
                    continue
                if member.pinned:
                    continue
                if guard is not None and (
                        guard.is_quarantined(identity)
                        or guard.suspicion(identity) > 0.01):
                    continue
                idle_since = max(member.promoted_at, member.last_acker_at)
                if now - idle_since >= DEMOTE_AFTER:
                    self.demote(identity)
        self._sweep_timer.restart(SWEEP_INTERVAL)

    def _bind_network_elements(self) -> None:
        """Register each subtree's aggregate branch weight with the NE
        on its router (lazy: NEs may be installed after the session)."""
        tsi = self.session.tsi
        for subtree in self.subtrees:
            router = self.net.nodes.get(self.plan.router(subtree.index))
            element = getattr(router, "interceptor", None)
            if element is None or not hasattr(element,
                                              "register_aggregate_branch"):
                continue
            branch = self.plan.agg_host(subtree.index)
            element.register_aggregate_branch(tsi, branch,
                                              subtree.bank.size + 1)

    # -- accounting -----------------------------------------------------------

    @property
    def population(self) -> int:
        return self.plan.n_receivers

    def exact_count(self) -> int:
        return sum(len(s.exact) for s in self.subtrees)

    def tail_count(self) -> int:
        return sum(s.bank.size for s in self.subtrees)

    def synthetic_naks(self) -> int:
        return sum(s.proxy.synthetic_naks for s in self.subtrees
                   if s.proxy is not None)

    def synthetic_fake_naks(self) -> int:
        return sum(s.proxy.synthetic_fake_naks for s in self.subtrees
                   if s.proxy is not None)

    def conservation_errors(self) -> list[str]:
        """Checks for the ``aggregate-conservation`` invariant: the
        exact cohort and the tail partition the population, per subtree
        and in total, and every exact identity has a live engine."""
        errors = []
        for subtree in self.subtrees:
            modeled = subtree.bank.size + len(subtree.exact)
            if modeled != subtree.size:
                errors.append(
                    f"subtree {subtree.index}: bank {subtree.bank.size} + "
                    f"exact {len(subtree.exact)} != population {subtree.size}"
                )
            for identity, member in subtree.exact.items():
                if member.receiver._closed:
                    errors.append(
                        f"subtree {subtree.index}: exact member {identity} "
                        "has a closed engine"
                    )
        total = self.exact_count() + self.tail_count()
        if total != self.population:
            errors.append(
                f"exact {self.exact_count()} + tail {self.tail_count()} "
                f"!= population {self.population}"
            )
        return errors

    def observe_backoff(self, delay: float) -> None:
        if self._backoff_hist is not None:
            self._backoff_hist.observe(delay)

    def bind_metrics(self, registry) -> None:
        """Pull-bindings + the synthetic-feedback histogram
        (``agg.*``, see docs/API.md)."""
        bind = registry.bind
        bind("agg.promotions", lambda: self.promotions)
        bind("agg.demotions", lambda: self.demotions)
        bind("agg.promotions_deferred", lambda: self.promotions_deferred)
        bind("agg.synthetic_naks", self.synthetic_naks)
        bind("agg.synthetic_fake_naks", self.synthetic_fake_naks)
        bind("agg.population", lambda: self.population, kind="gauge")
        bind("agg.exact_cohort", self.exact_count, kind="gauge")
        bind("agg.tail", self.tail_count, kind="gauge")
        self._backoff_hist = registry.histogram("agg.synthetic_backoff_s")

    def summary(self) -> dict:
        """What ``session.summary()["aggregate"]`` reads here; the rest
        of the block is the ``agg.*`` metrics."""
        modes = {"mirror": 0, "analytic": 0}
        for subtree in self.subtrees:
            modes[subtree.bank.mode] += 1
        return {
            "enabled": True,
            "subtrees": len(self.subtrees),
            "sampled": self.sampled_count,
            "modes": modes,
        }

    def close(self) -> None:
        if self._sweep_timer is not None:
            self._sweep_timer.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AggregateManager pop={self.population} "
            f"exact={self.exact_count()} tail={self.tail_count()} "
            f"promotions={self.promotions}>"
        )
