"""Receiver misbehaviours (the Byzantine endpoints).

pgmcc's control loop runs entirely on unauthenticated receiver
feedback (§3.2, §3.5): the acker election believes every report's
``rxw_lead`` and ``rx_loss``, and the window clock believes every ACK
bitmap.  This module implements the attacker side of that trust
problem, one class per attack — :class:`GreedyAcker`,
:class:`Throttler`, :class:`NakStorm`, :class:`AckReplay` and
:class:`SilentJoiner`.  Each is a
:class:`~repro.simulator.faults.ReceiverEpisode`: a
:class:`~repro.simulator.faults.FaultPlan` entry carrying the
receiver, its timing and the attack's parameters, which installs
itself on a :class:`~repro.pgm.receiver.PgmReceiver` when the fault
injector starts it.

An episode is a frozen value that a plan may compile more than once,
so what one run of it changes — its RNG stream, timers and the state
kept between hooks — lives on the :class:`Activation` that
:meth:`Misbehavior.start` files under ``rx.behaviors[kind]``.
Starting a kind again replaces the running one, and the receiver
calls the hooks of every active episode in activation order.

Behaviours mutate only what leaves the receiver (reports, bitmaps,
ACK/NAK emission); the receiver's local measurement state stays
honest, so stopping an episode restores compliant behaviour exactly.
Every random decision draws from the injector-provided named RNG
stream, preserving (seed, plan) determinism.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from ..core.acktrack import BITMAP_BITS
from ..core.loss_filter import SCALE, to_fixed
from ..simulator.engine import Timer
from ..simulator.faults import ReceiverEpisode, check_positive, check_rate
from ..simulator.packet import Packet
from . import constants as C
from .packets import Ack

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.reports import ReceiverReport
    from .receiver import PgmReceiver

#: All-ones receive bitmap (claims the last 32 packets all arrived).
FULL_BITMAP = 0xFFFFFFFF


class Activation:
    """One run of an episode on one receiver: the receiver's
    ``fault-rx`` RNG stream, the run's timers, and whatever the attack
    keeps between hooks (set as plain attributes by its ``begin``)."""

    def __init__(self, episode: "Misbehavior", receiver: "PgmReceiver",
                 rng: random.Random):
        self.episode = episode
        self.receiver = receiver
        self.rng = rng
        self.timers: list[Timer] = []

    def every(self, first: float,
              tick: Callable[["Activation"], float]) -> None:
        """Call ``tick(self)`` after ``first`` seconds and then again
        after each delay it returns, until the episode stops."""

        def fire() -> None:
            timer.start(tick(self))

        timer = Timer(self.receiver.sim, fire)
        self.timers.append(timer)
        timer.start(first)


@dataclass(frozen=True)
class Misbehavior(ReceiverEpisode):
    """Base of the attacks: installs and removes an :class:`Activation`
    and gives every hook a no-op default.  Subclasses override
    :meth:`begin` and the hooks they need."""

    def start(self, agent: "PgmReceiver", now: float,
              rng: random.Random) -> None:
        self.stop(agent)
        act = agent.behaviors[self.kind] = Activation(self, agent, rng)
        self.begin(act)

    def stop(self, agent: "PgmReceiver") -> None:
        act = agent.behaviors.pop(self.kind, None)
        if act is not None:
            for timer in act.timers:
                timer.cancel()

    def begin(self, act: Activation) -> None:
        pass

    # -- mutation hooks ---------------------------------------------------

    def mutate_report(self, act: Activation, report: "ReceiverReport",
                      context: str) -> "ReceiverReport":
        """``context`` is "nak" or "ack" — the two report channels feed
        different sender machinery (election vs window clock), and the
        interesting attacks lie differently on each."""
        return report

    def mutate_bitmap(self, act: Activation, ack_seq: int, bitmap: int) -> int:
        return bitmap

    def suppress_ack(self, act: Activation, ack_seq: int) -> bool:
        return False

    def suppress_nak(self, act: Activation, seq: int, fake: bool) -> bool:
        return False

    def on_ack_sent(self, act: Activation, ack: Ack) -> None:
        pass


@dataclass(frozen=True)
class _PeriodicReporter(Misbehavior):
    """Shared machinery: a timer that refreshes the receiver's acker
    candidacy with fake (report-only) NAKs every ``report_ivl``."""

    #: seconds between candidacy-refreshing fake NAKs
    report_ivl: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("report_ivl", self.report_ivl)

    def begin(self, act: Activation) -> None:
        act.every(self.report_ivl * act.rng.uniform(0.5, 1.0),
                  self._report_tick)

    def _report_tick(self, act: Activation) -> float:
        rx = act.receiver
        if rx.rxw_lead >= 0:
            # The fake NAK names a received packet, so it requests no
            # repair — it exists purely to push a report at the
            # election (the attacker's use of the §3.6 mechanism).
            rx._send_nak(max(rx.rxw_lead, 0), fake=True)
        return self.report_ivl * act.rng.uniform(0.9, 1.1)


@dataclass(frozen=True)
class GreedyAcker(_PeriodicReporter):
    """``receiver`` runs the ackership-capture + optimistic-ACK
    attack.  The sender reads the two feedback channels for different
    things: reported ``rx_loss`` feeds only the §3.5 election metric,
    while the ACK ``ack_seq``/bitmap stream is the only congestion
    signal the window reacts to.  Every report claims
    ``capture_loss``, which wins and holds the acker seat, while a
    self-paced timer ACKs sequences up to the SPM-advertised lead —
    received or not; SPMs advertise the sender's true lead, so each
    claim is plausible — with all-ones bitmaps.  The window never sees
    a loss and the ACK clock never starves, even while the overdriven
    bottleneck drops almost everything: the optimistic-ACK attack
    (Savage et al.) transplanted to pgmcc.

    Guard off, the rate climbs to whatever cap exists and compliant
    receivers drown in unrepairable queue loss.  The guard catches
    ``ack_seq`` overtaking the attacker's own reported ``rxw_lead``,
    and its shadow filter catches the claimed loss rate contradicting
    the loss-free bitmaps."""

    kind = "greedy-acker"

    #: loss fraction claimed on reports to win the election
    capture_loss: float = 0.4
    #: optimistic ACKs per second
    ack_rate: float = 60.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 < self.capture_loss <= 1.0:
            raise ValueError(
                f"capture_loss must be in (0, 1], got {self.capture_loss}")
        check_positive("ack_rate", self.ack_rate)

    def begin(self, act: Activation) -> None:
        super().begin(act)
        act.opt_ack = max(act.receiver.rxw_lead, -1)
        act.every(act.rng.uniform(0, 1.0 / self.ack_rate), self._ack_tick)

    def mutate_report(self, act, report, context):
        # Claimed loss feeds only the election metric: pinning it high
        # wins and keeps the acker seat.  The lead stays honest so the
        # claims remain individually plausible.
        return replace(report, rx_loss=min(to_fixed(self.capture_loss), SCALE))

    def mutate_bitmap(self, act, ack_seq, bitmap):
        # The bitmap is the only loss signal the window reacts to.
        return FULL_BITMAP

    def _ack_tick(self, act: Activation) -> float:
        rx = act.receiver
        # Highest sequence known to exist: own window lead, or the
        # lead the latest SPM advertised (what makes optimism safe —
        # the sender provably transmitted it).
        known = max(rx.rxw_lead, rx._last_spm_lead)
        if not rx._closed and known >= 0:
            # Advance at most one bitmap width per tick: the sender
            # only harvests ACK events from the 32-sequence bitmap, so
            # bigger jumps would strand sequences (declared lost —
            # a congestion signal, the one thing to avoid).
            act.opt_ack = min(known, max(act.opt_ack, -1) + BITMAP_BITS)
            ack = Ack(rx.tsi, act.opt_ack, FULL_BITMAP, rx._report("ack"))
            rx.host.send(Packet(rx.host.name, rx.source_addr,
                                ack.wire_size(), ack, C.PROTO))
        return act.rng.uniform(0.9, 1.1) / self.ack_rate


@dataclass(frozen=True)
class Throttler(_PeriodicReporter):
    """``receiver`` over-reports its loss rate (pinned at
    ``loss_rate``) to win the election, then drops a fraction of its
    own ACKs to slow the whole group down."""

    kind = "throttler"

    loss_rate: float = 0.4
    ack_drop_rate: float = 0.7

    def __post_init__(self) -> None:
        super().__post_init__()
        check_rate("loss_rate", self.loss_rate)
        check_rate("ack_drop_rate", self.ack_drop_rate)

    def mutate_report(self, act, report, context):
        return replace(report, rx_loss=min(to_fixed(self.loss_rate), SCALE))

    def suppress_ack(self, act, ack_seq):
        return act.rng.random() < self.ack_drop_rate


@dataclass(frozen=True)
class NakStorm(Misbehavior):
    """``receiver`` floods the source with repair-requesting NAKs for
    random already-transmitted sequences at ``rate`` per second."""

    kind = "nak-storm"

    duration: float  # a storm always ends
    rate: float = 200.0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("rate", self.rate)

    def begin(self, act: Activation) -> None:
        act.every(act.rng.uniform(0, 1.0 / self.rate), self._tick)

    def _tick(self, act: Activation) -> float:
        rx = act.receiver
        if rx.rxw_lead >= 0:
            # A *real* NAK for a random already-transmitted sequence:
            # the source answers with NCF + RDATA, so every storm NAK
            # costs the group repair bandwidth.
            seq = act.rng.randrange(rx.rxw_lead + 1)
            rx._send_nak(seq, fake=False)
        return act.rng.uniform(0.5, 1.5) / self.rate


@dataclass(frozen=True)
class AckReplay(Misbehavior):
    """``receiver`` re-sends ``copies`` verbatim copies of its most
    recent ACK every ``interval`` seconds (duplicated stale feedback
    skews dupack-based loss detection at the sender)."""

    kind = "ack-replay"

    duration: float  # a replay always ends
    copies: int = 3
    interval: float = 0.05

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1, got {self.copies}")
        check_positive("interval", self.interval)

    def begin(self, act: Activation) -> None:
        act.last_ack = None
        act.every(self.interval, self._tick)

    def on_ack_sent(self, act, ack):
        act.last_ack = ack

    def _tick(self, act: Activation) -> float:
        rx = act.receiver
        ack = act.last_ack
        if ack is not None and not rx._closed:
            for _ in range(self.copies):
                rx.host.send(Packet(rx.host.name, rx.source_addr,
                                    ack.wire_size(), ack, C.PROTO))
                rx.acks_replayed += 1
        return self.interval * act.rng.uniform(0.9, 1.1)


@dataclass(frozen=True)
class SilentJoiner(Misbehavior):
    """``receiver`` stays subscribed but suppresses every ACK and NAK
    it would send (a joined-but-mute group member)."""

    kind = "silent-joiner"

    def suppress_ack(self, act, ack_seq):
        return True

    def suppress_nak(self, act, seq, fake):
        return True
