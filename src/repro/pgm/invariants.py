"""Runtime protocol invariants (the chaos suite's oracle).

:class:`InvariantChecker` attaches to a live :class:`PgmSession` and
asserts, *while the simulation runs*, the properties the paper's
design arguments rest on:

``token-accounting``
    ``T`` never goes negative, ``W >= 1``, the post-halving ignore
    counter never underflows, and the sender's outstanding-packet
    table agrees with an independently maintained in-flight count
    (tokens spent minus packets acknowledged or declared lost) —
    the "T vs true in flight" bookkeeping of §3.4.

``single-halving-per-rtt``
    at most one window halving per RTT: a congestion reaction is only
    legal for a loss *beyond* the sequence recorded at the previous
    reaction (§3.4's "ignore further congestion events for one RTT").

``rxw-lead-monotonic``
    each receiver's ``rxw_lead`` never moves backwards, and no
    receiver report ever claims a lead beyond what the sender has
    transmitted.

``link-conservation``
    on every link, at any instant: ``sent + duplicated == delivered +
    dropped (loss/corrupt/fault/queue) + queued + in transit``.

``switch-no-reaction``
    an acker switch is a *move*, not a congestion signal (§3.5): the
    election may change the representative but must leave the window
    untouched and trigger no halving.

``quarantined-no-acker``
    when a :class:`~repro.pgm.guard.FeedbackGuard` is active, a
    quarantined receiver never holds ackership: its reports must not
    win (or keep) the election while its control influence is revoked.

``aggregate-conservation``
    under hybrid fidelity (:mod:`repro.pgm.aggregate`), the exact
    cohort and the analytic tail partition the population exactly —
    per subtree and in total — and every exact-cohort identity is
    backed by a live receiver engine.  Aggregated fan-out is
    tolerated; the exact-cohort accounting is binding.

``aggregate-promotion``
    a tail identity that wins the acker election must be promoted to
    the exact cohort within :data:`repro.pgm.aggregate.PROMOTION_GRACE`
    seconds — ackership may never *rest* on analytic state.

The checker works by wrapping the relevant methods on attach — the
unattached hot path pays nothing.  With ``strict=True`` (the default,
and what the fuzzers use as an oracle) the first violation raises
:class:`InvariantViolation`; with ``strict=False`` violations are
collected in :attr:`violations` for experiment reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..simulator.engine import Timer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .receiver import PgmReceiver
    from .session import PgmSession

#: All rule names, for reports and filtering.
RULES = (
    "token-accounting",
    "single-halving-per-rtt",
    "rxw-lead-monotonic",
    "link-conservation",
    "switch-no-reaction",
    "quarantined-no-acker",
    "aggregate-conservation",
    "aggregate-promotion",
)

#: simulated seconds between periodic sweeps (link conservation +
#: state sanity); a test that needs another period patches this
CHECK_INTERVAL = 1.0


class InvariantViolation(AssertionError):
    """Raised in strict mode on the first violated invariant."""


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation."""

    time: float
    rule: str
    detail: str


class InvariantChecker:
    """Attachable runtime invariant oracle for one PGM session.

    Args:
        session: the session to watch (sender must exist; receivers
            may join later — new ones are picked up on each periodic
            check).
        strict: raise on the first violation (fuzz-oracle mode) rather
            than just recording it.
    """

    def __init__(self, session: "PgmSession", strict: bool = True):
        self.session = session
        self.net = session.network
        self.sim = session.network.sim
        self.strict = strict
        self.violations: list[Violation] = []
        self.checks_run = 0
        self._attached = False
        self._saved: list[tuple[object, str, object]] = []
        self._wrapped_receivers: set[int] = set()
        self._tick_event = None
        # independent in-flight ledger for token-accounting
        self._in_flight = 0
        self._restarts_seen = 0
        self._last_reaction_recovery: Optional[int] = None
        #: >0 while inside controller feedback processing: the token
        #: grant -> pump path re-enters register_data before the ACK
        #: digest is reconciled, so ledger comparisons are deferred to
        #: the end of the outer call.
        self._in_feedback = 0
        #: (acker, since) while a tail identity holds ackership
        #: unpromoted (aggregate-promotion grace tracking), and the
        #: timer that fires the rule when the grace runs out
        self._tail_acker_since: Optional[tuple[str, float]] = None
        self._grace_timer = Timer(self.sim, self._grace_expired)

    # -- lifecycle ---------------------------------------------------------

    def attach(self) -> "InvariantChecker":
        """Install the wrappers and start the periodic sweep."""
        if self._attached:
            return self
        self._attached = True
        controller = self.session.sender.controller
        self._in_flight = controller.tracker.outstanding_count
        self._restarts_seen = controller.restarts
        self._wrap(controller, "register_data", self._wrap_register_data)
        self._wrap(controller, "on_ack", self._wrap_on_ack)
        self._wrap(controller, "on_nak", self._wrap_on_nak)
        self._wrap(controller.window, "on_loss", self._wrap_on_loss)
        for rx in self.session.receivers:
            self._wrap_receiver(rx)
        self._tick_event = self.sim.schedule(CHECK_INTERVAL, self._tick)
        return self

    def detach(self) -> None:
        """Remove every wrapper and stop the periodic sweep."""
        for owner, name, original in self._saved:
            if original is None:
                try:
                    delattr(owner, name)
                except AttributeError:
                    pass
            else:
                setattr(owner, name, original)
        self._saved.clear()
        self._wrapped_receivers.clear()
        if self._tick_event is not None:
            self.sim.cancel(self._tick_event)
            self._tick_event = None
        self._grace_timer.cancel()
        self._attached = False

    # -- results -----------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> str:
        """Human-readable summary for experiment output."""
        if self.ok:
            return f"invariants: ok ({self.checks_run} sweeps, 0 violations)"
        lines = [f"invariants: {len(self.violations)} violation(s):"]
        for v in self.violations[:20]:
            lines.append(f"  t={v.time:.3f} [{v.rule}] {v.detail}")
        return "\n".join(lines)

    def verify_now(self) -> None:
        """Run the periodic sweep's checks immediately (e.g. at the
        end of a run, after the heap has drained)."""
        self._sweep()

    # -- internals ---------------------------------------------------------

    def _violate(self, rule: str, detail: str) -> None:
        violation = Violation(self.sim.now, rule, detail)
        self.violations.append(violation)
        if self.strict:
            raise InvariantViolation(f"t={violation.time:.3f} [{rule}] {detail}")

    def _wrap(self, owner, name: str, factory) -> None:
        original_bound = getattr(owner, name)
        # Record whether the attribute lived on the instance (so detach
        # can restore exactly) — wrappers always go on the instance.
        instance_attr = name in vars(owner)
        self._saved.append((owner, name, original_bound if instance_attr else None))
        setattr(owner, name, factory(original_bound))

    def _resync_after_stall(self, controller) -> None:
        # Keyed on ``restarts`` (stall restarts + watchdog degraded
        # restarts): any W=T=1 restart wipes the tracker, so the
        # ledger realigns regardless of which machinery fired it.
        if controller.restarts != self._restarts_seen:
            self._restarts_seen = controller.restarts
            self._in_flight = controller.tracker.outstanding_count

    # wrapper factories ----------------------------------------------------

    def _wrap_register_data(self, original):
        def register_data(seq: int):
            controller = self.session.sender.controller
            self._resync_after_stall(controller)
            elicit = original(seq)
            self._in_flight += 1
            window = controller.window
            if window.tokens < -1e-9:
                self._violate("token-accounting",
                              f"tokens went negative: {window.tokens:.6f}")
            if self._in_feedback == 0:
                self._check_ledger(controller, "after transmit")
            return elicit

        return register_data

    def _wrap_on_ack(self, original):
        def on_ack(ack_seq: int, bitmap: int, report):
            controller = self.session.sender.controller
            self._resync_after_stall(controller)
            if report.rxw_lead > controller.last_tx_seq:
                self._violate(
                    "rxw-lead-monotonic",
                    f"ACK report claims lead {report.rxw_lead} beyond "
                    f"last transmitted {controller.last_tx_seq}",
                )
            self._in_feedback += 1
            try:
                digest = original(ack_seq, bitmap, report)
            finally:
                self._in_feedback -= 1
            self._resync_after_stall(controller)
            self._in_flight -= len(digest.newly_acked) + len(digest.losses_declared)
            self._check_window(controller.window)
            if self._in_feedback == 0:
                self._check_ledger(controller, f"after ACK {ack_seq}")
            self._check_quarantine(f"after ACK {ack_seq}")
            return digest

        return on_ack

    def _wrap_on_nak(self, original):
        def on_nak(report):
            controller = self.session.sender.controller
            if report.rxw_lead > controller.last_tx_seq:
                self._violate(
                    "rxw-lead-monotonic",
                    f"NAK report claims lead {report.rxw_lead} beyond "
                    f"last transmitted {controller.last_tx_seq}",
                )
            window = controller.window
            w_before = window.w
            reacted_before = window.losses_reacted
            ignore_before = window.ignore_acks
            self._in_feedback += 1
            try:
                switched = original(report)
            finally:
                self._in_feedback -= 1
            if switched:
                if window.w != w_before:
                    self._violate(
                        "switch-no-reaction",
                        f"acker switch changed W: {w_before:.3f} -> {window.w:.3f}",
                    )
                if window.losses_reacted != reacted_before:
                    self._violate(
                        "switch-no-reaction",
                        "acker switch triggered a congestion reaction",
                    )
                if window.ignore_acks != ignore_before:
                    self._violate(
                        "switch-no-reaction",
                        "acker switch changed the post-halving ignore counter",
                    )
            self._check_quarantine("after NAK report")
            self._note_tail_acker(controller)
            return switched

        return on_nak

    def _wrap_on_loss(self, original):
        def on_loss(loss_seq: int, last_tx_seq: int, in_flight=None):
            window = self.session.sender.controller.window
            reacted = original(loss_seq, last_tx_seq, in_flight=in_flight)
            if reacted:
                prev = self._last_reaction_recovery
                if prev is not None and loss_seq <= prev:
                    self._violate(
                        "single-halving-per-rtt",
                        f"halving for loss {loss_seq} inside the previous "
                        f"recovery window (<= {prev})",
                    )
                self._last_reaction_recovery = window.recovery_seq
                if window.w < 1.0:
                    self._violate("token-accounting",
                                  f"W fell below 1 after halving: {window.w:.6f}")
            return reacted

        return on_loss

    def _wrap_receiver(self, rx: "PgmReceiver") -> None:
        if id(rx) in self._wrapped_receivers:
            return
        self._wrapped_receivers.add(id(rx))

        original = rx.cc.on_data
        checker = self

        def on_data(seq: int, now: float, sender_timestamp=None):
            lead_before = rx.cc.rxw_lead
            outcome = original(seq, now, sender_timestamp)
            if rx.cc.rxw_lead < lead_before:
                checker._violate(
                    "rxw-lead-monotonic",
                    f"{rx.rx_id}: rxw_lead moved backwards "
                    f"{lead_before} -> {rx.cc.rxw_lead}",
                )
            return outcome

        self._saved.append((rx.cc, "on_data", None))
        rx.cc.on_data = on_data

    # periodic + shared checks ---------------------------------------------

    def _check_window(self, window) -> None:
        if window.w < 1.0:
            self._violate("token-accounting", f"W below 1: {window.w:.6f}")
        if window.ignore_acks < 0:
            self._violate("token-accounting",
                          f"ignore counter negative: {window.ignore_acks}")
        if window.tokens < -1e-9 or window.tokens > 1e12:
            self._violate("token-accounting",
                          f"token count out of range: {window.tokens}")

    def _check_quarantine(self, context: str) -> None:
        guard = getattr(self.session.sender, "guard", None)
        if guard is None:
            return
        acker = self.session.sender.controller.current_acker
        if acker is not None and guard.is_quarantined(acker):
            self._violate(
                "quarantined-no-acker",
                f"quarantined receiver {acker} holds ackership ({context})",
            )

    def _check_ledger(self, controller, context: str) -> None:
        actual = controller.tracker.outstanding_count
        if actual != self._in_flight:
            self._violate(
                "token-accounting",
                f"in-flight ledger {self._in_flight} != outstanding "
                f"table {actual} ({context})",
            )

    def _sweep(self) -> None:
        self.checks_run += 1
        for node in self.net.nodes.values():
            for link in node.links.values():
                if not link.conserves_packets():
                    self._violate(
                        "link-conservation",
                        f"{link.name}: sent={link.sent} dup={link.fault_duplicates} "
                        f"delivered={link.delivered} loss={link.random_drops} "
                        f"corrupt={link.corrupt_drops} fault={link.fault_drops} "
                        f"filter={link.filter_drops} "
                        f"qdrop={link.queue_drops} queued={link.queued} "
                        f"transit={link.in_transit}",
                    )
        controller = self.session.sender.controller
        self._resync_after_stall(controller)
        self._check_window(controller.window)
        self._check_quarantine("periodic sweep")
        self._check_aggregate(controller)
        # Receivers that joined after attach get wrapped here.
        for rx in self.session.receivers:
            self._wrap_receiver(rx)

    def _check_aggregate(self, controller) -> None:
        manager = getattr(self.session, "aggregate", None)
        if manager is None:
            return
        for detail in manager.conservation_errors():
            self._violate("aggregate-conservation", detail)
        self._note_tail_acker(controller)

    def _note_tail_acker(self, controller) -> None:
        """Start the grace clock when the election seats a tail
        identity (elections switch in ``on_nak``; the sweep catches any
        other path) and stop it when that reign ends."""
        manager = getattr(self.session, "aggregate", None)
        if manager is None:
            return
        from . import aggregate

        acker = controller.current_acker
        if acker is None or not manager.is_tail_identity(acker):
            self._tail_acker_since = None
            self._grace_timer.cancel()
        elif (self._tail_acker_since is None
                or self._tail_acker_since[0] != acker):
            self._tail_acker_since = (acker, self.sim.now)
            self._grace_timer.restart(aggregate.PROMOTION_GRACE)

    def _grace_expired(self) -> None:
        # a timer, not a sweep: checks_run counts periodic sweeps only
        reign = self._tail_acker_since
        self._note_tail_acker(self.session.sender.controller)
        if reign is None or self._tail_acker_since != reign:
            return  # the reign ended unnoticed
        from . import aggregate

        acker, since = reign
        self._violate(
            "aggregate-promotion",
            f"acker {acker} is an unpromoted tail identity "
            f"(for {self.sim.now - since:.3f}s, grace "
            f"{aggregate.PROMOTION_GRACE}s)",
        )

    def _tick(self) -> None:
        self._sweep()
        self._tick_event = self.sim.schedule(CHECK_INTERVAL, self._tick)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "attached" if self._attached else "detached"
        return (
            f"<InvariantChecker {state} sweeps={self.checks_run} "
            f"violations={len(self.violations)}>"
        )
