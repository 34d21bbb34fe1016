"""Sender-side feedback hardening: the per-receiver report guard.

pgmcc's §3.5 election trusts every receiver's self-reported
``rxw_lead`` and ``rx_loss``; a single liar can capture ackership and
drive the group faster than TCP-friendly (under-report) or throttle it
(over-report).  The :class:`FeedbackGuard` sits between packet ingress
and the congestion controller and keeps, per receiver, a ledger of
everything that receiver has claimed — then cross-checks each new
report against physics the sender *can* verify:

* ``rxw_lead`` can never exceed ``last_tx_seq`` (you cannot receive
  what was never sent) and must be (nearly) monotone;
* an ACK's ``ack_seq`` can never exceed the same report's
  ``rxw_lead`` — an honest receiver builds the report after updating
  its window with the packet it is acking;
* ``rx_loss`` must stay within the reachable range of the paper's IIR
  filter (``W = 65000/65536``) given how many packet slots elapsed
  since the receiver's previous report: the filter moves at most
  ``W**n`` per ``n`` slots, so teleporting estimates are lies;
* sustained divergence between the reported loss rate and a shadow
  filter the guard feeds from the receiver's own ACK bitmaps;
* NAK arrival rate against a token bucket (§3.8 pacing makes honest
  receivers naturally compliant);
* verbatim ACK replays (same ``ack_seq`` + bitmap) are deduplicated.

Violations accrue an exponentially-decaying *suspicion score*; weak
signals (explainable by reordering or loss) weigh less than physical
impossibilities.  Crossing the threshold quarantines the receiver
with exponential-backoff readmission.  Quarantine removes *control
influence only*: the receiver's reports stop feeding the election and
its ACKs stop clocking the window, but its NAKs are still honored for
repair — reliability is never sacrificed to the guard (the worst a
false positive can do is ignore a receiver's opinion, never starve
it of data).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, inf
from typing import Optional

from ..core.acktrack import BITMAP_BITS, bitmap_contains
from ..core.loss_filter import DEFAULT_W, SCALE, LossRateFilter
from ..core.reports import ReceiverReport

#: Violation rules, in documentation order.  "strong" rules flag
#: physical impossibilities; "weak" rules flag patterns that a hostile
#: network could conceivably produce for an honest receiver.
RULES = (
    "lead-beyond-tx",       # strong: rxw_lead > last_tx_seq
    "ack-unsent",           # strong: ack_seq > last_tx_seq
    "ack-beyond-lead",      # strong: ack_seq > same report's rxw_lead
    "lead-regression",      # weak: rxw_lead moved backwards past slack
    "loss-range",           # strong: rx_loss outside IIR reachable range
    "shadow-divergence",    # strong: sustained loss over-report vs bitmaps
    "nak-flood",            # weak: NAK rate above the token bucket
)
_STRONG = frozenset(
    ("lead-beyond-tx", "ack-unsent", "ack-beyond-lead", "loss-range",
     "shadow-divergence")
)


# The guard's fixed values, read where they are used (a test that needs
# another value patches the module constant).  The suspicion scale is
# calibrated so two strong violations (or six weak ones) quarantine.
SUSPICION_THRESHOLD = 3.0
SUSPICION_DECAY_TAU = 30.0   # seconds; e-folding of suspicion
STRONG_WEIGHT = 1.5
WEAK_WEIGHT = 0.5
#: tolerated backwards movement of rxw_lead (reordered NAKs/ACKs
#: legitimately carry slightly stale reports)
LEAD_REGRESSION_SLACK = 64
#: extra filter steps granted when bounding the reachable rx_loss
#: range (covers reports generated a moment before arrival)
LOSS_RANGE_SLACK = 16
#: absolute fixed-point tolerance added to both range bounds
LOSS_RANGE_TOL = 256
#: NAK token bucket: refill rate (per second) and burst depth.
#: §3.8 pacing spaces honest NAKs ≥ storm_spacing apart (50/s).
NAK_RATE = 60.0
NAK_BURST = 120.0
#: once quarantined, the repair budget is bound by physics instead
#: of wall-clock: a receiver cannot have lost more than the sender
#: transmitted, so tokens refill per *transmitted packet* (factor
#: covers RDATA-loss retries) with a small burst allowance
QUARANTINE_REPAIR_FACTOR = 1.0
QUARANTINE_REPAIR_BURST = 32.0
#: verbatim-ACK dedup table depth per receiver, and how long a
#: signature stays "recent".  The TTL matters: a stall-elicited
#: keep-alive ACK is legitimately verbatim-identical to the
#: receiver's previous ACK (no new data arrived), and swallowing
#: it would leave the sender stalled — only rapid-fire duplicates
#: are replay attacks.
REPLAY_WINDOW = 32
REPLAY_TTL = 1.0
#: quarantine duration: base * backoff**(n-1), capped
QUARANTINE_BASE = 10.0
QUARANTINE_BACKOFF = 2.0
QUARANTINE_MAX = 300.0
#: suspicion retained on readmission (fraction of threshold) — a
#: readmitted receiver is on probation, not forgiven
READMIT_SUSPICION_FRACTION = 0.5
#: shadow-filter divergence gate: only judge after this many shadow
#: updates, and only when reported > shadow*factor + margin for
#: this many consecutive reports
SHADOW_MIN_UPDATES = 256
SHADOW_FACTOR = 4.0
SHADOW_MARGIN = int(0.05 * SCALE)
SHADOW_CONSECUTIVE = 5
#: the shadow is only a valid cross-check while bitmaps keep
#: feeding it — a receiver that lost ackership stops supplying
#: bitmaps while its true loss keeps evolving, so a stale shadow
#: must not condemn honest reports
SHADOW_MAX_AGE = 2.0


@dataclass
class GuardVerdict:
    """What the guard decided about one incoming report/ACK."""

    #: feed this feedback to the congestion controller / election?
    allow_control: bool = True
    #: drop the packet outright (currently: verbatim ACK replays)
    drop: bool = False
    #: rules violated by this packet (empty for clean feedback)
    violations: list = field(default_factory=list)
    #: True when this packet pushed the receiver into quarantine
    newly_quarantined: bool = False


@dataclass
class _Ledger:
    """Per-receiver claim history (one per rx_id ever heard from)."""

    rx_id: str
    last_lead: int = -1
    last_loss: int = 0
    has_report: bool = False
    suspicion: float = 0.0
    last_suspicion_update: float = 0.0
    quarantined_until: float = 0.0
    quarantine_count: int = 0
    nak_tokens: float = 0.0
    nak_last_refill: float = 0.0
    nak_tx_mark: int = -1
    #: recent verbatim ACK signatures, insertion-ordered for eviction
    recent_acks: dict = field(default_factory=dict)
    shadow: Optional[LossRateFilter] = None
    shadow_high: int = -1
    shadow_fed_at: float = -inf
    divergent_streak: int = 0
    violations: int = 0


class FeedbackGuard:
    """Plausibility-checks receiver feedback before it can steer pgmcc.

    Args:
        sim: the event engine (time source).
        filter_w: IIR smoothing constant the receivers are configured
            with.
        check_loss_range: whether the loss-range rule runs at all (only
            sound when the receivers use the paper's IIR estimator).
    """

    def __init__(self, sim, filter_w: int = DEFAULT_W,
                 check_loss_range: bool = True):
        self.sim = sim
        self.filter_w = filter_w
        self.check_loss_range = check_loss_range
        self._ledgers: dict[str, _Ledger] = {}
        # counters
        self.reports_checked = 0
        self.acks_checked = 0
        self.acks_deduped = 0
        self.control_blocked = 0
        self.quarantines = 0
        self.violation_counts: dict[str, int] = {rule: 0 for rule in RULES}

    # -- ledger access -----------------------------------------------------

    def _ledger(self, rx_id: str) -> _Ledger:
        led = self._ledgers.get(rx_id)
        if led is None:
            led = _Ledger(
                rx_id,
                nak_tokens=NAK_BURST,
                nak_last_refill=self.sim.now,
                shadow=LossRateFilter(self.filter_w),
            )
            self._ledgers[rx_id] = led
        return led

    def is_quarantined(self, rx_id: str, now: Optional[float] = None) -> bool:
        """Whether ``rx_id`` is currently serving a quarantine."""
        led = self._ledgers.get(rx_id)
        if led is None:
            return False
        return (now if now is not None else self.sim.now) < led.quarantined_until

    def quarantined_ids(self) -> list:
        """All receivers currently quarantined (for invariant sweeps)."""
        now = self.sim.now
        return sorted(
            led.rx_id for led in self._ledgers.values()
            if now < led.quarantined_until
        )

    # -- suspicion machinery -----------------------------------------------

    def _decay(self, led: _Ledger, now: float) -> None:
        dt = now - led.last_suspicion_update
        if dt > 0 and led.suspicion > 0:
            led.suspicion *= exp(-dt / SUSPICION_DECAY_TAU)
        led.last_suspicion_update = now

    def _punish(self, led: _Ledger, now: float, verdict: GuardVerdict,
                rule: str) -> None:
        self._decay(led, now)
        led.suspicion += STRONG_WEIGHT if rule in _STRONG else WEAK_WEIGHT
        led.violations += 1
        self.violation_counts[rule] += 1
        verdict.violations.append(rule)
        if (led.suspicion >= SUSPICION_THRESHOLD
                and now >= led.quarantined_until):
            led.quarantine_count += 1
            duration = min(
                QUARANTINE_MAX,
                QUARANTINE_BASE
                * QUARANTINE_BACKOFF ** (led.quarantine_count - 1),
            )
            led.quarantined_until = now + duration
            led.suspicion = SUSPICION_THRESHOLD * READMIT_SUSPICION_FRACTION
            self.quarantines += 1
            verdict.newly_quarantined = True

    # -- report plausibility -------------------------------------------------

    def _check_report(self, led: _Ledger, report: ReceiverReport, now: float,
                      last_tx_seq: int, verdict: GuardVerdict) -> None:
        if report.rxw_lead > last_tx_seq:
            self._punish(led, now, verdict, "lead-beyond-tx")
        elif led.has_report and report.rxw_lead < led.last_lead - LEAD_REGRESSION_SLACK:
            self._punish(led, now, verdict, "lead-regression")
        loss_teleported = False
        if self.check_loss_range and led.has_report:
            loss_teleported = self._check_loss_range(led, report, now, verdict)
        self._check_shadow(led, report, now, verdict)
        # Advance the ledger only along plausible claims, so one lie
        # does not poison the baseline for subsequent checks.  In
        # particular a teleported rx_loss must NOT become the new
        # baseline — otherwise the first lie legitimises every repeat.
        # The frozen (lead, loss) pair self-heals: as the true lead
        # advances, the reachable band from the old baseline widens
        # until honest claims fit again.
        if (report.rxw_lead <= last_tx_seq and report.rxw_lead >= led.last_lead
                and not loss_teleported):
            led.last_lead = report.rxw_lead
            led.last_loss = report.rx_loss
            led.has_report = True

    def _check_loss_range(self, led: _Ledger, report: ReceiverReport,
                          now: float, verdict: GuardVerdict) -> bool:
        """The IIR filter moves deterministically: after ``n`` packet
        slots the estimate lies in ``[y0*W**n, y0*W**n + (1-W**n)]``
        (all-received vs all-lost extremes).  A report outside that
        band — padded by slack slots and an absolute tolerance — is
        arithmetically unreachable from the receiver's previous claim.
        Returns True when the rule fired (the caller must then keep
        the old baseline).
        """
        n = report.rxw_lead - led.last_lead
        if n < 0:
            return False  # stale/reordered; regression rule handles it
        if n == 0:
            # No window movement: the filter cannot move either.
            if abs(report.rx_loss - led.last_loss) > LOSS_RANGE_TOL:
                self._punish(led, now, verdict, "loss-range")
                return True
            return False
        wf = self.filter_w / SCALE
        wn = wf ** n
        wn_slack = wf ** (n + LOSS_RANGE_SLACK)
        lower = led.last_loss * wn_slack - LOSS_RANGE_TOL
        upper = led.last_loss * wn + SCALE * (1.0 - wn_slack) + LOSS_RANGE_TOL
        if not lower <= report.rx_loss <= upper:
            self._punish(led, now, verdict, "loss-range")
            return True
        return False

    def _check_shadow(self, led: _Ledger, report: ReceiverReport, now: float,
                      verdict: GuardVerdict) -> None:
        """Directional cross-check for *over*-reporters: the shadow
        filter replays the receiver's own ACK bitmaps through the same
        IIR, so a throttler claiming heavy loss while acking nearly
        everything diverges without ever tripping the range rule.
        Under-reporting is not judged here (repairs and ACK loss make
        the shadow read high for honest receivers, never low)."""
        shadow = led.shadow
        if shadow is None or shadow.samples < SHADOW_MIN_UPDATES:
            return
        if now - led.shadow_fed_at > SHADOW_MAX_AGE:
            # Stale shadow (no recent bitmaps — e.g. ackership moved
            # on while the receiver's true loss kept changing): not a
            # usable baseline.
            led.divergent_streak = 0
            return
        threshold = shadow.value * SHADOW_FACTOR + SHADOW_MARGIN
        if report.rx_loss > threshold:
            led.divergent_streak += 1
            if led.divergent_streak >= SHADOW_CONSECUTIVE:
                led.divergent_streak = 0
                self._punish(led, now, verdict, "shadow-divergence")
        else:
            led.divergent_streak = 0

    def _feed_shadow(self, led: _Ledger, ack_seq: int, bitmap: int) -> None:
        shadow = led.shadow
        if shadow is None:
            return
        if ack_seq - led.shadow_high > BITMAP_BITS:
            # Gap wider than the bitmap (first ACK, or control silence):
            # skip ahead rather than inventing loss samples.
            led.shadow_high = ack_seq - BITMAP_BITS
        for seq in range(led.shadow_high + 1, ack_seq + 1):
            shadow.update(not bitmap_contains(ack_seq, bitmap, seq))
        led.shadow_high = max(led.shadow_high, ack_seq)
        led.shadow_fed_at = self.sim.now

    # -- ingress hooks -------------------------------------------------------

    def on_nak(self, report: ReceiverReport, last_tx_seq: int,
               requests_repair: bool = True) -> GuardVerdict:
        """Vet one NAK.  ``allow_control`` gates the election feed;
        ``drop`` means the per-receiver repair budget is exhausted and
        the caller should skip the RDATA (NCF may still go out).  The
        refill rate sits above the §3.8 honest-receiver NAK ceiling, so
        a compliant receiver never loses a repair to the bucket."""
        now = self.sim.now
        verdict = GuardVerdict()
        led = self._ledger(report.rx_id)
        self.reports_checked += 1

        if requests_repair:
            if led.nak_tx_mark < 0:
                led.nak_tx_mark = last_tx_seq
            if self.is_quarantined(report.rx_id, now):
                # A quarantined receiver's repair budget is bound by
                # physics, not wall-clock: it cannot have lost more
                # than the sender transmitted since its last request,
                # so tokens refill per transmitted packet.  Real losses
                # still get repaired (each transmitted packet funds one
                # repair) but a storm can no longer outrun the data
                # rate and drown the bottleneck in RDATA.
                grant = ((last_tx_seq - led.nak_tx_mark)
                         * QUARANTINE_REPAIR_FACTOR)
                led.nak_tokens = min(QUARANTINE_REPAIR_BURST,
                                     led.nak_tokens + grant)
            else:
                # Token-bucket NAK pacing (honest §3.8 receivers stay
                # well under the refill rate; fake NAKs are report-only
                # and do not spend repair tokens).
                led.nak_tokens = min(
                    NAK_BURST,
                    led.nak_tokens + (now - led.nak_last_refill) * NAK_RATE,
                )
            led.nak_tx_mark = last_tx_seq
            led.nak_last_refill = now
            if led.nak_tokens >= 1.0:
                led.nak_tokens -= 1.0
            else:
                verdict.drop = True
                self._punish(led, now, verdict, "nak-flood")

        self._check_report(led, report, now, last_tx_seq, verdict)
        if self.is_quarantined(report.rx_id, now):
            verdict.allow_control = False
            self.control_blocked += 1
        return verdict

    def on_ack(self, ack_seq: int, bitmap: int, report: ReceiverReport,
               last_tx_seq: int) -> GuardVerdict:
        """Vet one ACK.  ``drop`` means discard entirely (replay);
        ``allow_control`` gates the window/election feed."""
        now = self.sim.now
        verdict = GuardVerdict()
        led = self._ledger(report.rx_id)
        self.acks_checked += 1

        # Verbatim replay dedup — NO suspicion: honest duplicates occur
        # under link-level duplication faults.  Deflection is free.
        # TTL-bounded: an expired signature is treated as fresh (see
        # REPLAY_TTL for why).
        sig = (ack_seq, bitmap, report.rxw_lead, report.rx_loss)
        seen_at = led.recent_acks.get(sig)
        if seen_at is not None and now - seen_at <= REPLAY_TTL:
            self.acks_deduped += 1
            verdict.drop = True
            verdict.allow_control = False
            return verdict
        led.recent_acks.pop(sig, None)
        led.recent_acks[sig] = now
        while len(led.recent_acks) > REPLAY_WINDOW:
            led.recent_acks.pop(next(iter(led.recent_acks)))

        self.reports_checked += 1
        if ack_seq > last_tx_seq:
            self._punish(led, now, verdict, "ack-unsent")
        elif ack_seq > report.rxw_lead:
            # An honest receiver builds its report *after* absorbing
            # the packet it acks, so rxw_lead >= ack_seq always.
            self._punish(led, now, verdict, "ack-beyond-lead")
        else:
            self._feed_shadow(led, ack_seq, bitmap)
        self._check_report(led, report, now, last_tx_seq, verdict)
        if self.is_quarantined(report.rx_id, now):
            verdict.allow_control = False
            self.control_blocked += 1
        return verdict

    # -- introspection -----------------------------------------------------

    def suspicion(self, rx_id: str) -> float:
        """Current (decayed) suspicion score for ``rx_id``."""
        led = self._ledgers.get(rx_id)
        if led is None:
            return 0.0
        dt = self.sim.now - led.last_suspicion_update
        if dt <= 0 or led.suspicion <= 0:
            return led.suspicion
        return led.suspicion * exp(-dt / SUSPICION_DECAY_TAU)

    def summary(self) -> dict:
        """Counters for session ``summary()`` and experiment reports."""
        now = self.sim.now
        return {
            "receivers_tracked": len(self._ledgers),
            "reports_checked": self.reports_checked,
            "acks_checked": self.acks_checked,
            "acks_deduped": self.acks_deduped,
            "control_blocked": self.control_blocked,
            "quarantines": self.quarantines,
            "quarantined_now": self.quarantined_ids(),
            "violations": {
                rule: count
                for rule, count in self.violation_counts.items()
                if count
            },
            "suspects": {
                led.rx_id: round(self.suspicion(led.rx_id), 3)
                for led in self._ledgers.values()
                if self.suspicion(led.rx_id) > 0.01 or now < led.quarantined_until
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FeedbackGuard rx={len(self._ledgers)} "
            f"quarantines={self.quarantines} blocked={self.control_blocked}>"
        )
