"""Acker-liveness watchdog: fast dead-acker detection + degraded mode.

The generic stall machinery (§3.2/§3.6) is deliberately conservative:
it restarts at ``W = T = 1`` on a doubled-RTO timeout and only elicits
a fresh election after :data:`~repro.core.sender_cc.ELICIT_AFTER_STALLS`
consecutive stalls — so a crashed acker costs the session two stall
backoffs (seconds) before anyone is even *asked* to take over.  This
module adds the liveness layer the partition experiments need:

* an **ACK inter-arrival watchdog** clocked by the time-RTT (the same
  estimator pgmcc uses "for determining timeouts", §3): when no ACK
  arrives within ``ACK_TIMEOUT_FACTOR * rto`` the incumbent is presumed
  dead and *demoted* — election cleared, next ODATA marked elicit-NAK
  (§3.6) — on the **first** timeout, not the second stall;
* an explicit **degraded mode** for total feedback loss (partition,
  control-plane blackhole): after ``MAX_DEMOTIONS`` fruitless demotions
  the watchdog performs one controlled ``W = T = 1`` restart and then
  probes at a conservative rate floor (one elicit-marked packet every
  ``DEGRADED_INTERVAL``) with a bounded repair budget, instead of
  oscillating through exponentially backed-off stall restarts.  The
  generic stall timer is suppressed while degraded (see
  ``SenderController._on_stall_timeout``).

State machine (see DESIGN.md §8 for the timer diagram)::

    NORMAL   --ack timeout-->  SUSPECT   (demote acker, elicit, backoff)
    SUSPECT  --ack timeout-->  SUSPECT   (re-demote, up to MAX_DEMOTIONS)
    SUSPECT  --ack timeout-->  DEGRADED  (restart W=T=1, rate-floor probes)
    DEGRADED --NAK arrives-->  SUSPECT   (feedback path back, re-elect)
    any      --ACK arrives-->  NORMAL    (records time-to-recover)

Each transition is one ``liveness-<state>`` record in the sender's log
and nothing else: transitions, degraded time (the ``degraded`` phase)
and time-to-recover samples are read off it by
:func:`repro.pgm.telemetry.read_log`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..simulator.engine import Timer
from ..simulator.trace import FlowTrace
from .constants import DEGRADED, NORMAL, SUSPECT  # the watchdog states


# The watchdog's fixed values (defaults tuned to beat the stall timer),
# read where they are used.
#: ACK inter-arrival timeout as a multiple of the time-RTT RTO.
ACK_TIMEOUT_FACTOR = 2.0
#: timeout clamp (seconds); the floor keeps jittery early RTT samples
#: from demoting a healthy acker, the ceiling bounds detection latency
#: no matter what the RTO says.
MIN_TIMEOUT = 0.3
MAX_TIMEOUT = 4.0
#: fruitless demotions before giving up on elections and entering
#: degraded mode (total feedback loss presumed).  Deliberately
#: aggressive: a demotion elicits an election from *every* receiver, so
#: one full timeout with no reply at all is strong evidence the
#: feedback path is gone — and degraded mode is cheap to leave (any ACK
#: or NAK exits it).  Backed-off timers, by contrast, leave the session
#: deaf for the whole backoff after the path heals.
MAX_DEMOTIONS = 1
#: degraded-mode probe period (seconds): the conservative rate floor —
#: one elicit-marked packet per interval.
DEGRADED_INTERVAL = 0.25
#: RDATA budget while degraded (refilled on each entry).
DEGRADED_REPAIR_BUDGET = 64


class LivenessWatchdog:
    """The sender-side liveness state machine.

    Args:
        sim: the event engine.
        controller: the :class:`~repro.core.sender_cc.SenderController`
            to demote/restart through (it calls back into the
            ``note_*`` hooks; wire with ``attach_watchdog``).
        on_probe: called once per degraded-mode probe interval and on
            every demotion; the transport should push an elicit-marked
            packet out (the sender's ``_liveness_probe``).
        trace: the log the transitions are written into (the
            sender's); a private one when not given.
    """

    def __init__(
        self,
        sim,
        controller,
        on_probe: Optional[Callable[[], None]] = None,
        trace: Optional[FlowTrace] = None,
    ):
        self.sim = sim
        self.controller = controller
        self.on_probe = on_probe
        self.trace = trace if trace is not None else FlowTrace()
        self.state = NORMAL
        self.closed = False
        self._timer = Timer(sim, self._on_timeout)
        self._probe_timer = Timer(sim, self._degraded_probe)
        #: demotions this suspicion episode (resets on recovery)
        self._episode_demotions = 0
        self.repair_budget_left = DEGRADED_REPAIR_BUDGET
        self.demotions = 0
        self.degraded_entries = 0
        self.probes_sent = 0
        self.repairs_blocked = 0

    # -- introspection -----------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self.state == DEGRADED

    def summary(self) -> dict:
        """What ``session.summary()["recovery"]`` reads here; the rest
        of the block is the session's ``liveness.*`` metrics."""
        return {
            "state": self.state,
            "probes_sent": self.probes_sent,
            "repairs_blocked": self.repairs_blocked,
        }

    # -- controller hooks --------------------------------------------------

    def note_data_sent(self) -> None:
        """Data went out: the ACK clock should tick within a timeout."""
        if self.closed or self.state == DEGRADED:
            return
        if not self._timer.armed:
            self._timer.start(self._timeout())

    def note_ack(self) -> None:
        """A (guard-accepted) ACK arrived: full recovery."""
        if self.closed:
            return
        if self.state != NORMAL:
            self._probe_timer.cancel()  # armed only while degraded
            self._transition(NORMAL)
            self._episode_demotions = 0
        self._timer.restart(self._timeout())

    def note_nak(self) -> None:
        """A NAK arrived.  NAKs prove the feedback *path* but not the
        acker's ACK clock, so they never reset the timeout — except out
        of degraded mode, where any feedback at all means elections can
        work again."""
        if self.closed or self.state != DEGRADED:
            return
        self._probe_timer.cancel()
        self._transition(SUSPECT)
        self._timer.restart(self._timeout())

    # -- timers ------------------------------------------------------------

    def _timeout(self) -> float:
        rto = self.controller.rto
        if rto is None:
            base = MAX_TIMEOUT / 4.0
        else:
            base = max(MIN_TIMEOUT, ACK_TIMEOUT_FACTOR * rto)
        backoff = 2.0 ** min(self._episode_demotions, 3)
        return min(MAX_TIMEOUT, base * backoff)

    def _on_timeout(self) -> None:
        if self.closed or self.controller.closed or self.state == DEGRADED:
            return
        if self.controller.idle:
            # Idle, not dead: stand down until the next transmission
            # re-arms us.
            return
        if self.state == NORMAL:
            self._transition(SUSPECT)
            self._demote()
        elif self._episode_demotions >= MAX_DEMOTIONS:
            self._enter_degraded()
            return
        else:
            self._demote()
        self._timer.restart(self._timeout())

    def _demote(self) -> None:
        self.demotions += 1
        self._episode_demotions += 1
        self.controller.demote_acker()
        if self.on_probe is not None:
            self.on_probe()

    def _enter_degraded(self) -> None:
        self._transition(DEGRADED)
        self.degraded_entries += 1
        self.repair_budget_left = DEGRADED_REPAIR_BUDGET
        # One controlled W=T=1 restart (counted in controller.restarts
        # so the invariant checker resyncs), then rate-floor probing.
        self.controller.degraded_restart()
        self._timer.cancel()
        self._probe_timer.restart(DEGRADED_INTERVAL)

    def _degraded_probe(self) -> None:
        if self.closed or self.state != DEGRADED:
            return
        self.probes_sent += 1
        if self.on_probe is not None:
            self.on_probe()
        self._probe_timer.restart(DEGRADED_INTERVAL)

    # -- degraded-mode gates -----------------------------------------------

    def allow_repair(self) -> bool:
        """Degraded-mode repair budget: RDATA allowed?  (Always true
        outside degraded mode; the budget refills on entry.)"""
        if self.state != DEGRADED:
            return True
        if self.repair_budget_left > 0:
            self.repair_budget_left -= 1
            return True
        self.repairs_blocked += 1
        return False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.closed = True
        self._timer.cancel()
        self._probe_timer.cancel()

    def _transition(self, new: str) -> None:
        self.state = new
        # seq: the next ODATA sequence, as on the sender's own records
        self.trace.log(self.sim.now, f"liveness-{new}",
                       self.controller.last_tx_seq + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LivenessWatchdog state={self.state} "
            f"demotions={self.demotions} degraded={self.degraded_entries}>"
        )
