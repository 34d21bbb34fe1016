"""The sender-side pgmcc engine (§3.4–§3.6).

:class:`SenderController` composes the window/token controller, the
ACK tracker and the acker election into the control loop the PGM
sender drives:

* each ODATA consumes a token and is registered as outstanding;
* each ACK regenerates tokens (one window event per *newly* acked
  packet, so lost/duplicated ACKs do not skew the clock), refreshes
  the incumbent acker's RTT and loss state, and may declare losses;
* each NAK report feeds the election;
* a stall timer restarts the session at ``W = T = 1`` when the ACK
  clock dies, and — after a couple of stalls in a row — marks the next
  packet to elicit a "fake NAK" so a fresh acker can be elected
  (§3.6).

The controller is transport-agnostic: the PGM sender (or any other
protocol) owns packet formats and retransmissions and calls in here.

Paper map: §3.4 (window/token rules — delegated to the pluggable
backend, :mod:`repro.core.controller`; the default ``"pgmcc"`` backend
is :class:`~repro.core.window.WindowController` verbatim), §3.5 (acker
election via :mod:`repro.core.acker`), §3.6 (session startup, fake-NAK
elicitation after consecutive stalls, acker switch/eviction), §3
footnote on time-RTT "for determining timeouts" (the stall timer's
RTO estimate below).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from ..simulator.engine import Simulator, Timer
from .acker import DEFAULT_C, AckerElection
from .acktrack import AckTracker
from .controller import make_controller
from .reports import ReceiverReport
from .rtt import RttSampler, packet_rtt
from .window import DEFAULT_DUPACK_THRESHOLD, DEFAULT_SSTHRESH

#: Stall timeout bounds (seconds).  The timeout adapts to the measured
#: time-RTT (which pgmcc uses "for determining timeouts", §3).
MIN_STALL_TIMEOUT = 0.5
MAX_STALL_TIMEOUT = 8.0
#: Consecutive stalls after which the next packet elicits a fake NAK.
ELICIT_AFTER_STALLS = 2


@dataclass
class CcConfig:
    """All pgmcc tunables in one place (paper defaults)."""

    c: float = DEFAULT_C
    ssthresh: int = DEFAULT_SSTHRESH
    dupack_threshold: int = DEFAULT_DUPACK_THRESHOLD
    rtt_mode: str = RttSampler.SEQ
    #: election throughput model: "simple" (paper default) or "padhye"
    #: (the full [15] equation, §5 future work).
    model: str = "simple"
    #: adaptive slow-start threshold (§3.4 future work): track half the
    #: window at each congestion event instead of the fixed 6 packets.
    adaptive_ssthresh: bool = False
    max_tokens: Optional[float] = None
    enabled: bool = True  # dynamic disable = plain PGM sender (§3.1)
    #: registered controller backend driving the send gate (see
    #: repro.core.controller; "pgmcc" is the paper's window machine).
    controller: str = "pgmcc"
    #: backend-specific parameters, e.g. {"beta": 0.8} for "aimd"; a
    #: mapping is stored as its sorted tuple of (key, value) pairs
    #: (tuple, not dict, so CcConfig stays hashable/picklable for the
    #: runner's cache keys).
    controller_params: tuple = ()
    #: enable the acker-liveness watchdog (repro.pgm.liveness): faster
    #: dead-acker detection than the generic stall timer, plus an
    #: explicit degraded mode under total feedback loss.
    liveness: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.controller_params, Mapping):
            self.controller_params = tuple(sorted(self.controller_params.items()))


@dataclass
class AckDigest:
    """What one ACK did to the sender state (for traces/tests)."""

    newly_acked: list[int]
    losses_declared: list[int]
    reacted: bool
    in_flight: Optional[int]


class SenderController:
    """pgmcc state machine on the sender."""

    def __init__(
        self,
        sim: Simulator,
        config: Optional[CcConfig] = None,
        on_tokens: Optional[Callable[[], None]] = None,
        on_stall: Optional[Callable[[], None]] = None,
    ):
        self.sim = sim
        self.config = config or CcConfig()
        #: the pluggable congestion-controller backend (repro.core.controller)
        self.backend = make_controller(
            self.config.controller,
            self.config,
            **dict(self.config.controller_params),
        )
        self.tracker = AckTracker(self.config.dupack_threshold)
        self.election = AckerElection(
            c=self.config.c, rtt_mode=self.config.rtt_mode, model=self.config.model
        )
        #: called whenever tokens become available (wake the tx loop)
        self.on_tokens = on_tokens
        #: called on each stall restart (diagnostics)
        self.on_stall = on_stall

        self.last_tx_seq: int = -1
        #: True when the next ODATA must carry the elicit-NAK mark.
        self.elicit_nak = True  # session startup (§3.6)
        self._send_times: dict[int, float] = {}
        self._srtt: Optional[float] = None
        self._rttvar: float = 0.0
        self._stall_timer = Timer(sim, self._on_stall_timeout)
        self._consecutive_stalls = 0
        self.closed = False
        self.stalls = 0
        #: every W=T=1 restart, stall-timer or watchdog driven — the
        #: invariant checker keys its in-flight ledger resync on this.
        self.restarts = 0
        self.acks_seen = 0
        self.naks_seen = 0
        self.acker_evictions = 0
        #: optional acker-liveness watchdog (repro.pgm.liveness),
        #: attached by the transport via attach_watchdog().
        self.watchdog = None

    # -- transmit path -----------------------------------------------------

    @property
    def can_send(self) -> bool:
        if not self.config.enabled:
            return True
        return self.backend.can_send

    def send_delay(self) -> Optional[float]:
        """When may the next packet go out?  ``0.0`` = now, a positive
        float = rate-paced (ask again in that many seconds), ``None`` =
        blocked until feedback reopens the window."""
        if not self.config.enabled:
            return 0.0
        return self.backend.send_delay(self.sim.now)

    def register_data(self, seq: int) -> bool:
        """Account for an ODATA transmission; returns whether the
        packet must carry the elicit-NAK mark."""
        if seq <= self.last_tx_seq:
            raise ValueError(f"non-monotonic data sequence {seq}")
        self.last_tx_seq = seq
        elicit = self.elicit_nak
        self.elicit_nak = False
        if not self.config.enabled:
            return elicit
        self.backend.on_send(seq, self.sim.now)
        self.tracker.on_data_sent(seq)
        self._send_times[seq] = self.sim.now
        if not self._stall_timer.armed:
            self._stall_timer.start(self._stall_timeout())
        if self.watchdog is not None:
            self.watchdog.note_data_sent()
        return elicit

    @property
    def current_acker(self) -> Optional[str]:
        return self.election.current

    # -- feedback path -----------------------------------------------------

    def on_nak(self, report: ReceiverReport) -> bool:
        """Feed a NAK's receiver report to the election."""
        self.naks_seen += 1
        if not self.config.enabled:
            return False
        if self.watchdog is not None:
            self.watchdog.note_nak()
        had_acker = self.election.current is not None
        switched = self.election.on_nak_report(report, self.last_tx_seq, self.sim.now)
        if switched and not had_acker and not self.backend.can_send:
            # Initial election (session start or post-stall): packets
            # already in flight were sent without an acker id and will
            # never be directly ACKed, so kick the backend to restart
            # the ACK clock immediately (§3.6) instead of waiting for
            # the stall timer.
            self.backend.kick()
            if self.on_tokens is not None:
                self.on_tokens()
        return switched

    def on_ack(self, ack_seq: int, bitmap: int, report: ReceiverReport) -> AckDigest:
        """Digest an ACK from the (current or former) acker."""
        self.acks_seen += 1
        if not self.config.enabled:
            return AckDigest([], [], False, None)

        # ACKs keep the session alive regardless of content.
        self._consecutive_stalls = 0
        if not self.closed:
            self._stall_timer.restart(self._stall_timeout())
        if self.watchdog is not None:
            self.watchdog.note_ack()

        outcome = self.tracker.on_ack(ack_seq, bitmap)
        self._update_time_rtt(outcome.newly_acked)
        self.election.on_ack_report(report, self.last_tx_seq, self.sim.now)
        self.backend.observe_report(report, self._srtt, self.sim.now)

        in_flight = packet_rtt(self.last_tx_seq, report.rxw_lead, floor=0)
        reacted = False
        for seq in outcome.losses:
            if self.backend.on_congestion(seq, self.last_tx_seq, in_flight, self.sim.now):
                reacted = True
        had_tokens = self.backend.can_send
        for _ in outcome.newly_acked:
            self.backend.on_ack(self.sim.now, in_flight)
        if (
            self.backend.kind == "window"
            and self.tracker.outstanding_count == 0
            and not self.backend.can_send
        ):
            # Dead ACK clock: the ignore-after-halving rule consumed
            # the last in-flight ACK.  With nothing outstanding no ACK
            # can ever come, so restart the clock now instead of
            # waiting for the stall timer (same effect, no idle gap).
            # Rate backends regain credit with time, so they never
            # deadlock here and are left alone.
            self.backend.kick(clear_ignore=True)
        if self.backend.can_send and not had_tokens and self.on_tokens is not None:
            self.on_tokens()
        return AckDigest(outcome.newly_acked, outcome.losses, reacted, in_flight)

    # -- time-RTT (timeouts only) -----------------------------------------------

    def _update_time_rtt(self, newly_acked: list[int]) -> None:
        for seq in newly_acked:
            sent = self._send_times.pop(seq, None)
            if sent is None:
                continue
            sample = self.sim.now - sent
            if self._srtt is None:
                self._srtt = sample
                self._rttvar = sample / 2.0
            else:
                self._rttvar += 0.25 * (abs(sample - self._srtt) - self._rttvar)
                self._srtt += 0.125 * (sample - self._srtt)

    @property
    def srtt(self) -> Optional[float]:
        """Smoothed time-domain RTT (used only for timeouts)."""
        return self._srtt

    @property
    def rto(self) -> Optional[float]:
        """The RFC-style retransmission timeout estimate
        (``srtt + 4 * rttvar``), or ``None`` before the first sample.
        Shared by the stall timer and the liveness watchdog."""
        if self._srtt is None:
            return None
        return self._srtt + 4.0 * self._rttvar

    def _stall_timeout(self) -> float:
        rto = self.rto
        if rto is None:
            return MAX_STALL_TIMEOUT / 4.0
        backoff = 2.0 ** min(self._consecutive_stalls, 3)
        return min(MAX_STALL_TIMEOUT, max(MIN_STALL_TIMEOUT, 2.0 * rto) * backoff)

    # -- stall handling -------------------------------------------------------

    @property
    def idle(self) -> bool:
        """Nothing in flight and sending possible (window backends:
        tokens available; rate backends: pacing will grant credit with
        time): idle, not stalled.  The stall timer and the liveness
        watchdog both stand down on it."""
        return self.tracker.outstanding_count == 0 and (
            self.backend.kind == "rate" or self.backend.can_send
        )

    def _on_stall_timeout(self) -> None:
        if self.closed:
            return
        if self.idle:
            return
        if self.watchdog is not None and self.watchdog.degraded:
            # The liveness watchdog owns recovery in degraded mode: it
            # already restarted at W=T=1 and is probing at the rate
            # floor.  Oscillating through extra stall restarts here
            # would reset its pacing, so just keep the timer armed.
            self._stall_timer.restart(self._stall_timeout())
            return
        self.stalls += 1
        self.restarts += 1
        self._consecutive_stalls += 1
        self.backend.on_timeout(self.sim.now)
        self.tracker.reset()
        self._send_times.clear()
        if self._consecutive_stalls >= ELICIT_AFTER_STALLS:
            # A couple of stalls in a row: the acker is presumed gone,
            # elicit a fake NAK to elect a fresh one (§3.6).
            self.election.clear()
            self.elicit_nak = True
        if self.on_stall is not None:
            self.on_stall()
        if self.on_tokens is not None:
            self.on_tokens()
        self._stall_timer.restart(self._stall_timeout())

    def evict_acker(self) -> Optional[str]:
        """Forcibly unseat the incumbent acker (feedback-guard
        quarantine).  Clears the election, marks the next ODATA to
        elicit fake NAKs so the honest receivers re-elect (§3.6), and
        — because the evicted acker's ACK clock is gone — grants a
        token if the window is empty so the session keeps breathing.
        Returns the evicted receiver id, or None without an incumbent.
        """
        evicted = self.election.current
        if evicted is None:
            return None
        self.election.clear()
        self.elicit_nak = True
        self.acker_evictions += 1
        if not self.backend.can_send:
            self.backend.kick()
            if self.on_tokens is not None:
                self.on_tokens()
        return evicted

    def attach_watchdog(self, watchdog) -> None:
        """Wire in the acker-liveness watchdog (repro.pgm.liveness).
        The controller only calls its ``note_data_sent`` / ``note_ack``
        / ``note_nak`` hooks and reads its ``degraded`` flag, so any
        object with that surface works."""
        self.watchdog = watchdog

    def demote_acker(self) -> Optional[str]:
        """Unseat an acker presumed *dead* (liveness watchdog): clear
        the election, mark the next ODATA to elicit fresh fake NAKs
        (§3.6) and keep the session breathing if the window is blocked.
        Same mechanics as :meth:`evict_acker` but not counted as a
        guard eviction — the receiver is suspected unreachable, not
        misbehaving.  Returns the demoted receiver id (or None)."""
        demoted = self.election.current
        self.election.clear()
        self.elicit_nak = True
        if not self.backend.can_send:
            self.backend.kick()
            if self.on_tokens is not None:
                self.on_tokens()
        return demoted

    def degraded_restart(self) -> None:
        """Watchdog-driven restart at ``W = T = 1`` on entering
        degraded mode: one controlled reset instead of the stall
        timer's backoff oscillation.  Counted in :attr:`restarts` so
        the invariant checker resyncs its in-flight ledger."""
        self.restarts += 1
        self.backend.on_timeout(self.sim.now)
        self.tracker.reset()
        self._send_times.clear()
        self.election.clear()
        self.elicit_nak = True
        if self.on_tokens is not None:
            self.on_tokens()

    def close(self) -> None:
        """Stop timers (end of session)."""
        self.closed = True
        self._stall_timer.cancel()
        if self.watchdog is not None:
            self.watchdog.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SenderController acker={self.current_acker} "
            f"W={self.backend.w:.2f} T={self.backend.tokens:.2f} "
            f"out={self.tracker.outstanding_count}>"
        )
