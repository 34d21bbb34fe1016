"""The PGM receiver with pgmcc attached (§3.2, §3.3, §3.6).

Receivers detect losses from sequence gaps, run the low-pass loss
filter, and send NAKs carrying their report after a randomised backoff
(the classic feedback-suppression technique).  NCFs — from network
elements or from the source — cancel pending NAKs; if the repair then
fails to arrive within ``NAK_RDATA_IVL`` the receiver re-NAKs.

When a data packet names this receiver as the acker, it unicasts an
ACK to the source for that packet (original transmissions only, never
repairs), carrying ``ack_seq``, the 32-bit receive bitmap and its
report.

When the elicit-NAK mark is seen (first packet of a session or
post-stall restart, §3.6) the receiver answers with a *fake* NAK: a
report-only NAK for a packet it actually received, seeding the acker
election without requesting a repair.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from ..core.receiver_cc import ReceiverController
from ..core.loss_filter import DEFAULT_W
from ..simulator.engine import Timer
from ..simulator.node import Host
from ..simulator.packet import Packet
from ..telemetry.instruments import Histogram
from . import constants as C
from .packets import Ack, Nak, Ncf, OData, RData, Spm, decode

if TYPE_CHECKING:  # pragma: no cover - loaded by the sessions that attack
    from .misbehavior import Activation


def min_of_uniforms(u: float, k: int, bound: float) -> float:
    """The minimum of ``k`` iid U(0, bound) draws, from one uniform
    ``u`` through the order-statistic inverse CDF
    ``bound * (1 - (1 - u)**(1/k))``.  Monotone in ``u``, so the
    minimum over several ``u`` maps to the minimum of their images."""
    return bound * (1.0 - (1.0 - u) ** (1.0 / k))


@dataclass
class _NakState:
    """Per-missing-sequence NAK state machine.

    States: BACKOFF (timer running before first/again NAK) ->
    AWAIT_NCF (NAK sent, waiting for confirmation; retry on timer) ->
    CONFIRMED (NCF seen, waiting for RDATA; re-NAK on timer).
    PACED: the NAK fell due inside the §3.8 storm window; the gap sits
    on the receiver's waiting list with no timer of its own until the
    pacer serves it (or the storm ends and it gets its timer back).
    """

    seq: int
    timer: Timer
    state: str = "BACKOFF"
    attempts: int = 0
    #: sim time the gap was detected — anchors the repair-latency
    #: histogram (gap-open to RDATA arrival, the NAK round-trip)
    opened: float = 0.0


class PgmReceiver:
    """One PGM/pgmcc receiver.

    Args:
        host: simulator host (must be subscribed to ``group``).
        group: session multicast group.
        tsi: transport session id.
        source_addr: unicast address of the PGM source.
        rx_id: report identity; defaults to the host name.
        reliable: when False (§3.9) the receiver reports losses but
            expects no repairs (one NAK per loss, no retry loop).
        deliver: callback ``(seq, payload_len, payload)`` invoked in
            order for reliable sessions, or immediately in unreliable
            ones.
        echo_timestamps: include corrected timestamp echoes in reports
            (time-based RTT ablation only).
        estimator: "filter" (paper) or "tfrc" loss measurement.
        recover_history: on joining mid-session, NAK backwards from
            the sender's advertised trail to recover earlier data (the
            PGM option §3.8 names as a NAK-storm source).
        storm_threshold / storm_spacing: NAK pacing (§3.8): when more
            than ``storm_threshold`` repairs are pending, consecutive
            NAK transmissions are spaced at least ``storm_spacing``
            seconds apart.  A NAK that falls due sooner than
            ``storm_spacing`` after the last one joins a waiting list
            served by one pacer timer: after each NAK the next leaves
            at ``last + storm_spacing + min of k U(0, storm_spacing)``
            for the k waiting gaps, and goes to one of them chosen
            uniformly.  A gap that joins mid-round with an earlier
            draw of its own takes the round; once no more than
            ``storm_threshold`` repairs are pending, each waiting gap
            gets its own timer back.
    """

    def __init__(
        self,
        host: Host,
        group: str,
        tsi: int,
        source_addr: str,
        rx_id: Optional[str] = None,
        reliable: bool = True,
        filter_w: int = DEFAULT_W,
        deliver: Optional[Callable[[int, int, bytes], None]] = None,
        echo_timestamps: bool = False,
        rng: Optional[random.Random] = None,
        nak_bo_ivl: float = C.NAK_BO_IVL,
        nak_rpt_ivl: float = C.NAK_RPT_IVL,
        nak_rdata_ivl: float = C.NAK_RDATA_IVL,
        nak_max_retries: int = C.NAK_MAX_RETRIES,
        estimator: str = "filter",
        recover_history: bool = False,
        history_limit: int = 1024,
        storm_threshold: int = 32,
        storm_spacing: float = 0.02,
        telemetry=None,
    ):
        self.host = host
        self.sim = host.sim
        self.group = group
        self.tsi = tsi
        self.source_addr = source_addr
        self.rx_id = rx_id if rx_id is not None else host.name
        self.reliable = reliable
        self.deliver = deliver
        self.echo_timestamps = echo_timestamps
        if rng is None:
            # str.hash() is salted per process; derive a stable seed so
            # receivers behave identically run to run.
            import zlib

            rng = random.Random(zlib.crc32(self.rx_id.encode("utf-8")))
        self.rng = rng
        self.nak_bo_ivl = nak_bo_ivl
        self.nak_rpt_ivl = nak_rpt_ivl
        self.nak_rdata_ivl = nak_rdata_ivl
        self.nak_max_retries = nak_max_retries

        self.cc = ReceiverController(self.rx_id, filter_w, estimator=estimator)
        self.recover_history = recover_history
        self.history_limit = history_limit
        self.storm_threshold = storm_threshold
        self.storm_spacing = storm_spacing
        self._last_nak_time = -1e9
        #: PACED gaps in the order they fell due (a dict for O(1)
        #: removal; never iterated as a set), the one pacer timer that
        #: serves them, and the gap the armed round was drawn for
        self._paced: dict[int, None] = {}
        self._pacer = Timer(self.sim, self._pace_tick)
        self._pace_winner: Optional[int] = None
        self._repair_hist = (
            telemetry.histogram("repair.latency_s")
            if telemetry is not None else Histogram("repair.latency_s")
        )
        self._nak_states: dict[int, _NakState] = {}
        self._closed = False
        #: active misbehaviours, by kind (normally empty — filed here by
        #: the ``start`` of a :mod:`repro.pgm.misbehavior` episode)
        self.behaviors: dict[str, Activation] = {}
        #: in-order delivery state (reliable mode)
        self._pending_delivery: dict[int, tuple[int, bytes]] = {}
        self._next_deliver = 0
        #: where in-order delivery started (set by the first ODATA):
        #: data below it was sent before this receiver joined
        self._anchor = 0
        self._abandoned: set[int] = set()
        # statistics
        self.odata_received = 0
        self.rdata_received = 0
        self.naks_sent = 0
        self.fake_naks_sent = 0
        self.acks_sent = 0
        self.ncfs_received = 0
        self.naks_suppressed_by_ncf = 0
        self.repairs_abandoned = 0
        self.delivered = 0
        self.spms_received = 0
        self.tail_loss_detections = 0
        self.malformed_dropped = 0
        self.insane_dropped = 0
        self.unrecoverable_data_loss = 0
        #: live-edge rejoins after a gap outlived the repair horizon
        self.resyncs = 0
        self.acks_suppressed = 0
        self.naks_suppressed = 0
        self.acks_replayed = 0
        self._last_spm_lead = -1
        host.register_agent(C.PROTO, self)

    # -- receive dispatch ---------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        if self._closed:
            return
        msg = packet.payload
        kind = type(msg)
        if kind is bytes or kind is bytearray:
            # Mangled links deliver raw bytes; a decode failure models
            # a checksum-rejected frame at this host.
            try:
                msg = decode(bytes(msg))
            except ValueError:
                self.malformed_dropped += 1
                return
            if msg.tsi == self.tsi and not self._sane(msg):
                # Decoded fine but carries fields no honest sender emits
                # (a bit flip landed in seq/trail/lead): treat as corrupt.
                # Judged against our own window, so ours only.
                self.insane_dropped += 1
                return
            kind = type(msg)
        if kind is OData:
            if msg.tsi == self.tsi:
                self._handle_data(msg, is_repair=False)
        elif kind is Ncf:
            if msg.tsi == self.tsi:
                self._handle_ncf(msg)
        elif kind is RData:
            if msg.tsi == self.tsi:
                self._handle_data(msg, is_repair=True)
        elif kind is Spm:
            if msg.tsi == self.tsi:
                self._handle_spm(msg)
        # ACKs are unicast to the source; receivers never see them.

    #: widest credible jump ahead of our window for wire-decoded
    #: sequence fields — anything further is a corrupted field, not
    #: data (an honest sender cannot outrun its own transmit window).
    _SANITY_HORIZON = 4 * C.TX_WINDOW_PACKETS

    def _sane(self, msg) -> bool:
        lead = max(self.cc.rxw_lead, 0)
        if isinstance(msg, (OData, RData)):
            return msg.trail <= msg.seq and msg.seq - lead <= self._SANITY_HORIZON
        if isinstance(msg, Spm):
            return msg.trail <= msg.lead and msg.lead - lead <= self._SANITY_HORIZON
        return True

    # -- data path -----------------------------------------------------------

    def _handle_data(self, msg, is_repair: bool) -> None:
        if is_repair:
            self.rdata_received += 1
        else:
            self.odata_received += 1
        if self.cc.rxw_lead < 0:
            # The first ODATA anchors in-order delivery (a repair is for
            # data sent before this receiver joined) — unless the
            # application asked to recover the session's history.
            if is_repair:
                return
            if self.recover_history:
                start = max(msg.trail, msg.seq - self.history_limit)
                self._next_deliver = start
                for missing in range(start, msg.seq):
                    self._open_nak_state(missing)
            else:
                self._next_deliver = msg.seq
            self._anchor = self._next_deliver
        elif msg.seq < self._anchor:
            return  # data sent before the join, reaching us after it
        elif (
            not is_repair
            and msg.trail > self.cc.rxw_lead + 1
            and msg.seq - 1 > self.cc.rxw_lead
        ):
            # The sender's trail moved past our window while we were
            # partitioned: everything between our lead and the trail is
            # unrepairable, and NAK-storming for the rest of the gap
            # would only thrash.  Rejoin at the live edge instead
            # (late-join semantics, §3.8's bounded-recovery corollary).
            self._resync(msg.seq - 1)
        outcome = self.cc.on_data(msg.seq, self.sim.now, msg.timestamp)

        # Any arrival of the sequence quenches its NAK machinery; a
        # repair arriving for an open gap closes one NAK round-trip.
        state = self._nak_states.pop(msg.seq, None)
        if state is not None:
            self._retire(msg.seq, state)
            if is_repair:
                self._repair_hist.observe(self.sim.now - state.opened)
        for gap in outcome.new_gaps:
            self._open_nak_state(gap)

        if not outcome.duplicate:
            self._deliver(msg.seq, msg.payload_len, msg.payload)

        if is_repair:
            return
        # ODATA-only behaviour: ACK if we are the acker, fake-NAK if marked.
        if msg.acker_id == self.rx_id:
            self._send_ack(msg.seq)
        if msg.elicit_nak:
            self._send_fake_nak(msg.seq)

    def _deliver(self, seq: int, payload_len: int, payload: bytes) -> None:
        if self.deliver is None:
            self.delivered += 1
            return
        if not self.reliable:
            self.delivered += 1
            self.deliver(seq, payload_len, payload)
            return
        if seq < self._next_deliver:
            return  # delivery moved past it: abandoned, resynced, overtaken
        self._pending_delivery[seq] = (payload_len, payload)
        self._deliver_advance()

    def _deliver_advance(self) -> None:
        """Deliver held data in order, stepping over each abandoned
        sequence as the walk reaches it."""
        while True:
            if self._next_deliver in self._pending_delivery:
                plen, pay = self._pending_delivery.pop(self._next_deliver)
                self.deliver(self._next_deliver, plen, pay)
                self.delivered += 1
                self._next_deliver += 1
            elif self._next_deliver in self._abandoned:
                self._abandoned.discard(self._next_deliver)
                self._next_deliver += 1
            else:
                break

    # -- NAK state machine ----------------------------------------------------

    def _open_nak_state(self, seq: int) -> None:
        if seq in self._nak_states:
            return
        state = _NakState(
            seq,
            Timer(self.sim, lambda s=seq: self._nak_timer_fired(s)),
            opened=self.sim.now,
        )
        self._nak_states[seq] = state
        state.timer.start(self._backoff_delay(seq))

    def _drop_nak_state(self, seq: int) -> None:
        state = self._nak_states.pop(seq, None)
        if state is not None:
            self._retire(seq, state)

    def _retire(self, seq: int, state: _NakState) -> None:
        """Stop a gap that left ``_nak_states`` (the storm may end with it)."""
        if state.state == "PACED":
            self._unpace(seq, state)
        else:
            state.timer.cancel()
        if self._paced and len(self._nak_states) <= self.storm_threshold:
            self._end_storm()

    def _clear_nak_states(self) -> None:
        for state in self._nak_states.values():
            state.timer.cancel()
        self._nak_states.clear()
        self._paced.clear()
        self._pacer.cancel()

    def _nak_timer_fired(self, seq: int) -> None:
        state = self._nak_states.get(seq)
        if state is None:
            return
        if state.state == "CONFIRMED":
            # NCF seen but the repair never arrived: start over.
            state.state = "BACKOFF"
            state.timer.restart(self._backoff_delay(seq))
            return
        # BACKOFF or AWAIT_NCF: the NAK is due.
        if (state.attempts < self.nak_max_retries
                and len(self._nak_states) > self.storm_threshold):
            # §3.8 NAK-storm pacing: with many repairs pending, space
            # NAK transmissions out instead of bursting them.
            wait = self._last_nak_time + self.storm_spacing - self.sim.now
            if wait > 0:
                self._pace(seq, state, wait)
                return
        self._nak_due(seq, state)

    def _nak_due(self, seq: int, state: _NakState) -> None:
        """(Re)send ``seq``'s NAK now, or abandon it at the attempt cap."""
        if state.attempts >= self.nak_max_retries:
            self._abandon(seq, exhausted=True)
            return
        state.attempts += 1
        self._send_nak(seq)
        if self.reliable:
            state.state = "AWAIT_NCF"
            state.timer.restart(self.nak_rpt_ivl)
        else:
            # Report-only mode: one NAK per loss event, no repair loop.
            self._drop_nak_state(seq)

    # -- §3.8 storm pacer ----------------------------------------------------
    # One timer serves every gap whose NAK fell due inside the spacing
    # window.  A round is one draw for the whole list — the earliest of
    # the k waiting gaps' jitters and a uniformly chosen winner — which
    # is, in distribution, what k per-gap timers each re-armed at
    # ``last + spacing + U(0, spacing)`` would produce.

    def _pace(self, seq: int, state: _NakState, wait: float) -> None:
        """Put a due gap on the waiting list; its own draw takes the
        round when it beats the armed one (or no round is armed)."""
        state.state = "PACED"
        self._paced[seq] = None
        delay = wait + self._storm_jitter(1)
        pacer = self._pacer
        expiry = pacer.expiry
        if expiry is None or self.sim.now + delay < expiry:
            pacer.restart(delay)
            self._pace_winner = seq

    def _unpace(self, seq: int, state: _NakState) -> None:
        """Take ``seq`` off the waiting list; the pacer stops with it."""
        del self._paced[seq]
        state.state = "BACKOFF"
        if not self._paced:
            self._pacer.cancel()

    def _end_storm(self) -> None:
        """No more than ``storm_threshold`` repairs are pending: every
        waiting gap gets its own timer back, due within one spacing as
        its re-armed timer would have been."""
        for waiting in self._paced:
            state = self._nak_states[waiting]
            state.state = "BACKOFF"
            state.timer.start(self._storm_jitter(1))
        self._paced.clear()
        self._pacer.cancel()

    def _any_paced(self) -> int:
        """A waiting gap chosen uniformly."""
        paced = self._paced
        return next(itertools.islice(paced, self.rng.randrange(len(paced)), None))

    def _draw_round(self) -> None:
        """Arm the pacer for the next NAK out of the waiting list."""
        wait = max(self._last_nak_time + self.storm_spacing - self.sim.now, 0.0)
        self._pacer.start(wait + self._storm_jitter(len(self._paced)))
        self._pace_winner = self._any_paced()

    def _pace_tick(self) -> None:
        # The list is non-empty and the storm still on: whatever empties
        # the list or ends the storm also stops the pacer.
        if self._last_nak_time + self.storm_spacing > self.sim.now:
            # A NAK outside the round left since the draw: every
            # waiting gap draws again from the new window.
            self._draw_round()
            return
        seq = self._pace_winner
        if seq not in self._paced:
            # The winner was repaired or confirmed before its tick.
            seq = self._any_paced()
        state = self._nak_states[seq]
        self._unpace(seq, state)
        self._nak_due(seq, state)
        if self._paced:
            self._draw_round()

    def _abandon(self, seq: int, exhausted: bool = False) -> None:
        self._drop_nak_state(seq)
        self.repairs_abandoned += 1
        if exhausted:
            # NAK_MAX_RETRIES spent with no repair: the data is gone
            # for good, and the application deserves to know (§3.8's
            # bounded-recovery corollary).
            self.unrecoverable_data_loss += 1
        self._abandoned.add(seq)
        # Unblock in-order delivery past the permanently missing packet.
        self._deliver_advance()

    def _resync(self, live_lead: int) -> None:
        """Rejoin the session at ``live_lead`` after a gap the sender
        can no longer repair (partition heal, resumed after the repair
        horizon passed).  All pending NAK machinery is dropped — no
        post-heal NAK storm — the skipped span is recorded as
        ``unrecoverable_data_loss``, and in-order delivery restarts at
        the live edge, salvaging any already-received packets below it
        on the way out."""
        self.resyncs += 1
        self._clear_nak_states()
        skipped = self.cc.resync(live_lead)
        if self.reliable and self.deliver is not None:
            lost = 0
            for seq in range(self._next_deliver, live_lead + 1):
                entry = self._pending_delivery.pop(seq, None)
                if entry is not None:
                    self.deliver(seq, entry[0], entry[1])
                    self.delivered += 1
                elif seq in self._abandoned:
                    self._abandoned.discard(seq)
                else:
                    lost += 1
            self._next_deliver = live_lead + 1
            self.unrecoverable_data_loss += lost
        else:
            self.unrecoverable_data_loss += skipped

    def _handle_spm(self, spm: Spm) -> None:
        """SPM window bookkeeping.

        The advertised ``trail`` marks the oldest sequence the sender
        can still repair: pending NAK state below it is abandoned and
        in-order delivery unblocked past the permanently lost data.
        The advertised ``lead`` exposes *tail losses* — packets at the
        end of a burst that no later ODATA will reveal; two
        consecutive SPMs agreeing on a lead beyond what was received
        (so in-flight data has had time to arrive) trigger NAKs.
        A trail that moved past our whole window (partition heal)
        triggers a live-edge resync off the lead advertisement instead
        of the per-sequence abandon path.
        """
        self.spms_received += 1
        if (
            self.cc.rxw_lead >= 0
            and spm.trail > self.cc.rxw_lead + 1
            and spm.lead > self.cc.rxw_lead
        ):
            self._resync(spm.lead)
        for seq in [s for s in self._nak_states if s < spm.trail]:
            self._abandon(seq)
        if self.reliable and self.deliver is not None and spm.trail > self._next_deliver:
            for seq in range(self._next_deliver, spm.trail):
                if seq not in self._pending_delivery:
                    self._abandoned.add(seq)
            self._deliver_advance()
        if (
            self.cc.rxw_lead >= 0
            and spm.lead > self.cc.rxw_lead
            and spm.lead == self._last_spm_lead
        ):
            for missing in range(self.cc.rxw_lead + 1, spm.lead + 1):
                self._open_nak_state(missing)
            self.tail_loss_detections += 1
        self._last_spm_lead = spm.lead

    def _handle_ncf(self, ncf: Ncf) -> None:
        self.ncfs_received += 1
        state = self._nak_states.get(ncf.seq)
        if state is None:
            return
        if state.state in ("BACKOFF", "AWAIT_NCF", "PACED"):
            if state.state == "PACED":
                self._unpace(ncf.seq, state)
            self.naks_suppressed_by_ncf += 1
            state.state = "CONFIRMED"
            state.timer.restart(self.nak_rdata_ivl)

    # -- feedback transmission ----------------------------------------------

    def _report(self, context: str = "nak"):
        report = self.cc.report(include_timestamp=self.echo_timestamps, now=self.sim.now)
        if self.behaviors:
            for act in self.behaviors.values():
                report = act.episode.mutate_report(act, report, context)
        return report

    def _send_nak(self, seq: int, fake: bool = False) -> None:
        if self._closed:
            return
        if self.behaviors:
            for act in self.behaviors.values():
                if act.episode.suppress_nak(act, seq, fake):
                    self.naks_suppressed += 1
                    return
        nak = Nak(self.tsi, seq, self._report(), fake=fake)
        self.host.send(
            Packet(self.host.name, self.source_addr, nak.wire_size(), nak, C.PROTO)
        )
        self._last_nak_time = self.sim.now
        if fake:
            self.fake_naks_sent += 1
        else:
            self.naks_sent += 1

    def _send_fake_nak(self, seq: int) -> None:
        # Small jitter so co-located receivers do not synchronise.
        self.sim.schedule(self._fake_jitter(seq), self._send_nak, seq, True)

    # -- randomised-delay hooks ---------------------------------------------
    # All feedback-suppression draws go through these three methods (one
    # rng draw each, so runs are draw-for-draw identical to the inlined
    # form).  repro.pgm.aggregate's TailProxy overrides them to draw the
    # *minimum over its modeled tail* instead of a single receiver's.

    def _backoff_delay(self, seq: int) -> float:
        """NAK backoff for ``seq`` (gap open and CONFIRMED restart)."""
        return self.rng.uniform(0, self.nak_bo_ivl)

    def _fake_jitter(self, seq: int) -> float:
        """Desynchronisation jitter before an elicited fake NAK."""
        return self.rng.uniform(0, self.nak_bo_ivl / 4)

    def _storm_jitter(self, k: int) -> float:
        """Extra spacing jitter in the §3.8 NAK-storm pacing regime: the
        earliest of ``k`` waiting gaps' U(0, storm_spacing) draws."""
        return min_of_uniforms(self.rng.random(), k, self.storm_spacing)

    def _send_ack(self, ack_seq: int) -> None:
        if self._closed:
            return
        bitmap = self.cc.ack_bitmap(ack_seq)
        if self.behaviors:
            for act in self.behaviors.values():
                if act.episode.suppress_ack(act, ack_seq):
                    self.acks_suppressed += 1
                    return
            for act in self.behaviors.values():
                bitmap = act.episode.mutate_bitmap(act, ack_seq, bitmap)
        ack = Ack(self.tsi, ack_seq, bitmap, self._report("ack"))
        self.host.send(
            Packet(self.host.name, self.source_addr, ack.wire_size(), ack, C.PROTO)
        )
        self.acks_sent += 1
        if self.behaviors:
            for act in self.behaviors.values():
                act.episode.on_ack_sent(act, ack)

    # -- introspection -----------------------------------------------------

    @property
    def loss_rate(self) -> float:
        return self.cc.loss_rate

    @property
    def rxw_lead(self) -> int:
        return self.cc.rxw_lead

    def close(self) -> None:
        self._closed = True
        self._clear_nak_states()
        for act in list(self.behaviors.values()):
            act.episode.stop(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PgmReceiver {self.rx_id} lead={self.rxw_lead} "
            f"loss={self.loss_rate:.4f} acks={self.acks_sent}>"
        )
