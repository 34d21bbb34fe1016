"""The PGM sender with pgmcc attached (§3.1, §3.4, §3.6, §3.8).

The sender multicasts ODATA gated by two things only: the pgmcc token
count and the PGM rate limiter (which, with congestion control enabled,
merely caps the session's maximum rate).  NAKs feed the acker election
and trigger repairs; ACKs drive the window controller.

Repairs follow §3.8: RDATA goes out as soon as the NAK arrives,
subject only to the rate limiter — the congestion controller regulates
original data, and as long as the acker really is the slowest receiver
the repair percentage stays low.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Protocol

from ..core.sender_cc import CcConfig, SenderController
from ..simulator.engine import Timer
from ..simulator.node import Host
from ..simulator.packet import Packet
from ..simulator.trace import FlowTrace
from . import constants as C
from .packets import Ack, Nak, Ncf, OData, RData, Spm, decode
from .rate_limiter import TokenBucket

if TYPE_CHECKING:  # pragma: no cover - loaded by the sessions that build them
    from .guard import FeedbackGuard
    from .liveness import LivenessWatchdog


class DataSource(Protocol):
    """Application data feed.

    ``has_data`` gates the pump; ``peek_size`` tells the pump how large
    the next payload would be (for the rate limiter) without consuming
    it; ``next_payload`` consumes and returns (payload_len, bytes).
    """

    def has_data(self) -> bool:  # pragma: no cover - protocol
        ...

    def peek_size(self) -> int:  # pragma: no cover - protocol
        ...

    def next_payload(self) -> tuple[int, bytes]:  # pragma: no cover
        ...


class BulkSource:
    """Infinite bulk transfer (what all the paper's experiments run)."""

    def __init__(self, payload_size: int = C.DEFAULT_PAYLOAD):
        self.payload_size = payload_size

    def has_data(self) -> bool:
        return True

    def peek_size(self) -> int:
        return self.payload_size

    def next_payload(self) -> tuple[int, bytes]:
        return self.payload_size, b""


class FiniteSource:
    """A finite sequence of real payload chunks (file transfer)."""

    def __init__(self, chunks: list[bytes]):
        self._chunks = list(chunks)
        self._next = 0

    def has_data(self) -> bool:
        return self._next < len(self._chunks)

    def peek_size(self) -> int:
        return len(self._chunks[self._next])

    def next_payload(self) -> tuple[int, bytes]:
        chunk = self._chunks[self._next]
        self._next += 1
        return len(chunk), chunk

    @property
    def remaining(self) -> int:
        return len(self._chunks) - self._next


class PgmSender:
    """One PGM/pgmcc source.

    Args:
        host: the simulator host this agent lives on.
        group: multicast group address for the session.
        tsi: transport session identifier.
        cc: pgmcc configuration (``CcConfig(enabled=False)`` gives a
            plain rate-limited PGM sender, §3.1's dynamic disable).
        source: application data source (default: infinite bulk).
        max_rate_bps: the PGM rate limiter setting (session cap).
        reliable: when False (§3.9), NAKs are accepted for their
            reports but no RDATA is ever sent.
        on_token: application feedback hook called at every
            transmission opportunity (§3.9).
        guard: optional :class:`~repro.pgm.guard.FeedbackGuard`; when
            set, every NAK report and ACK is plausibility-checked
            before it may steer the election or clock the window.
            Repairs are never gated by the guard.
    """

    #: answer a sequence (NCF and RDATA) at most once within this
    #: window — the source-side analogue of NE NAK elimination, needed
    #: when many receivers NAK the same loss without NEs in the path.
    RDATA_HOLDOFF = 0.5

    def __init__(
        self,
        host: Host,
        group: str,
        tsi: int,
        cc: Optional[CcConfig] = None,
        source: Optional[DataSource] = None,
        max_rate_bps: Optional[float] = None,
        reliable: bool = True,
        on_token: Optional[Callable[[float], None]] = None,
        spm_ivl: float = C.SPM_IVL,
        payload_size: int = C.DEFAULT_PAYLOAD,
        guard: Optional[FeedbackGuard] = None,
    ):
        self.host = host
        self.sim = host.sim
        self.group = group
        self.tsi = tsi
        self.source = source if source is not None else BulkSource(payload_size)
        self.reliable = reliable
        #: the one record of every protocol edge (pgm.telemetry.read_log):
        #: "start"/"close", "data"/"rdata", "nak", "ack" (nbytes 1: clean,
        #: new data acked and no loss reaction), "window", "cc-loss",
        #: "stall", "acker-switch"/"acker-evict", watchdog "liveness-*"
        self.trace = FlowTrace()
        self.on_token = on_token
        if (cc is not None and not cc.enabled) and max_rate_bps is None:
            # A plain PGM sender transmits at a pre-set rate (§3.1);
            # with neither congestion control nor a rate limiter there
            # is nothing to pace transmissions and the pump would spin.
            raise ValueError(
                "congestion control disabled requires max_rate_bps "
                "(plain PGM senders transmit at a pre-set rate, §3.1)"
            )
        self.limiter = TokenBucket(max_rate_bps)
        self.controller = SenderController(
            self.sim, cc or CcConfig(), on_tokens=self._pump, on_stall=self._log_stall
        )
        self.next_seq = 0
        self.trail = 0
        #: repair store: seq -> (payload_len, payload, last RDATA time or -1e9)
        self._tx_window: dict[int, tuple[int, bytes, float]] = {}
        self._tx_window_capacity = C.TX_WINDOW_PACKETS
        self._spm_seq = 0
        self._spm_ivl = spm_ivl
        self._spm_timer = Timer(self.sim, self._send_spm)
        self._pump_timer = Timer(self.sim, self._pump)
        self._started = False
        self._closed = False
        #: optional acker-liveness watchdog (cc.liveness, DESIGN.md §8)
        self.watchdog: Optional[LivenessWatchdog] = None
        cc_config = self.controller.config
        if cc_config.enabled and cc_config.liveness:
            from .liveness import LivenessWatchdog

            self.watchdog = LivenessWatchdog(
                self.sim,
                self.controller,
                on_probe=self._liveness_probe,
                trace=self.trace,
            )
            self.controller.attach_watchdog(self.watchdog)
        # statistics
        self.guard = guard
        self.odata_sent = 0
        self.rdata_sent = 0
        self.naks_received = 0
        self.ncfs_sent = 0
        self.acks_received = 0
        self.bytes_sent = 0
        self.malformed_dropped = 0
        self.insane_dropped = 0
        self.guard_acks_blocked = 0
        self.guard_naks_blocked = 0
        #: NAKs reaching the source, by reporting receiver — shows how
        #: NE suppression skews the report stream (Fig. 6 discussion).
        self.nak_origins: dict[str, int] = {}
        host.register_agent(C.PROTO, self)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise RuntimeError("sender already started")
        self._started = True
        self.trace.log(self.sim.now, "start", self.next_seq)
        self._send_spm()
        self._pump()

    def close(self) -> None:
        self._closed = True
        self._spm_timer.cancel()
        self._pump_timer.cancel()
        self.controller.close()
        self.trace.log(self.sim.now, "close", self.next_seq)

    # -- transmit pump -----------------------------------------------------------

    def _pump(self) -> None:
        """Send ODATA while the controller, rate budget and app data
        allow.  ``controller.send_delay()`` distinguishes window
        backends (0.0 = token available, None = blocked until feedback)
        from rate backends (a positive delay = paced; re-arm the pump
        timer and come back)."""
        if not self._started or self._closed:
            return
        while self.source.has_data():
            cc_delay = self.controller.send_delay()
            if cc_delay is None:
                return  # window-blocked: feedback will wake the pump
            if cc_delay > 0:
                self._pump_timer.restart(cc_delay)
                return
            probe = OData(
                self.tsi,
                self.next_seq,
                self.trail,
                self.source.peek_size(),
                acker_id=self.controller.current_acker,
            )
            size = probe.wire_size()
            delay = self.limiter.delay_until_available(size, self.sim.now)
            if delay > 0:
                self._pump_timer.restart(delay)
                return
            self.limiter.try_consume(size, self.sim.now)
            payload_len, payload = self.source.next_payload()
            self._send_odata(payload_len, payload)

    def _send_odata(self, payload_len: int, payload: bytes) -> None:
        seq = self.next_seq
        self.next_seq += 1
        elicit = self.controller.register_data(seq)
        odata = OData(
            self.tsi,
            seq,
            self.trail,
            payload_len,
            timestamp=self.sim.now,
            acker_id=self.controller.current_acker,
            elicit_nak=elicit,
            payload=payload,
        )
        window = self._tx_window
        window[seq] = (payload_len, payload, -1e9)
        if len(window) > self._tx_window_capacity:
            # The window holds exactly [trail, seq]: the stale keys are
            # the ones the trail steps over, one delete per ODATA, no scan.
            trail = seq - self._tx_window_capacity + 1
            for old in range(self.trail, trail):
                del window[old]
            self.trail = trail
        self.host.send(
            Packet(self.host.name, self.group, odata.wire_size(), odata, C.PROTO)
        )
        self.odata_sent += 1
        self.bytes_sent += payload_len
        self.trace.log(self.sim.now, "data", seq, payload_len)
        if self.on_token is not None:
            self.on_token(self.sim.now)

    # -- receive path ---------------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        if self._closed:
            return
        msg = packet.payload
        if isinstance(msg, (bytes, bytearray)):
            # Mangled links deliver raw bytes; a decode failure models
            # a checksum-rejected frame at this host.
            try:
                msg = decode(bytes(msg))
            except ValueError:
                self.malformed_dropped += 1
                return
            if not self._sane(msg):
                self.insane_dropped += 1
                return
        if isinstance(msg, Nak) and msg.tsi == self.tsi:
            self._handle_nak(msg)
        elif isinstance(msg, Ack) and msg.tsi == self.tsi:
            self._handle_ack(msg)
        # SPM/NCF/data addressed to us are not expected; ignore.

    def _sane(self, msg) -> bool:
        """Field-sanity gate for wire-decoded feedback: an honest
        receiver can never reference a sequence we have not sent (a
        decodable packet with a bit flip in a seq field must not feed
        the controller impossible values)."""
        last = self.controller.last_tx_seq
        if isinstance(msg, Nak):
            return msg.seq <= last and msg.report.rxw_lead <= last
        if isinstance(msg, Ack):
            return msg.ack_seq <= last and msg.report.rxw_lead <= last
        return True

    def _handle_nak(self, nak: Nak) -> None:
        self.naks_received += 1
        rx = nak.report.rx_id
        self.nak_origins[rx] = self.nak_origins.get(rx, 0) + 1
        self.trace.log(self.sim.now, "nak", nak.seq)
        allow_control = True
        allow_repair = True
        if self.guard is not None:
            verdict = self.guard.on_nak(
                nak.report, self.controller.last_tx_seq,
                requests_repair=not nak.fake,
            )
            if verdict.newly_quarantined:
                self._maybe_evict(rx)
            allow_control = verdict.allow_control
            allow_repair = not verdict.drop
            if not allow_control:
                self.guard_naks_blocked += 1
        if allow_control and self.controller.on_nak(nak.report):
            self.trace.log(self.sim.now, "acker-switch", nak.seq)
        # A NAK whose sequence's RDATA left less than RDATA_HOLDOFF ago is
        # answered by that RDATA; any other is confirmed downstream so
        # other receivers suppress theirs.  Repairs flow even for
        # quarantined receivers (quarantine removes control, never
        # reliability), but not past the honest §3.8 repair budget.
        if self._held_off(nak.seq):
            return
        ncf = Ncf(self.tsi, nak.seq)
        self.host.send(Packet(self.host.name, self.group, 64, ncf, C.PROTO))
        self.ncfs_sent += 1
        if nak.fake or not self.reliable or not allow_repair:
            return
        for seq in nak.all_seqs():
            self._maybe_repair(seq)

    def _maybe_evict(self, rx_id: str) -> None:
        """A receiver just entered quarantine: if it holds ackership,
        unseat it and let the honest group re-elect (§3.6 machinery)."""
        if self.controller.current_acker == rx_id:
            evicted = self.controller.evict_acker()
            if evicted is not None:
                self.trace.log(self.sim.now, "acker-evict", self.next_seq)

    def _held_off(self, seq: int) -> bool:
        entry = self._tx_window.get(seq)
        return entry is not None and self.sim.now - entry[2] < self.RDATA_HOLDOFF

    def _maybe_repair(self, seq: int) -> None:
        entry = self._tx_window.get(seq)
        if entry is None or self._held_off(seq):
            return  # beyond the trail, or repaired within the hold-off
        if self.watchdog is not None and not self.watchdog.allow_repair():
            return  # degraded mode: bounded repair budget exhausted
        payload_len, payload, _ = entry
        rdata = RData(self.tsi, seq, self.trail, payload_len, self.sim.now, payload)
        size = rdata.wire_size()
        # §3.8: repairs go out as soon as the NAK arrives, subject only
        # to the rate limiter.
        delay = self.limiter.delay_until_available(size, self.sim.now)
        if delay > 0:
            self.sim.schedule(delay, self._send_rdata, rdata)
        else:
            self.limiter.try_consume(size, self.sim.now)
            self._send_rdata(rdata)
        self._tx_window[seq] = (payload_len, payload, self.sim.now)

    def _send_rdata(self, rdata: RData) -> None:
        if self._closed:
            return
        self.host.send(
            Packet(self.host.name, self.group, rdata.wire_size(), rdata, C.PROTO)
        )
        self.rdata_sent += 1
        self.trace.log(self.sim.now, "rdata", rdata.seq, rdata.payload_len)

    #: log a "window" trace record every this many ACKs (the cwnd
    #: sawtooth view; seq carries W in hundredths of a packet)
    WINDOW_SAMPLE_EVERY = 25

    def _handle_ack(self, ack: Ack) -> None:
        self.acks_received += 1
        if self.guard is not None:
            verdict = self.guard.on_ack(
                ack.ack_seq, ack.bitmask, ack.report, self.controller.last_tx_seq
            )
            if verdict.newly_quarantined:
                self._maybe_evict(ack.report.rx_id)
            if verdict.drop or not verdict.allow_control:
                self.guard_acks_blocked += 1
                return
        digest = self.controller.on_ack(ack.ack_seq, ack.bitmask, ack.report)
        clean = not digest.reacted and len(digest.newly_acked) > 0
        self.trace.log(self.sim.now, "ack", ack.ack_seq, int(clean))
        if digest.reacted or self.acks_received % self.WINDOW_SAMPLE_EVERY == 0:
            self.trace.log(
                self.sim.now, "window", int(self.controller.window.w * 100)
            )
        if digest.reacted:
            self.trace.log(self.sim.now, "cc-loss", ack.ack_seq)
        self._pump()

    # -- SPM heartbeat ------------------------------------------------------

    def _send_spm(self) -> None:
        if self._closed:
            return
        spm = Spm(self.tsi, self._spm_seq, self.trail, max(self.next_seq - 1, 0),
                  path=self.host.name)
        self._spm_seq += 1
        self.host.send(Packet(self.host.name, self.group, 64, spm, C.PROTO))
        self._spm_timer.restart(self._spm_ivl)

    def _log_stall(self) -> None:
        self.trace.log(self.sim.now, "stall", self.next_seq)

    # -- liveness watchdog ---------------------------------------------------

    def _liveness_probe(self) -> None:
        """Watchdog probe: push one elicit-marked packet toward the
        group so a surviving receiver can fake-NAK its way into the
        acker seat (§3.6).  Goes through the normal pump so window,
        token and rate-limiter accounting all hold."""
        if self._closed or not self._started:
            return
        self.controller.elicit_nak = True
        if not self.controller.backend.can_send:
            self.controller.backend.kick()
        self._pump()

    # -- introspection -----------------------------------------------------

    @property
    def current_acker(self) -> Optional[str]:
        return self.controller.current_acker

    @property
    def acker_switches(self) -> int:
        return self.controller.election.switch_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PgmSender tsi={self.tsi} sent={self.odata_sent} "
            f"acker={self.current_acker}>"
        )
