"""PGM packet formats, including the pgmcc options of Fig. 1.

Inside the simulator, packets carry these dataclasses directly (fast
path); ``pack``/``unpack`` provide true byte-level codecs for every
type so the Fig. 1 formats are real and round-trip tested (EXP-F1).

Wire layout (network byte order)::

    common header (16 B): magic 'P' | type u8 | options_len u16 |
                          tsi u64 | checksum u32

The checksum is CRC-32 over the whole frame (checksum field zeroed),
written by ``pack`` and verified by ``decode`` — any bit flip in
transit turns into a :class:`ValueError` at the first PGM ingress.

    SPM:   spm_seq u32 | trail u32 | lead u32 | path str8
    ODATA: seq u32 | trail u32 | tstamp f64 | payload_len u16 |
           [acker option] | payload
    RDATA: same fixed part as ODATA (no acker option)
    NAK:   seq u32 | flags u8 | nseqs u8 | extra seqs u32* |
           [report option]
    NCF:   seq u32
    ACK:   ack_seq u32 | bitmask u32 | [report option]

Options are TLVs (type u8, length u8, value).  ``str8`` is a u8 length
prefix followed by UTF-8 bytes.  The grey areas of Fig. 1 — rx_id,
rxw_lead, rx_loss on NAKs; the same plus ack_seq and bitmask on ACKs;
acker_id on ODATA — map to OPT_CC_FEEDBACK and OPT_CC_ACKER below.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional

from ..core.reports import ReceiverReport
from . import constants as C

MAGIC = 0x50  # 'P'

#: byte offset of the checksum word inside the common header (the
#: header's trailing u32, Fig. 1's reserved area)
_CRC_OFFSET = C.HEADER_SIZE - 4
_CRC_ZERO = b"\x00\x00\x00\x00"


def _seal(raw: bytes) -> bytes:
    """Write the frame checksum into the header's reserved word.

    CRC-32 over the whole frame with the checksum field zeroed —
    guaranteed to catch the 1–3 bit flips the mangle fault injects, so
    every corrupted frame dies in :func:`decode` instead of feeding
    garbage field values to protocol state machines.
    """
    crc = zlib.crc32(raw) & 0xFFFFFFFF
    return raw[:_CRC_OFFSET] + struct.pack("!I", crc) + raw[C.HEADER_SIZE:]

# option TLV types
OPT_CC_FEEDBACK = 0x01  # receiver report (NAK and ACK)
OPT_CC_ACKER = 0x02  # acker identity + elicit flag (ODATA)

# NAK flag bits
NAK_FLAG_FAKE = 0x01  # elicited "fake" NAK (§3.6): reports only, no repair

_HEADER = struct.Struct("!BBHQI")
assert _HEADER.size == C.HEADER_SIZE


def _pack_str8(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 255:
        raise ValueError(f"string too long for str8: {len(raw)} bytes")
    return bytes([len(raw)]) + raw


def _unpack_str8(data: bytes, offset: int) -> tuple[str, int]:
    n = data[offset]
    end = offset + 1 + n
    return data[offset + 1 : end].decode("utf-8"), end


def _pack_report(report: ReceiverReport) -> bytes:
    """OPT_CC_FEEDBACK TLV carrying the Fig. 1 grey fields."""
    flags = 0x01 if report.timestamp_echo is not None else 0x00
    body = struct.pack("!IHB", report.rxw_lead, report.rx_loss, flags)
    if report.timestamp_echo is not None:
        body += struct.pack("!d", report.timestamp_echo)
    body += _pack_str8(report.rx_id)
    return struct.pack("!BB", OPT_CC_FEEDBACK, len(body)) + body


def _report_size(report: ReceiverReport) -> int:
    """Encoded length of :func:`_pack_report`'s TLV: type and length,
    rxw_lead, rx_loss, flags, the optional echo, str8 rx_id."""
    echo = 0 if report.timestamp_echo is None else 8
    return 2 + 7 + echo + 1 + len(report.rx_id.encode("utf-8"))


def _unpack_report(data: bytes, offset: int) -> tuple[ReceiverReport, int]:
    opt_type, opt_len = struct.unpack_from("!BB", data, offset)
    if opt_type != OPT_CC_FEEDBACK:
        raise ValueError(f"expected feedback option, got 0x{opt_type:02x}")
    body_off = offset + 2
    rxw_lead, rx_loss, flags = struct.unpack_from("!IHB", data, body_off)
    pos = body_off + 7
    echo = None
    if flags & 0x01:
        (echo,) = struct.unpack_from("!d", data, pos)
        pos += 8
    rx_id, pos = _unpack_str8(data, pos)
    if pos != body_off + opt_len:
        raise ValueError("feedback option length mismatch")
    return ReceiverReport(rx_id, rxw_lead, rx_loss, echo), pos


class PgmMessage:
    """Base for all PGM messages: header packing and type dispatch."""

    TYPE: int = -1
    tsi: int

    def _header(self, options_len: int = 0) -> bytes:
        return _HEADER.pack(MAGIC, self.TYPE, options_len, self.tsi, 0)

    def pack(self) -> bytes:
        """Encode to bytes, with the header checksum filled in."""
        return _seal(self._pack_body())

    def _pack_body(self) -> bytes:  # pragma: no cover - overridden
        raise NotImplementedError

    def wire_size(self) -> int:  # pragma: no cover - overridden
        """Total simulated wire size: encoding + IP/UDP overhead.

        Each type computes it in closed form next to its ``_pack_body``
        rather than packing a frame (and its CRC) to measure a length.
        """
        raise NotImplementedError


@dataclass
class Spm(PgmMessage):
    """Source Path Message: heartbeat rewritten hop-by-hop so nodes
    learn their upstream PGM hop (§3.1)."""

    TYPE = C.SPM

    tsi: int
    spm_seq: int
    trail: int
    lead: int
    path: str = ""  # name of the last PGM hop traversed

    def _pack_body(self) -> bytes:
        body = struct.pack("!III", self.spm_seq, self.trail, self.lead)
        body += _pack_str8(self.path)
        return self._header() + body

    def wire_size(self) -> int:
        path_len = len(self.path.encode("utf-8"))
        return C.HEADER_SIZE + 12 + 1 + path_len + C.IP_UDP_OVERHEAD

    @classmethod
    def unpack_body(cls, tsi: int, data: bytes, offset: int) -> "Spm":
        spm_seq, trail, lead = struct.unpack_from("!III", data, offset)
        path, _ = _unpack_str8(data, offset + 12)
        return cls(tsi, spm_seq, trail, lead, path)


@dataclass
class OData(PgmMessage):
    """Original data.  Carries the acker identity as a PGM option and
    optionally the elicit-NAK mark (first packet of a session, §3.6)."""

    TYPE = C.ODATA

    tsi: int
    seq: int
    trail: int
    payload_len: int
    timestamp: float = 0.0
    acker_id: Optional[str] = None
    elicit_nak: bool = False
    payload: bytes = b""

    def _pack_body(self) -> bytes:
        fixed = struct.pack("!IIdH", self.seq, self.trail, self.timestamp, self.payload_len)
        option = b""
        if self.acker_id is not None or self.elicit_nak:
            flags = 0x01 if self.elicit_nak else 0x00
            body = bytes([flags]) + _pack_str8(self.acker_id or "")
            option = struct.pack("!BB", OPT_CC_ACKER, len(body)) + body
        # The simulator fast path may carry arbitrary payload objects
        # (e.g. FEC tags); only byte payloads are encodable.
        payload = self.payload if isinstance(self.payload, bytes) else bytes(0)
        return self._header(len(option)) + fixed + option + payload

    def wire_size(self) -> int:
        # Counts the 4-byte empty acker option even when the frame
        # omits it (no acker, no elicit mark): 4 B over ``pack()``.  A
        # known deviation, kept because the size sets serialisation
        # times (EXPERIMENTS.md "Known deviations").
        acker = self.acker_id or ""
        opt_len = 2 + 1 + 1 + len(acker.encode("utf-8"))
        return (
            C.HEADER_SIZE + C.DATA_FIXED_SIZE + opt_len + self.payload_len + C.IP_UDP_OVERHEAD
        )

    @classmethod
    def unpack_body(cls, tsi: int, data: bytes, offset: int, options_len: int) -> "OData":
        seq, trail, tstamp, payload_len = struct.unpack_from("!IIdH", data, offset)
        pos = offset + 18
        acker_id = None
        elicit = False
        if options_len:
            opt_type, opt_len = struct.unpack_from("!BB", data, pos)
            if opt_type != OPT_CC_ACKER:
                raise ValueError(f"unexpected ODATA option 0x{opt_type:02x}")
            flags = data[pos + 2]
            elicit = bool(flags & 0x01)
            acker_id, _ = _unpack_str8(data, pos + 3)
            if acker_id == "":
                acker_id = None  # empty string encodes "no acker yet"
            pos += 2 + opt_len
        payload = data[pos : pos + payload_len] if len(data) > pos else b""
        return cls(tsi, seq, trail, payload_len, tstamp, acker_id, elicit, payload)


@dataclass
class RData(PgmMessage):
    """Repair data (retransmission).  Never ACKed, never carries the
    acker option."""

    TYPE = C.RDATA

    tsi: int
    seq: int
    trail: int
    payload_len: int
    timestamp: float = 0.0
    payload: bytes = b""

    def _pack_body(self) -> bytes:
        fixed = struct.pack("!IIdH", self.seq, self.trail, self.timestamp, self.payload_len)
        payload = self.payload if isinstance(self.payload, bytes) else bytes(0)
        return self._header() + fixed + payload

    def wire_size(self) -> int:
        return C.HEADER_SIZE + C.DATA_FIXED_SIZE + self.payload_len + C.IP_UDP_OVERHEAD

    @classmethod
    def unpack_body(cls, tsi: int, data: bytes, offset: int) -> "RData":
        seq, trail, tstamp, payload_len = struct.unpack_from("!IIdH", data, offset)
        pos = offset + 18
        payload = data[pos : pos + payload_len] if len(data) > pos else b""
        return cls(tsi, seq, trail, payload_len, tstamp, payload)


@dataclass
class Nak(PgmMessage):
    """Negative acknowledgement carrying the receiver report option.

    ``extra_seqs`` implements PGM's NAK-list compaction; ``fake`` marks
    the elicited startup NAK that requests no repair (§3.6).
    """

    TYPE = C.NAK

    tsi: int
    seq: int
    report: ReceiverReport
    fake: bool = False
    extra_seqs: tuple[int, ...] = ()

    def all_seqs(self) -> tuple[int, ...]:
        return (self.seq, *self.extra_seqs)

    def _pack_body(self) -> bytes:
        flags = NAK_FLAG_FAKE if self.fake else 0
        fixed = struct.pack("!IBB", self.seq, flags, len(self.extra_seqs))
        fixed += b"".join(struct.pack("!I", s) for s in self.extra_seqs)
        option = _pack_report(self.report)
        return self._header(len(option)) + fixed + option

    def wire_size(self) -> int:
        return (
            C.HEADER_SIZE + 6 + 4 * len(self.extra_seqs)
            + _report_size(self.report) + C.IP_UDP_OVERHEAD
        )

    @classmethod
    def unpack_body(cls, tsi: int, data: bytes, offset: int) -> "Nak":
        seq, flags, nextra = struct.unpack_from("!IBB", data, offset)
        pos = offset + 6
        extra = tuple(
            struct.unpack_from("!I", data, pos + 4 * i)[0] for i in range(nextra)
        )
        pos += 4 * nextra
        report, _ = _unpack_report(data, pos)
        return cls(tsi, seq, report, bool(flags & NAK_FLAG_FAKE), extra)


@dataclass
class Ncf(PgmMessage):
    """NAK confirmation, multicast downstream by NEs and the source to
    suppress duplicate NAKs."""

    TYPE = C.NCF

    tsi: int
    seq: int

    def _pack_body(self) -> bytes:
        return self._header() + struct.pack("!I", self.seq)

    def wire_size(self) -> int:
        return C.HEADER_SIZE + 4 + C.IP_UDP_OVERHEAD

    @classmethod
    def unpack_body(cls, tsi: int, data: bytes, offset: int) -> "Ncf":
        (seq,) = struct.unpack_from("!I", data, offset)
        return cls(tsi, seq)


@dataclass
class Ack(PgmMessage):
    """Positive acknowledgement — the packet type pgmcc adds (Fig. 1).

    Carries the same report as a NAK plus ``ack_seq`` (the eliciting
    data packet) and the 32-bit receive bitmap of the most recent 32
    packets (§3.3).
    """

    TYPE = C.ACK

    tsi: int
    ack_seq: int
    bitmask: int
    report: ReceiverReport

    def _pack_body(self) -> bytes:
        fixed = struct.pack("!II", self.ack_seq, self.bitmask & 0xFFFFFFFF)
        option = _pack_report(self.report)
        return self._header(len(option)) + fixed + option

    def wire_size(self) -> int:
        return C.HEADER_SIZE + 8 + _report_size(self.report) + C.IP_UDP_OVERHEAD

    @classmethod
    def unpack_body(cls, tsi: int, data: bytes, offset: int) -> "Ack":
        ack_seq, bitmask = struct.unpack_from("!II", data, offset)
        report, _ = _unpack_report(data, offset + 8)
        return cls(tsi, ack_seq, bitmask, report)


def decode(data: bytes) -> PgmMessage:
    """Decode a packed PGM message of any type.

    Every malformed input — truncated buffers, bad magic, option
    garbage, broken UTF-8 — raises :class:`ValueError`, so ingress
    paths need exactly one except clause to drop corrupted packets.
    """
    try:
        if len(data) < C.HEADER_SIZE:
            raise ValueError(f"truncated PGM packet: {len(data)} bytes")
        (stored,) = struct.unpack_from("!I", data, _CRC_OFFSET)
        actual = zlib.crc32(
            data[:_CRC_OFFSET] + _CRC_ZERO + data[C.HEADER_SIZE:]
        ) & 0xFFFFFFFF
        if stored != actual:
            raise ValueError(
                f"checksum mismatch: 0x{stored:08x} != 0x{actual:08x}"
            )
        return _decode(data)
    except ValueError:
        raise
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed PGM packet: {exc}") from None


def _decode(data: bytes) -> PgmMessage:
    magic, msg_type, options_len, tsi, _reserved = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise ValueError(f"bad magic 0x{magic:02x}")
    offset = C.HEADER_SIZE
    if msg_type == C.SPM:
        return Spm.unpack_body(tsi, data, offset)
    if msg_type == C.ODATA:
        return OData.unpack_body(tsi, data, offset, options_len)
    if msg_type == C.RDATA:
        return RData.unpack_body(tsi, data, offset)
    if msg_type == C.NAK:
        return Nak.unpack_body(tsi, data, offset)
    if msg_type == C.NCF:
        return Ncf.unpack_body(tsi, data, offset)
    if msg_type == C.ACK:
        return Ack.unpack_body(tsi, data, offset)
    raise ValueError(f"unknown PGM type 0x{msg_type:02x}")
