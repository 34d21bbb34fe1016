"""PGM protocol constants.

Packet type codes, header sizes, and the protocol timers (NAK backoff
and retry intervals, SPM heartbeat) used by senders, receivers and
network elements.  Values follow the PGM draft's structure scaled to
the paper's testbed timescales; all are overridable per session.
"""

from __future__ import annotations

#: Simulator protocol tag for all PGM traffic.
PROTO = "pgm"

# -- packet type codes (one byte on the wire) -------------------------------
SPM = 0x00
ODATA = 0x04
RDATA = 0x05
NAK = 0x08
NCF = 0x0A
#: positive acknowledgement — the packet type pgmcc adds to PGM (§3.1).
ACK = 0x0D

TYPE_NAMES = {
    SPM: "SPM",
    ODATA: "ODATA",
    RDATA: "RDATA",
    NAK: "NAK",
    NCF: "NCF",
    ACK: "ACK",
}

# -- wire sizes (bytes) ----------------------------------------------------
#: common PGM header: magic, type, options length, TSI.
HEADER_SIZE = 16
#: data-packet fixed part: seq, trail, timestamp, payload length.
DATA_FIXED_SIZE = 18
#: per-packet IP+UDP encapsulation accounted by the simulator.
IP_UDP_OVERHEAD = 28

#: default pgmcc payload (paper §4: 1400 bytes, so that pgmcc packets
#: and 1460-byte-payload TCP packets are approximately the same size).
DEFAULT_PAYLOAD = 1400

# -- protocol timers (seconds) -----------------------------------------------
#: receiver NAK backoff: uniform random delay before the first NAK for
#: a missing packet (feedback suppression via randomisation, §3.1).
NAK_BO_IVL = 0.050
#: NAK retry interval while no NCF confirms it.  Must comfortably
#: exceed the path RTT or receivers re-NAK while the first NAK's NCF
#: is still in flight, multiplying repair traffic (the PGM draft's
#: defaults are of this order).
NAK_RPT_IVL = 2.0
#: how long to await RDATA after an NCF before re-NAKing.
NAK_RDATA_IVL = 2.0
#: maximum NAK attempts per sequence before giving up.
NAK_MAX_RETRIES = 10
#: SPM heartbeat period (lets NEs refresh upstream state).
SPM_IVL = 0.500
#: NE per-sequence NAK state lifetime (suppression window).
NE_STATE_LIFETIME = 1.0
#: how long after forwarding an RDATA a repaired NE entry still
#: eliminates duplicate NAKs; a re-NAK later than this refreshes the
#: entry instead (the repair evidently died downstream).
NE_REPAIR_LINGER = 0.25

#: default sender transmit-window capacity, in packets, for repairs.
TX_WINDOW_PACKETS = 8192

# -- acker-liveness watchdog states (repro.pgm.liveness) ---------------------
#: each transition is a ``liveness-<state>`` record in the sender's log
NORMAL = "normal"
SUSPECT = "suspect"
DEGRADED = "degraded"
