"""PGM network elements (§3.1, §3.7).

A PGM-enabled router keeps per-(session, sequence) NAK state so that:

* only the first NAK for a data segment is forwarded towards the
  source — subsequent ones are *suppressed* (answered with an NCF on
  the arrival branch) at least until the state expires;
* repair traffic (RDATA) is *selectively forwarded* only to the
  branches from which a matching NAK was heard;
* SPMs are rewritten hop-by-hop so downstream nodes learn their
  upstream PGM hop.

§3.7's refinement is implemented behind ``rx_loss_aware``: a NAK whose
``rx_loss`` exceeds the value already forwarded upstream for that
sequence is forwarded anyway (and the stored value updated), so the
acker election still hears about the worst receiver behind this NE.

Everything here is optional: pgmcc must work end to end with plain
routers (incremental deployment), which is simply a router without an
interceptor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..simulator.node import Router
from ..simulator.packet import Packet
from . import constants as C
from .packets import Ack, Nak, Ncf, OData, RData, Spm, decode


@dataclass
class _NakEntry:
    created: float
    branches: set[str] = field(default_factory=set)
    forwarded_rx_loss: int = 0
    #: repair already forwarded; the entry then only *eliminates*
    #: duplicate NAKs until it expires (PGM's NAK elimination state).
    repaired: bool = False
    #: when the repair passed through (drives the soft-state refresh:
    #: a re-NAK arriving well after the repair means the repair was
    #: lost downstream, so the elimination state must not eat it).
    repaired_at: float = 0.0


class PgmNetworkElement:
    """Router-resident PGM logic, installed as a packet interceptor."""

    def __init__(self, router: Router, rx_loss_aware: bool = False):
        self.router = router
        self.sim = router.sim
        self.rx_loss_aware = rx_loss_aware
        self._nak_state: dict[tuple[int, int], _NakEntry] = {}
        self._fake_seen: dict[tuple[int, int], float] = {}
        #: (tsi, branch) -> member count an aggregate proxy stands for
        #: (repro.pgm.aggregate side-channel, no wire-format change)
        self._aggregate_weight: dict[tuple[int, str], int] = {}
        #: upstream PGM hop per session, learned from SPM arrivals
        self.upstream: dict[int, str] = {}
        #: session -> multicast group, learned from downstream traffic
        self.group_of: dict[int, str] = {}
        # statistics
        self.naks_seen = 0
        self.naks_forwarded = 0
        self.naks_suppressed = 0
        self.naks_forwarded_rx_loss = 0
        self.rdata_selective = 0
        self.rdata_flooded = 0
        self.ncfs_sent = 0
        self.naks_refreshed = 0
        self.malformed_dropped = 0
        self.naks_aggregated = 0
        router.set_interceptor(self)

    def register_aggregate_branch(self, tsi: int, branch: str,
                                  weight: int) -> None:
        """Declare ``branch`` an aggregate proxy speaking for ``weight``
        receivers of session ``tsi``.

        A NAK heard on that branch then counts as ``weight`` member
        NAKs in the suppression accounting (``naks_aggregated``) —
        exactly the NAKs a full population would have sent and this NE
        would have absorbed.  Forwarding behaviour is unchanged: the
        proxy already emits only the would-be suppression winner.
        """
        if weight > 1:
            self._aggregate_weight[(tsi, branch)] = weight
        else:
            self._aggregate_weight.pop((tsi, branch), None)

    # -- interceptor entry point ---------------------------------------------

    def intercept(self, packet: Packet, from_node: str) -> bool:
        msg = packet.payload
        if isinstance(msg, (bytes, bytearray)):
            # A mangled frame: a PGM router verifies the checksum like
            # any other hop.  Undecodable bytes are consumed (dropped)
            # here; decodable ones are plain-forwarded and left to the
            # end hosts to validate — NE state must never be built
            # from fields a bit flip may have rewritten.
            try:
                decode(bytes(msg))
            except ValueError:
                self.malformed_dropped += 1
                return True
            return False
        if isinstance(msg, Spm):
            return self._handle_spm(packet, msg, from_node)
        if isinstance(msg, Nak):
            return self._handle_nak(packet, msg, from_node)
        if isinstance(msg, RData):
            self.group_of.setdefault(msg.tsi, packet.dst)
            return self._handle_rdata(packet, msg, from_node)
        if isinstance(msg, OData):
            self.group_of.setdefault(msg.tsi, packet.dst)
            return False  # normal multicast forwarding
        if isinstance(msg, (Ncf, Ack)):
            return False  # pass through
        return False

    # -- SPM: learn upstream, rewrite hop-by-hop ------------------------------

    def _handle_spm(self, packet: Packet, spm: Spm, from_node: str) -> bool:
        self.upstream[spm.tsi] = from_node
        self.group_of.setdefault(spm.tsi, packet.dst)
        branches = self.router.multicast_routes.get(packet.dst, ())
        for branch in branches:
            if branch == from_node:
                continue
            rewritten = Spm(spm.tsi, spm.spm_seq, spm.trail, spm.lead,
                            path=self.router.name)
            self.router.send_via(
                branch,
                Packet(packet.src, packet.dst, packet.size, rewritten, C.PROTO,
                       created_at=packet.created_at, hops=packet.hops),
            )
        return True

    # -- NAK: suppression + state creation --------------------------------------

    def _handle_nak(self, packet: Packet, nak: Nak, from_node: str) -> bool:
        self.naks_seen += 1
        weight = self._aggregate_weight.get((nak.tsi, from_node), 0)
        if weight > 1:
            # The proxy's NAK is the one its tail's suppression lottery
            # let through; the other weight-1 never left this subtree.
            self.naks_aggregated += weight - 1
        now = self.sim.now
        if nak.fake:
            # Fake NAKs exist purely to seed the election; they create
            # no repair state but duplicates are still deduplicated.
            key = (nak.tsi, nak.seq)
            seen = self._fake_seen.get(key)
            if seen is not None and now - seen < C.NE_STATE_LIFETIME:
                self.naks_suppressed += 1
                return True
            self._fake_seen[key] = now
            self.naks_forwarded += 1
            self.router.forward_unicast(packet)
            return True

        key = (nak.tsi, nak.seq)
        entry = self._nak_state.get(key)
        if entry is not None and now - entry.created >= C.NE_STATE_LIFETIME:
            del self._nak_state[key]
            entry = None
        elif (entry is not None and entry.repaired
                and now - entry.repaired_at >= C.NE_REPAIR_LINGER):
            # Soft-state refresh: the repair passed a while ago yet a
            # receiver is NAKing again — the RDATA must have died
            # downstream (partition, loss burst).  Retire the stale
            # elimination state and let this NAK through instead of
            # eating the retry until the full lifetime expires.
            del self._nak_state[key]
            entry = None
            self.naks_refreshed += 1

        if entry is None:
            self._nak_state[key] = _NakEntry(
                created=now,
                branches={from_node},
                forwarded_rx_loss=nak.report.rx_loss,
            )
            self._send_ncf(nak, from_node)
            self.naks_forwarded += 1
            self.router.forward_unicast(packet)
            self._maybe_gc(now)
            return True

        # Replicated NAK from the same subtree: record the branch and
        # confirm it, then suppress — unless the §3.7 rule applies.
        if not entry.repaired:
            entry.branches.add(from_node)
        self._send_ncf(nak, from_node)
        if self.rx_loss_aware and nak.report.rx_loss > entry.forwarded_rx_loss:
            entry.forwarded_rx_loss = nak.report.rx_loss
            self.naks_forwarded += 1
            self.naks_forwarded_rx_loss += 1
            self.router.forward_unicast(packet)
            return True
        self.naks_suppressed += 1
        return True

    def _send_ncf(self, nak: Nak, branch: str) -> None:
        group = self.group_of.get(nak.tsi)
        if group is None:
            return
        ncf = Ncf(nak.tsi, nak.seq)
        self.router.send_via(
            branch, Packet(self.router.name, group, 64, ncf, C.PROTO)
        )
        self.ncfs_sent += 1

    def _maybe_gc(self, now: float) -> None:
        if len(self._nak_state) < 4096 and len(self._fake_seen) < 4096:
            return
        self._nak_state = {
            k: e for k, e in self._nak_state.items()
            if now - e.created < C.NE_STATE_LIFETIME
        }
        self._fake_seen = {
            k: t for k, t in self._fake_seen.items()
            if now - t < C.NE_STATE_LIFETIME
        }

    # -- RDATA: selective forwarding --------------------------------------------

    def _handle_rdata(self, packet: Packet, rdata: RData, from_node: str) -> bool:
        entry = self._nak_state.get((rdata.tsi, rdata.seq))
        if entry is None or entry.repaired:
            # No live repair state (expired, never NAKed here, or
            # already repaired): PGM floods the repair to all branches.
            self.rdata_flooded += 1
            return False
        for branch in entry.branches:
            if branch == from_node:
                continue
            self.router.send_via(branch, packet)
        self.rdata_selective += 1
        # Keep the entry as NAK-elimination state until it expires, so
        # straggler NAKs (e.g. from long-RTT receivers that detected
        # the loss late) are still suppressed after the repair passed.
        entry.repaired = True
        entry.repaired_at = self.sim.now
        entry.branches = set()
        return True

    # -- introspection -----------------------------------------------------

    def metrics(self) -> dict:
        """NE counters for telemetry pull-bindings."""
        return {
            "naks_seen": self.naks_seen,
            "naks_forwarded": self.naks_forwarded,
            "naks_suppressed": self.naks_suppressed,
            "naks_forwarded_rx_loss": self.naks_forwarded_rx_loss,
            "rdata_selective": self.rdata_selective,
            "rdata_flooded": self.rdata_flooded,
            "ncfs_sent": self.ncfs_sent,
            "naks_refreshed": self.naks_refreshed,
            "naks_aggregated": self.naks_aggregated,
            "aggregate_branches": len(self._aggregate_weight),
            "malformed_dropped": self.malformed_dropped,
            "state_entries": len(self._nak_state),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PgmNetworkElement {self.router.name} "
            f"fwd={self.naks_forwarded} sup={self.naks_suppressed}>"
        )
