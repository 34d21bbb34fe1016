"""Packet tracing.

The paper's figures are time/sequence-number plots logged at the sender
side of the bottleneck.  :class:`FlowTrace` collects the same records —
(time, kind, sequence, bytes) — from which the analysis package derives
the time-seq series, binned bandwidth curves and event counts the
experiments compare against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True)
class TraceRecord:
    """One logged protocol event."""

    time: float
    kind: str  # "data", "rdata", "ack", "nak", "acker-switch", "loss", ...
    seq: int
    nbytes: int = 0


@dataclass
class FlowTrace:
    """Event log for one flow (a PGM session or a TCP connection)."""

    records: list[TraceRecord] = field(default_factory=list)

    def log(self, time: float, kind: str, seq: int, nbytes: int = 0) -> None:
        self.records.append(TraceRecord(time, kind, seq, nbytes))

    # -- selection helpers -------------------------------------------------

    def of_kind(self, *kinds: str) -> list[TraceRecord]:
        wanted = set(kinds)
        return [r for r in self.records if r.kind in wanted]

    def count(self, kind: str) -> int:
        return sum(1 for r in self.records if r.kind == kind)

    def times(self, kind: str) -> list[float]:
        return [r.time for r in self.records if r.kind == kind]

    def between(self, t0: float, t1: float) -> "FlowTrace":
        """Sub-trace restricted to t0 <= time < t1."""
        return FlowTrace([r for r in self.records if t0 <= r.time < t1])

    # -- derived series -------------------------------------------------------

    def time_seq(self, kind: str = "data") -> list[tuple[float, int]]:
        """The paper's time/sequence plot for one event kind."""
        return [(r.time, r.seq) for r in self.records if r.kind == kind]

    def bytes_sent(self, kind: str = "data") -> int:
        return sum(r.nbytes for r in self.records if r.kind == kind)

    def throughput_bps(self, t0: float, t1: float, kind: str = "data") -> float:
        """Payload bits/s of ``kind`` records over [t0, t1); an empty
        window carried nothing."""
        if t1 <= t0:
            return 0.0
        return self.between(t0, t1).bytes_sent(kind) * 8.0 / (t1 - t0)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

