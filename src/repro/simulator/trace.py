"""Packet tracing.

The paper's figures are time/sequence-number plots logged at the sender
side of the bottleneck.  :class:`FlowTrace` collects the same records —
(time, kind, sequence, bytes) — from which the analysis package derives
the time-seq series, binned bandwidth curves and event counts the
experiments compare against the paper.

The log is stored as four columns, not one object per event: a raw
double, a kind pointer and two raw 64-bit ints, ≈32 B an event, for the
whole run.  Rows are materialised as :class:`TraceRecord` only when a
reader asks — one at a time when iterating, or for the selected kinds
in :meth:`of_kind` — so a reader should stream them rather than build
a list of every row.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class TraceRecord:
    """One logged protocol event."""

    time: float
    kind: str  # "data", "rdata", "ack", "nak", "acker-switch", "loss", ...
    seq: int
    nbytes: int = 0


class FlowTrace:
    """Event log for one flow (a PGM session or a TCP connection).

    Times must not decrease from one :meth:`log` call to the next —
    every sender logs ``sim.now`` — so the time column stays sorted and
    :meth:`between` is a bisection, not a scan.
    """

    __slots__ = ("_time", "_kind", "_seq", "_nbytes")

    def __init__(self) -> None:
        self._time = array("d")
        self._kind: list[str] = []
        self._seq = array("q")
        self._nbytes = array("q")

    def log(self, time: float, kind: str, seq: int, nbytes: int = 0) -> None:
        times = self._time
        if times and time < times[-1]:
            raise ValueError(
                f"trace time went backwards: {time!r} after {times[-1]!r}"
            )
        try:
            times.append(time)
            self._seq.append(seq)
            self._nbytes.append(nbytes)
        except (TypeError, OverflowError):
            # a non-number or out-of-range value: leave every column as
            # it was, so the four stay the same length
            n = len(self._kind)
            del times[n:], self._seq[n:], self._nbytes[n:]
            raise
        self._kind.append(kind)

    # -- selection helpers -------------------------------------------------

    def of_kind(self, *kinds: str) -> list[TraceRecord]:
        wanted = set(kinds)
        time, seq, nbytes = self._time, self._seq, self._nbytes
        return [
            TraceRecord(time[i], k, seq[i], nbytes[i])
            for i, k in enumerate(self._kind)
            if k in wanted
        ]

    def count(self, kind: str) -> int:
        return self._kind.count(kind)

    def times(self, kind: str) -> list[float]:
        return [t for t, k in zip(self._time, self._kind) if k == kind]

    def between(self, t0: float, t1: float) -> "FlowTrace":
        """Sub-trace restricted to t0 <= time < t1."""
        lo = bisect_left(self._time, t0)
        hi = bisect_left(self._time, t1, lo)
        sub = FlowTrace()
        sub._time = self._time[lo:hi]
        sub._kind = self._kind[lo:hi]
        sub._seq = self._seq[lo:hi]
        sub._nbytes = self._nbytes[lo:hi]
        return sub

    # -- derived series -------------------------------------------------------

    def time_seq(self, kind: str = "data") -> list[tuple[float, int]]:
        """The paper's time/sequence plot for one event kind."""
        return [
            (t, s) for t, k, s in zip(self._time, self._kind, self._seq) if k == kind
        ]

    def bytes_sent(self, kind: str = "data") -> int:
        return sum(n for k, n in zip(self._kind, self._nbytes) if k == kind)

    def throughput_bps(self, t0: float, t1: float, kind: str = "data") -> float:
        """Payload bits/s of ``kind`` records over [t0, t1); an empty
        window carried nothing."""
        if t1 <= t0:
            return 0.0
        return self.between(t0, t1).bytes_sent(kind) * 8.0 / (t1 - t0)

    def __iter__(self) -> Iterator[TraceRecord]:
        """The rows in log order, built one at a time."""
        return map(TraceRecord, self._time, self._kind, self._seq, self._nbytes)

    def rows(self) -> Iterator[tuple[float, str, int, int]]:
        """The rows in log order as plain ``(time, kind, seq, nbytes)``
        tuples: the cheap way to walk the whole log."""
        return zip(self._time, self._kind, self._seq, self._nbytes)

    def __len__(self) -> int:
        return len(self._kind)
