"""Equation-based single-rate multicast controllers (§2.1 baselines).

The paper's related work describes rate-based schemes in which "the
sender uses loss reports to update the transmit rate" on coarse
timescales, with the rate computed from the TCP equilibrium equation
[8][15].  It also describes their failure mode: "an improper
aggregation of feedback is likely to cause the so called drop-to-zero
problem [23], where the sender's estimate of the loss rate is much
higher than the actual loss rate experienced at every single receiver"
(§2.1) — precisely what pgmcc's receiver-side filtering and
representative-based control avoid (§4.5).

:class:`EquationRateSender` implements that family behind an
``aggregation`` switch:

* ``"nak-count"`` — the naive source: session loss = NAKs heard per
  packet sent.  With N receivers suffering *uncorrelated* loss p, the
  source hears ≈ N·p NAKs per packet and its rate collapses like
  1/√(N·p): drop-to-zero.
* ``"max-report"`` — the repaired variant (what TFMCC-style protocols
  converged on): session loss = the worst receiver-filtered ``rx_loss``
  seen in the epoch, so the estimate is independent of the group size.

Both pace packets at the equation rate ``MSS / (RTT · √p)`` and update
once per epoch ("1 second or more" per the paper).  Receivers are the
ordinary PGM receivers in report-only mode; the controllers share
pgmcc's wire formats and differ only in the control discipline — which
is the comparison the paper draws.

For the same equation family run *through* pgmcc's session machinery
(acker election, ACK clocking, guard, telemetry) instead of as a
standalone sender, see the registered ``"tfrc"`` controller backend in
:mod:`repro.core.controllers` (docs/CONTROLLERS.md); EXP-ARENA ranks
it against the window backends head-to-head.
"""

from __future__ import annotations

import math

from ..core.loss_filter import SCALE
from ..pgm import constants as C
from ..pgm.packets import Nak, OData
from ..simulator.engine import Timer
from ..simulator.node import Host
from ..simulator.packet import Packet
from ..simulator.trace import FlowTrace

AGGREGATIONS = ("nak-count", "max-report")


class EquationRateSender:
    """Rate-based multicast source driven by the TCP equation.

    Args:
        host: simulator host.
        group: multicast group address.
        tsi: session id (shares the PGM wire formats).
        aggregation: "nak-count" (naive, drop-to-zero prone) or
            "max-report" (worst receiver-filtered loss).
        rtt_estimate: control-loop RTT in seconds (these schemes have
            no per-packet feedback to measure it; the paper notes they
            work on coarse timescales).
        epoch: rate-update interval in seconds.
        min_rate_bps / max_rate_bps: rate clamps; ``min_rate_bps``
            keeps the probe alive so the estimate can recover.
        smoothing: EWMA gain on the aggregated loss estimate.
    """

    def __init__(
        self,
        host: Host,
        group: str,
        tsi: int,
        aggregation: str = "max-report",
        payload_size: int = C.DEFAULT_PAYLOAD,
        rtt_estimate: float = 0.5,
        epoch: float = 1.0,
        min_rate_bps: float = 8_000.0,
        max_rate_bps: float = 10_000_000.0,
        initial_rate_bps: float = 100_000.0,
        smoothing: float = 0.25,
    ):
        if aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {aggregation!r}")
        self.host = host
        self.sim = host.sim
        self.group = group
        self.tsi = tsi
        self.aggregation = aggregation
        self.payload_size = payload_size
        self.rtt_estimate = rtt_estimate
        self.epoch = epoch
        self.min_rate_bps = min_rate_bps
        self.max_rate_bps = max_rate_bps
        self.rate_bps = initial_rate_bps
        self.smoothing = smoothing
        self.trace = FlowTrace()

        self._next_seq = 0
        self._p_smoothed = 0.0
        # per-epoch counters (naive aggregation)
        self._epoch_packets = 0
        self._epoch_naks = 0
        #: most recent filtered report per receiver (max-report mode —
        #: holding the last value avoids sampling 0 on quiet epochs)
        self._last_reports: dict[str, int] = {}
        self._send_timer = Timer(self.sim, self._send_one)
        self._epoch_timer = Timer(self.sim, self._update_rate)
        self._closed = False
        self.packets_sent = 0
        self.naks_received = 0
        self.rate_history: list[tuple[float, float]] = []
        host.register_agent(C.PROTO, self)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self._send_timer.start(self._interval())
        self._epoch_timer.start(self.epoch)

    def close(self) -> None:
        self._closed = True
        self._send_timer.cancel()
        self._epoch_timer.cancel()

    def _interval(self) -> float:
        return self.payload_size * 8.0 / self.rate_bps

    # -- data path -----------------------------------------------------------

    def _send_one(self) -> None:
        if self._closed:
            return
        odata = OData(self.tsi, self._next_seq, 0, self.payload_size,
                      timestamp=self.sim.now)
        self.host.send(
            Packet(self.host.name, self.group, odata.wire_size(), odata, C.PROTO)
        )
        self.trace.log(self.sim.now, "data", self._next_seq, self.payload_size)
        self._next_seq += 1
        self.packets_sent += 1
        self._epoch_packets += 1
        self._send_timer.restart(self._interval())

    def handle_packet(self, packet: Packet) -> None:
        msg = packet.payload
        if isinstance(msg, Nak) and msg.tsi == self.tsi:
            self.naks_received += 1
            self._epoch_naks += 1
            self._last_reports[msg.report.rx_id] = msg.report.rx_loss
            self.trace.log(self.sim.now, "nak", msg.seq)

    # -- control loop ----------------------------------------------------------

    def _aggregate_loss(self) -> float:
        if self.aggregation == "nak-count":
            if self._epoch_packets == 0:
                return self._p_smoothed
            return min(1.0, self._epoch_naks / self._epoch_packets)
        # max-report: the worst receiver's most recent filtered
        # estimate.  Holding each receiver's last report keeps the
        # estimate defined through quiet epochs and independent of the
        # group size (each value is already smoothed at its receiver).
        if not self._last_reports:
            return self._p_smoothed
        return max(self._last_reports.values()) / SCALE

    def _update_rate(self) -> None:
        if self._closed:
            return
        sample = self._aggregate_loss()
        if sample == 0.0 and self._p_smoothed == 0.0:
            # No loss observed yet: probe upward multiplicatively
            # instead of evaluating the equation at p -> 0 (which would
            # blast the maximum rate into the path and poison every
            # receiver's loss filter before control even starts).
            self.rate_bps = min(self.max_rate_bps, self.rate_bps * 2.0)
            self.rate_history.append((self.sim.now, self.rate_bps))
            self.trace.log(self.sim.now, "rate-update", int(self.rate_bps))
            self._epoch_packets = 0
            self._epoch_naks = 0
            self._epoch_timer.restart(self.epoch)
            return
        self._p_smoothed += self.smoothing * (sample - self._p_smoothed)
        p = max(self._p_smoothed, 1.0 / SCALE)
        # the simplified TCP equation the paper quotes: T ∝ MSS/(RTT·√p)
        rate = self.payload_size * 8.0 * math.sqrt(1.5) / (
            self.rtt_estimate * math.sqrt(p)
        )
        self.rate_bps = min(self.max_rate_bps, max(self.min_rate_bps, rate))
        self.rate_history.append((self.sim.now, self.rate_bps))
        self.trace.log(self.sim.now, "rate-update", int(self.rate_bps))
        self._epoch_packets = 0
        self._epoch_naks = 0
        self._epoch_timer.restart(self.epoch)

    @property
    def loss_estimate(self) -> float:
        return self._p_smoothed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EquationRateSender {self.aggregation} "
            f"rate={self.rate_bps / 1000:.0f}kbit/s p={self._p_smoothed:.4f}>"
        )
