"""Alternative congestion-controller backends (the arena's field).

Three controllers from the paper's related work implement the
:mod:`repro.core.controller` contract so they can drive the same PGM
session machinery pgmcc does — same election, same stall timer, same
telemetry — and be compared head-to-head in ``EXP-ARENA``:

``jain``
    Jain's timeout-based window scheme (*A timeout-based congestion
    control scheme for window flow-controlled networks*, IEEE JSAC
    1986; PAPERS.md).  Additive window increase of one packet per
    window of ACKs, and **no reaction to dupack-declared losses**: the
    only congestion signal is the timeout, which resets ``W = T = 1``.
    Under drop-tail queues this probes past the knee until the ACK
    clock dies — the overshoot/reset sawtooth pgmcc's halving avoids.

``aimd``
    The pgmcc discipline with a tunable multiplicative-decrease factor
    ``beta`` (pgmcc is the ``beta = 0.5`` point; Relentless-style
    gentler decrease at ``beta -> 1``).  On a congestion event the
    window realigns to the true in-flight count and contracts to
    ``W·beta``, ignoring the next ``W_old - W_new`` ACKs so the pipe
    drains to the new window.

``tfrc``
    An equation-based *rate* controller in the TFRC mould (Floyd,
    Handley, Padhye, Widmer, SIGCOMM 2000; surveyed for RTP in
    PAPERS.md): the average-loss-interval estimator from
    :mod:`repro.core.tfrc_loss` feeds the full Padhye throughput
    equation from :mod:`repro.core.throughput_models`, and the send
    rate is the equation's value clamped to ``[min_rate_pps,
    max_rate_pps]``.  Transmissions are paced by a token bucket that
    refills continuously at the computed rate — ``send_delay`` returns
    the time until the next credit, which is what distinguishes a rate
    backend from a window backend under the contract.  Before the
    first loss the rate doubles once per RTT (slow-start probing); the
    engine's stall timer doubles as TFRC's no-feedback timer and
    halves the rate.

Each is one object: ``jain`` and ``aimd`` subclass
:class:`~repro.core.window.WindowController` and override
``on_congestion``; ``tfrc`` implements the contract directly and holds
the observable state (``w``, ``tokens``, ``ignore_acks``,
``recovery_seq``, the counters) itself, so session telemetry
(``cc.window_w`` / ``cc.tokens``) and the runtime
:class:`~repro.pgm.invariants.InvariantChecker` work unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .controller import register_controller
from .tfrc_loss import LossIntervalEstimator
from .throughput_models import PadhyeModel
from .window import WindowController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .reports import ReceiverReport
    from .sender_cc import CcConfig


# -- Jain: timeout-based window scheme ----------------------------------------


@register_controller("jain")
class JainController(WindowController):
    """Jain's timeout-based window scheme: additive increase, and
    dupack loss signals ignored."""

    name = "jain"
    congestion_signals = ("timeout",)

    def __init__(self, cc: "CcConfig"):
        # ssthresh=1: no exponential opening phase — the scheme is pure
        # additive increase (one packet per window) from W = 1.
        super().__init__(ssthresh=1, max_tokens=cc.max_tokens)

    def on_congestion(self, loss_seq: int, last_tx_seq: int,
                      in_flight: Optional[int], now: float) -> bool:
        # Timeout-based control: packet-level loss indications are not
        # a signal; only the dead ACK clock (on_timeout) is.
        self.losses_ignored += 1
        return False


# -- AIMD with tunable decrease factor ----------------------------------------


@register_controller("aimd")
class AimdController(WindowController):
    """pgmcc's machinery with a tunable decrease factor ``beta``."""

    name = "aimd"
    DEFAULT_BETA = 0.7

    def __init__(self, cc: "CcConfig", beta: float = DEFAULT_BETA):
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        super().__init__(ssthresh=cc.ssthresh, max_tokens=cc.max_tokens,
                         adaptive_ssthresh=cc.adaptive_ssthresh)
        self.beta = beta

    def on_congestion(self, loss_seq: int, last_tx_seq: int,
                      in_flight: Optional[int], now: float) -> bool:
        if self.recovery_seq is not None and loss_seq <= self.recovery_seq:
            self.losses_ignored += 1
            return False
        self.losses_reacted += 1
        if in_flight is not None and in_flight >= 1:
            self.w = min(self.w, float(in_flight))
        before = self.w
        self.w = max(1.0, self.w * self.beta)
        if self.adaptive_ssthresh:
            self.ssthresh = max(2.0, self.w)
        # Drain the difference: ignore as many ACKs as the window just
        # contracted by, so packets in flight sink to the new W.
        self.ignore_acks = int(before - self.w)
        self.recovery_seq = last_tx_seq
        return True


# -- TFRC-equation rate controller --------------------------------------------


@register_controller("tfrc")
class TfrcController:
    """Equation-based rate controller (TFRC discipline) for the arena.

    Args:
        cc: the shared session tunables (unused beyond being the
            uniform factory argument — the equation has its own knobs).
        min_rate_pps / max_rate_pps: rate clamps in packets/second;
            the floor keeps the probe alive so the estimate can
            recover, the ceiling bounds pre-loss slow start.
        initial_rate_pps: starting rate.
        b / rto_rtts: Padhye-equation parameters (packets per ACK,
            RTO in RTTs).
        rtt_fallback: control RTT before the first time-RTT sample.
        bucket_cap: pacing-bucket burst allowance (packets, at
            least one: a smaller bucket never holds a whole token).

    ``w`` is the equivalent window (``rate · RTT`` in packets, floored
    at 1) so window-denominated telemetry and invariants read something
    meaningful; ``tokens`` is the pacing bucket, and ``ignore_acks``
    stays 0 (a rate backend never deflates through ACKs).
    """

    name = "tfrc"
    kind = "rate"
    congestion_signals = ("dupack", "timeout")

    def __init__(self, cc: "CcConfig", min_rate_pps: float = 0.5,
                 max_rate_pps: float = 2000.0, initial_rate_pps: float = 8.0,
                 b: float = 1.0, rto_rtts: float = 4.0,
                 rtt_fallback: float = 0.3, bucket_cap: float = 2.0):
        if min_rate_pps <= 0 or max_rate_pps < min_rate_pps:
            raise ValueError("need 0 < min_rate_pps <= max_rate_pps")
        if bucket_cap < 1.0:
            raise ValueError(f"bucket_cap must be >= 1, got {bucket_cap}")
        self.model = PadhyeModel(b=b, rto_rtts=rto_rtts)
        self.intervals = LossIntervalEstimator()
        self.min_rate_pps = min_rate_pps
        self.max_rate_pps = max_rate_pps
        self.rtt_fallback = rtt_fallback
        self.bucket_cap = bucket_cap
        self.rate_pps = min(max(initial_rate_pps, min_rate_pps), max_rate_pps)
        self.srtt: Optional[float] = None
        self.tokens = 1.0
        self.ignore_acks = 0
        self.recovery_seq: Optional[int] = None
        self.losses_reacted = 0
        self.losses_ignored = 0
        self.timeouts = 0
        self._last_refill = 0.0
        self._last_double: Optional[float] = None

    @property
    def w(self) -> float:
        return max(1.0, self.rate_pps * self._control_rtt())

    # -- pacing ------------------------------------------------------------

    def _refill(self, now: float) -> None:
        if now > self._last_refill:
            self.tokens = min(self.bucket_cap,
                              self.tokens + (now - self._last_refill)
                              * self.rate_pps)
        self._last_refill = max(self._last_refill, now)

    #: credit tolerance so a pacing wake-up scheduled at exactly the
    #: refill horizon cannot starve on float rounding (delay * rate
    #: re-accumulating to just under one token forever).
    TOKEN_EPS = 1e-9

    @property
    def can_send(self) -> bool:
        return self.tokens >= 1.0 - self.TOKEN_EPS

    def send_delay(self, now: float) -> Optional[float]:
        self._refill(now)
        need = 1.0 - self.tokens
        if need <= self.TOKEN_EPS:
            return 0.0
        return need / self.rate_pps + self.TOKEN_EPS

    # -- contract events ---------------------------------------------------

    def on_send(self, seq: int, now: float) -> None:
        self._refill(now)
        self.tokens = max(0.0, self.tokens - 1.0)

    def on_ack(self, now: float, in_flight: Optional[int] = None) -> None:
        self.intervals.update(False)
        self._update_rate(now)

    def on_congestion(self, loss_seq: int, last_tx_seq: int,
                      in_flight: Optional[int], now: float) -> bool:
        if self.recovery_seq is not None and loss_seq <= self.recovery_seq:
            self.losses_ignored += 1
            return False
        self.losses_reacted += 1
        self.recovery_seq = last_tx_seq
        self.intervals.update(True)
        self._update_rate(now)
        return True

    def on_timeout(self, now: float) -> None:
        # TFRC's no-feedback timer: halve the allowed rate.
        self.timeouts += 1
        self.rate_pps = max(self.min_rate_pps, self.rate_pps / 2.0)
        self.tokens = min(self.tokens, 1.0)
        self.recovery_seq = None
        self._last_double = now

    def observe_report(self, report: "ReceiverReport",
                       srtt: Optional[float], now: float) -> None:
        if srtt is not None:
            self.srtt = srtt

    def kick(self, clear_ignore: bool = False) -> None:
        self.tokens = max(self.tokens, 1.0)

    # -- the equation ------------------------------------------------------

    def _control_rtt(self) -> float:
        return self.srtt if self.srtt is not None else self.rtt_fallback

    def _update_rate(self, now: float) -> None:
        rtt = self._control_rtt()
        p = self.intervals.loss_rate
        if p <= 0.0:
            # No loss event yet: double at most once per RTT instead of
            # evaluating the equation at p -> 0 (which would jump
            # straight to the ceiling and blow the path's queues before
            # control starts).
            if self._last_double is None or now - self._last_double >= rtt:
                self.rate_pps = min(self.max_rate_pps, self.rate_pps * 2.0)
                self._last_double = now
            return
        rate = self.model.throughput(rtt, p)
        self.rate_pps = min(self.max_rate_pps, max(self.min_rate_pps, rate))

    # -- documents ---------------------------------------------------------

    def state_summary(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "rate_pps": self.rate_pps,
            "tokens": self.tokens,
            "loss_event_rate": self.intervals.loss_rate,
            "srtt": self.srtt,
            "timeouts": self.timeouts,
            "losses_reacted": self.losses_reacted,
            "losses_ignored": self.losses_ignored,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TfrcController rate={self.rate_pps:.1f}pps "
                f"p={self.intervals.loss_rate:.4f}>")
