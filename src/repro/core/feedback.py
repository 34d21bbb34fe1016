"""Application feedback for unreliable use (§3.9).

When the reliability component is absent, pgmcc still provides the
source two kinds of feedback it can adapt to:

1. the content of receiver reports (loss rate and RTT), e.g. to size
   FEC redundancy or tune a real-time application's encoding; and
2. the token generation process itself — the application can be told
   when transmission capacity exists and generate data on the fly,
   instead of queueing ahead of the transport.

:class:`TokenRateEstimator` turns the token arrival process into a
smoothed rate estimate; :class:`AdaptiveSource` is a reference
implementation of an application that picks a quality level (or FEC
redundancy share) from that estimate, used by the live-stream example
and the unreliable-mode experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .reports import ReceiverReport


class TokenRateEstimator:
    """EWMA estimate of the session's sustainable packet rate.

    Fed with one event per transmission opportunity (token consumed);
    produces packets/second smoothed over ``tau`` seconds.
    """

    def __init__(self, tau: float = 2.0):
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau
        self._rate: Optional[float] = None
        self._last_time: Optional[float] = None

    def on_token(self, now: float) -> Optional[float]:
        """Record one transmission opportunity at time ``now``."""
        if self._last_time is not None:
            interval = now - self._last_time
            if interval > 0:
                import math

                sample = 1.0 / interval
                alpha = 1.0 - math.exp(-interval / self.tau)
                if self._rate is None:
                    self._rate = sample
                else:
                    self._rate += alpha * (sample - self._rate)
        self._last_time = now
        return self._rate

    @property
    def packets_per_second(self) -> Optional[float]:
        return self._rate

    def bits_per_second(self, payload_bytes: int) -> Optional[float]:
        if self._rate is None:
            return None
        return self._rate * payload_bytes * 8.0


@dataclass(frozen=True)
class QualityLevel:
    """One encoding level an adaptive source can emit."""

    name: str
    rate_bps: float


class AdaptiveSource:
    """Reference adaptive application driven by pgmcc feedback.

    Picks the highest :class:`QualityLevel` whose rate fits inside
    ``headroom`` times the estimated sustainable rate, with an
    ``up_margin`` hysteresis band so the level does not flap when the
    estimate hovers near a boundary.  Also exposes the most recent loss
    report so FEC-style applications can size redundancy (§3.9's first
    kind of feedback).
    """

    def __init__(
        self,
        levels: Sequence[QualityLevel],
        payload_bytes: int = 1400,
        headroom: float = 0.85,
        up_margin: float = 1.15,
        estimator: Optional[TokenRateEstimator] = None,
        on_level_change: Optional[Callable[[QualityLevel], None]] = None,
    ):
        if not levels:
            raise ValueError("need at least one quality level")
        if up_margin < 1.0:
            raise ValueError("up_margin must be >= 1 (hysteresis band)")
        self.levels = sorted(levels, key=lambda lv: lv.rate_bps)
        self.payload_bytes = payload_bytes
        self.headroom = headroom
        self.up_margin = up_margin
        self.estimator = estimator or TokenRateEstimator()
        self.on_level_change = on_level_change
        self.current = self.levels[0]
        self.last_report: Optional[ReceiverReport] = None
        self.level_changes: list[tuple[float, str]] = []

    def on_token(self, now: float) -> None:
        self.estimator.on_token(now)
        self._reconsider(now)

    def on_report(self, report: ReceiverReport) -> None:
        self.last_report = report

    def _reconsider(self, now: float) -> None:
        available = self.estimator.bits_per_second(self.payload_bytes)
        if available is None:
            return
        budget = available * self.headroom
        best = self.levels[0]
        for level in self.levels:
            if level.rate_bps <= budget:
                best = level
        if best.rate_bps > self.current.rate_bps:
            # Step up only once the budget clears the hysteresis band.
            if best.rate_bps * self.up_margin > budget:
                return
        if best is not self.current:
            self.current = best
            self.level_changes.append((now, best.name))
            if self.on_level_change is not None:
                self.on_level_change(best)

    @property
    def redundancy_share(self) -> float:
        """Suggested FEC redundancy share: about 3x the reported loss
        rate, clamped to [0.02, 0.5] (a common rule of thumb)."""
        loss = self.last_report.loss_rate if self.last_report else 0.0
        return min(0.5, max(0.02, 3.0 * loss))
