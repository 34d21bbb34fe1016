"""Random-loss models for links.

The paper's "lossy" configurations use uniform random loss (e.g. 3 % or
5 %), emulating links with high statistical multiplexing.  We provide
that Bernoulli model plus a Gilbert-Elliott bursty model (used to study
NAK-storm behaviour, §3.8) and deterministic/trace models for tests.
A lossless link holds no model at all (``Link.loss is None``), so its
hop calls none.
"""

from __future__ import annotations

import random
from typing import Iterable, Protocol

from .packet import Packet


class LossModel(Protocol):
    """Decides, per packet, whether a link drops it."""

    def should_drop(self, packet: Packet) -> bool:  # pragma: no cover
        ...


class BernoulliLoss:
    """Independent uniform random loss with probability ``rate``: one
    draw from ``rng`` per packet."""

    def __init__(self, rate: float, rng: random.Random):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._rng = rng

    def should_drop(self, packet: Packet) -> bool:
        return self._rng.random() < self.rate

    def __repr__(self) -> str:  # pragma: no cover
        return f"BernoulliLoss({self.rate})"


class GilbertElliottLoss:
    """Two-state Markov (bursty) loss model.

    In the *good* state packets drop with ``good_loss``; in the *bad*
    state with ``bad_loss``.  Transition probabilities are evaluated per
    packet (two uniform draws each: transition, then loss).
    """

    def __init__(
        self,
        rng: random.Random,
        p_good_to_bad: float = 0.01,
        p_bad_to_good: float = 0.2,
        good_loss: float = 0.0,
        bad_loss: float = 0.5,
    ):
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("good_loss", good_loss),
            ("bad_loss", bad_loss),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        self._rng = rng
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.good_loss = good_loss
        self.bad_loss = bad_loss
        self.in_bad_state = False

    def should_drop(self, packet: Packet) -> bool:
        transition = self._rng.random()
        if self.in_bad_state:
            if transition < self.p_bad_to_good:
                self.in_bad_state = False
        else:
            if transition < self.p_good_to_bad:
                self.in_bad_state = True
        rate = self.bad_loss if self.in_bad_state else self.good_loss
        return self._rng.random() < rate

    @property
    def steady_state_loss(self) -> float:
        """Long-run average loss rate implied by the chain."""
        pi_bad = self.p_good_to_bad / (self.p_good_to_bad + self.p_bad_to_good)
        return pi_bad * self.bad_loss + (1 - pi_bad) * self.good_loss


class DeterministicLoss:
    """Drops exactly the packets whose (1-based) arrival index is listed.

    Used by unit tests to create precisely reproducible gap patterns.
    """

    def __init__(self, drop_indices: Iterable[int]):
        self._drops = set(drop_indices)
        self._count = 0

    def should_drop(self, packet: Packet) -> bool:
        self._count += 1
        return self._count in self._drops


class PeriodicLoss:
    """Drops every ``period``-th packet (arrival index multiple).

    A handy way to impose an exact average loss rate of ``1/period``.
    """

    def __init__(self, period: int, offset: int = 0):
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = period
        self.offset = offset
        self._count = 0

    def should_drop(self, packet: Packet) -> bool:
        self._count += 1
        return (self._count + self.offset) % self.period == 0
