"""Random-loss models for links.

The paper's "lossy" configurations use uniform random loss (e.g. 3 % or
5 %), emulating links with high statistical multiplexing.  We provide
that Bernoulli model plus a Gilbert-Elliott bursty model (used to study
NAK-storm behaviour, §3.8) and deterministic/trace models for tests.

Batched draws
-------------

The stochastic models (:class:`BernoulliLoss`,
:class:`GilbertElliottLoss`) accept a ``batch`` size: uniform variates
are pre-drawn in blocks and consumed from a buffer, which takes the
per-packet RNG method dispatch off the link hot path.  Because the
draws come from the same ``random.Random`` stream in the same order,
batched and unbatched decisions are bit-identical **as long as the
stream is exclusive to the model** — exactly the contract
:mod:`repro.simulator.topology` establishes with its per-link
``loss:{link}`` streams.  Models sharing an RNG with other consumers
must keep ``batch=1`` (the default, which draws directly).
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Protocol

from .packet import Packet


def _make_refill(rng: random.Random, batch: int) -> Callable[[], list]:
    """Return a zero-arg callable producing ``batch`` uniforms in [0, 1).

    The values are exactly what unbatched ``rng.random()`` calls
    would have drawn.
    """
    draw = rng.random
    return lambda: [draw() for _ in range(batch)]


class LossModel(Protocol):
    """Decides, per packet, whether a link drops it."""

    def should_drop(self, packet: Packet) -> bool:  # pragma: no cover
        ...


class NoLoss:
    """Never drops.  The default for "non-lossy" links, where all drops
    come from queue overflow (congestion)."""

    def should_drop(self, packet: Packet) -> bool:
        return False


class BernoulliLoss:
    """Independent uniform random loss with probability ``rate``.

    ``batch > 1`` pre-draws uniforms in blocks (see module docstring
    for the stream-exclusivity requirement).
    """

    def __init__(self, rate: float, rng: random.Random, batch: int = 1):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        if batch < 1:
            raise ValueError("batch must be >= 1")
        self.rate = rate
        self.batch = int(batch)
        self._rng = rng
        self._buf: list = []
        self._pos = 0
        self._refill = _make_refill(rng, self.batch)

    def should_drop(self, packet: Packet) -> bool:
        if self.batch == 1:
            return self._rng.random() < self.rate
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            buf = self._buf = self._refill()
            pos = 0
        self._pos = pos + 1
        return buf[pos] < self.rate

    def __repr__(self) -> str:  # pragma: no cover
        return f"BernoulliLoss({self.rate})"


class GilbertElliottLoss:
    """Two-state Markov (bursty) loss model.

    In the *good* state packets drop with ``good_loss``; in the *bad*
    state with ``bad_loss``.  Transition probabilities are evaluated per
    packet (two uniform draws each: transition, then loss).

    ``batch > 1`` pre-draws uniforms in blocks; same exclusivity
    requirement as :class:`BernoulliLoss`.
    """

    def __init__(
        self,
        rng: random.Random,
        p_good_to_bad: float = 0.01,
        p_bad_to_good: float = 0.2,
        good_loss: float = 0.0,
        bad_loss: float = 0.5,
        batch: int = 1,
    ):
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("good_loss", good_loss),
            ("bad_loss", bad_loss),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if batch < 2 and batch != 1:
            raise ValueError("batch must be >= 1")
        self._rng = rng
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.good_loss = good_loss
        self.bad_loss = bad_loss
        self.in_bad_state = False
        self.batch = int(batch)
        self._buf: list = []
        self._pos = 0
        self._refill = _make_refill(rng, max(self.batch, 2))

    def _draw2(self) -> tuple:
        """Two uniforms from the buffer (refilled so both always fit)."""
        pos = self._pos
        buf = self._buf
        if pos + 2 > len(buf):
            # Carry any leftover draw so no variate is skipped — the
            # consumed order must match the unbatched stream exactly.
            buf = self._buf = buf[pos:] + self._refill()
            pos = 0
        self._pos = pos + 2
        return buf[pos], buf[pos + 1]

    def should_drop(self, packet: Packet) -> bool:
        if self.batch == 1:
            transition, loss = self._rng.random(), None
        else:
            transition, loss = self._draw2()
        if self.in_bad_state:
            if transition < self.p_bad_to_good:
                self.in_bad_state = False
        else:
            if transition < self.p_good_to_bad:
                self.in_bad_state = True
        rate = self.bad_loss if self.in_bad_state else self.good_loss
        if loss is None:
            loss = self._rng.random()
        return loss < rate

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
