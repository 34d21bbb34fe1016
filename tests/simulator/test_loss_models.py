"""Unit tests for the loss models."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simulator.loss_models import (
    BernoulliLoss,
    DeterministicLoss,
    GilbertElliottLoss,
    PeriodicLoss,
)
from repro.simulator.packet import Packet


def pkt():
    return Packet("a", "b", 100)


class TestBernoulli:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5, random.Random(1))
        with pytest.raises(ValueError):
            BernoulliLoss(-0.1, random.Random(1))

    def test_zero_rate_never_drops(self):
        model = BernoulliLoss(0.0, random.Random(1))
        assert not any(model.should_drop(pkt()) for _ in range(100))

    def test_one_rate_always_drops(self):
        model = BernoulliLoss(1.0, random.Random(1))
        assert all(model.should_drop(pkt()) for _ in range(100))

    @pytest.mark.parametrize("rate", [0.01, 0.03, 0.05])
    def test_empirical_rate_close_to_nominal(self, rate):
        """The paper's lossy configs: 1%, 3%, 5%."""
        model = BernoulliLoss(rate, random.Random(42))
        n = 50_000
        drops = sum(model.should_drop(pkt()) for _ in range(n))
        assert abs(drops / n - rate) < 0.004

    def test_reproducible_with_seed(self):
        a = BernoulliLoss(0.5, random.Random(9))
        b = BernoulliLoss(0.5, random.Random(9))
        seq_a = [a.should_drop(pkt()) for _ in range(50)]
        seq_b = [b.should_drop(pkt()) for _ in range(50)]
        assert seq_a == seq_b


class TestGilbertElliott:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(random.Random(1), p_good_to_bad=1.5)

    def test_burstiness(self):
        """Losses cluster compared to Bernoulli at equal average rate."""
        model = GilbertElliottLoss(
            random.Random(3), p_good_to_bad=0.01, p_bad_to_good=0.2,
            good_loss=0.0, bad_loss=0.5,
        )
        drops = [model.should_drop(pkt()) for _ in range(50_000)]
        rate = sum(drops) / len(drops)
        assert abs(rate - model.steady_state_loss) < 0.01
        # count adjacent double-losses; bursty >> independent
        pairs = sum(1 for i in range(len(drops) - 1) if drops[i] and drops[i + 1])
        expected_independent = rate * rate * len(drops)
        assert pairs > 3 * expected_independent

    def test_steady_state_formula(self):
        model = GilbertElliottLoss(
            random.Random(1), p_good_to_bad=0.1, p_bad_to_good=0.1,
            good_loss=0.0, bad_loss=0.4,
        )
        assert model.steady_state_loss == pytest.approx(0.2)


def reference_decisions(seed, n, rate=None, ge=None):
    """The draw order the models promise: one uniform per packet for
    Bernoulli; transition, then loss, for Gilbert-Elliott."""
    rng, bad, out = random.Random(seed), False, []
    for _ in range(n):
        if ge is not None:
            bad = (rng.random() >= ge[1]) if bad else (rng.random() < ge[0])
            rate = ge[3] if bad else ge[2]
        out.append(rng.random() < rate)
    return out, rng.random()


probability = st.floats(min_value=0.0, max_value=1.0)


class TestDrawOrder:
    """Decisions are a pure function of the stream, draw for draw — what
    lets a link's loss stream be replayed, shared or compared."""

    @given(rate=probability, seed=st.integers(0, 2**32), n=st.integers(0, 600))
    def test_bernoulli_draws_once_per_packet(self, rate, seed, n):
        rng = random.Random(seed)
        model = BernoulliLoss(rate, rng)
        decisions = [model.should_drop(pkt()) for _ in range(n)]
        assert (decisions, rng.random()) == reference_decisions(seed, n, rate)

    @given(params=st.tuples(probability, probability, probability, probability),
           seed=st.integers(0, 2**32), n=st.integers(0, 600))
    def test_gilbert_elliott_draws_transition_then_loss(self, params, seed, n):
        rng = random.Random(seed)
        model = GilbertElliottLoss(rng, *params)
        decisions = [model.should_drop(pkt()) for _ in range(n)]
        assert (decisions, rng.random()) == reference_decisions(
            seed, n, ge=params)


class TestDeterministic:
    def test_drops_listed_indices(self):
        model = DeterministicLoss([2, 4])
        results = [model.should_drop(pkt()) for _ in range(5)]
        assert results == [False, True, False, True, False]


class TestPeriodic:
    def test_period_validation(self):
        with pytest.raises(ValueError):
            PeriodicLoss(0)

    def test_exact_rate(self):
        model = PeriodicLoss(10)
        drops = [model.should_drop(pkt()) for _ in range(100)]
        assert sum(drops) == 10
        assert drops[9] and drops[19]

    def test_offset_shifts_pattern(self):
        model = PeriodicLoss(10, offset=5)
        drops = [model.should_drop(pkt()) for _ in range(10)]
        assert drops.index(True) == 4
