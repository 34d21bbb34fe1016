"""Tests for the election throughput models (§3.5, §5 future work)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loss_filter import to_fixed
from repro.core.throughput_models import (
    PadhyeModel,
    SimpleModel,
    make_model,
)


class TestFactory:
    def test_make_simple(self):
        assert isinstance(make_model("simple"), SimpleModel)

    def test_make_padhye(self):
        assert isinstance(make_model("padhye"), PadhyeModel)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_model("quantum")


class TestSimpleModel:
    def test_order_matches_rtt_sqrt_p(self):
        model = SimpleModel()
        # doubling RTT doubles slowness; quadrupling p doubles slowness
        base = model.slowness(10.0, 400)
        assert model.slowness(20.0, 400) == pytest.approx(2 * base)
        assert model.slowness(10.0, 1600) == pytest.approx(2 * base)

    def test_loss_floor(self):
        model = SimpleModel()
        assert model.slowness(10.0, 0) == model.slowness(10.0, 1)


class TestPadhyeModel:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PadhyeModel(b=0)
        with pytest.raises(ValueError):
            PadhyeModel(rto_rtts=-1)

    def test_matches_simple_at_low_loss(self):
        """Below ~1% loss, the timeout term vanishes and Padhye reduces
        to the sqrt model up to the constant sqrt(2b/3)."""
        padhye = PadhyeModel(b=1.0)
        rtt = 20.0
        for p in (0.001, 0.005):
            t_model = padhye.throughput(rtt, p)
            t_sqrt = 1.0 / (rtt * math.sqrt(2 * p / 3))
            assert t_model == pytest.approx(t_sqrt, rel=0.1)

    def test_penalises_high_loss_more_than_simple(self):
        """Footnote 3: the simple equation largely overestimates
        throughput above ~5% loss; Padhye's timeout term corrects it."""
        padhye = PadhyeModel()
        rtt = 20.0
        ratio_low = (1 / (rtt * math.sqrt(0.01))) / padhye.throughput(rtt, 0.01)
        ratio_high = (1 / (rtt * math.sqrt(0.30))) / padhye.throughput(rtt, 0.30)
        assert ratio_high > 3 * ratio_low

    def test_throughput_monotone_in_loss(self):
        padhye = PadhyeModel()
        rates = [padhye.throughput(20.0, p) for p in (0.001, 0.01, 0.05, 0.2, 0.5)]
        assert rates == sorted(rates, reverse=True)

    def test_zero_loss_infinite(self):
        assert PadhyeModel().throughput(10.0, 0.0) == math.inf

    @given(
        st.floats(min_value=1.0, max_value=500.0),
        st.floats(min_value=1e-4, max_value=0.9),
    )
    @settings(max_examples=200)
    def test_slowness_positive_finite(self, rtt, p):
        model = PadhyeModel()
        slowness = model.slowness(rtt, to_fixed(p))
        assert 0 < slowness < math.inf

    @given(st.floats(min_value=1.0, max_value=500.0))
    @settings(max_examples=100)
    def test_slowness_monotone_in_loss_fixed(self, rtt):
        model = PadhyeModel()
        values = [model.slowness(rtt, lf) for lf in (100, 1000, 10_000, 50_000)]
        assert values == sorted(values)


class TestElectionDivergence:
    """The scenario footnote 3 describes: a high-loss/low-RTT receiver
    vs a low-loss/high-RTT one — the models can rank them differently,
    with Padhye correctly penalising the heavy loss."""

    HIGH_LOSS_LOW_RTT = (5.0, to_fixed(0.30))
    LOW_LOSS_HIGH_RTT = (40.0, to_fixed(0.01))

    def test_simple_prefers_high_rtt_receiver_as_acker(self):
        simple = SimpleModel()
        s_lossy = simple.slowness(*self.HIGH_LOSS_LOW_RTT)
        s_far = simple.slowness(*self.LOW_LOSS_HIGH_RTT)
        # sqrt model: 5·sqrt(.3)=2.74 vs 40·sqrt(.01)=4.0 — the far
        # receiver looks slower
        assert s_far > s_lossy

    def test_padhye_flags_the_lossy_receiver(self):
        padhye = PadhyeModel()
        s_lossy = padhye.slowness(*self.HIGH_LOSS_LOW_RTT)
        s_far = padhye.slowness(*self.LOW_LOSS_HIGH_RTT)
        # the timeout term makes 30% loss the real bottleneck
        assert s_lossy > s_far

    def test_election_outcome_depends_on_model(self):
        from repro.core.acker import AckerElection
        from repro.core.reports import ReceiverReport

        last_tx = 100
        lossy = ReceiverReport("lossy", last_tx - 5, to_fixed(0.30))
        far = ReceiverReport("far", last_tx - 40, to_fixed(0.01))
        for model, expected in (("simple", "far"), ("padhye", "lossy")):
            election = AckerElection(c=1.0, model=model)
            election.on_nak_report(far, last_tx, 0.0)
            election.on_nak_report(lossy, last_tx, 1.0)
            # whichever is judged slower ends up (or stays) the acker
            if expected == "lossy":
                assert election.current == "lossy"
            else:
                assert election.current == "far"
