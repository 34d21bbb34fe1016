"""Tests for throughput/fairness metrics and time series."""

import math
from types import SimpleNamespace

import pytest

from repro.analysis import (
    Bin,
    acker_occupancy,
    bandwidth_series,
    coefficient_of_variation,
    cumulative_bytes,
    jain_index,
    loss_event_rate,
    mean_rate,
    plateau_rate,
    throughput_bps,
    throughput_ratio,
)
from repro.simulator.trace import FlowTrace


def steady_trace(rate_pps=10, payload=1000, duration=20.0, kind="data"):
    trace = FlowTrace()
    # exact i/rate timestamps avoid float-accumulation drift across
    # bin boundaries
    for i in range(int(duration * rate_pps)):
        trace.log(i / rate_pps, kind, i, payload)
    return trace


class TestThroughput:
    def test_steady_rate_measured(self):
        trace = steady_trace(rate_pps=10, payload=1000)
        assert throughput_bps(trace, 0, 20) == pytest.approx(80_000, rel=0.01)

    def test_window_restriction(self):
        trace = FlowTrace()
        trace.log(1.0, "data", 0, 1000)
        trace.log(5.0, "data", 1, 1000)
        assert throughput_bps(trace, 0, 2) == pytest.approx(4000)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            throughput_bps(FlowTrace(), 5, 5)

    def test_kind_filter(self):
        trace = FlowTrace()
        trace.log(0.5, "data", 0, 1000)
        trace.log(0.6, "rdata", 0, 1000)
        assert throughput_bps(trace, 0, 1, kind="rdata") == pytest.approx(8000)


class TestJain:
    def test_equal_rates_index_one(self):
        assert jain_index([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_hog_index_one_over_n(self):
        assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_index([])

    def test_all_zero_vacuously_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_bounds(self):
        idx = jain_index([1.0, 2.0, 3.0])
        assert 1 / 3 <= idx <= 1.0


class TestAckerOccupancy:
    def test_time_as_acker_clipped_to_the_window(self):
        switches = [SimpleNamespace(time=t, new=rx)
                    for t, rx in ((1.0, "a"), (4.0, "b"), (6.0, "a"), (12.0, "b"))]
        # a: [3, 4) + [6, 10), b: [4, 6); the switch at 12 is past the window
        assert acker_occupancy(switches, 3.0, 10.0) == {"a": 5.0, "b": 2.0}

    def test_no_acker_yet(self):
        assert acker_occupancy([], 0.0, 10.0) == {}
        late = [SimpleNamespace(time=11.0, new="a")]
        assert acker_occupancy(late, 0.0, 10.0) == {}


class TestRatios:
    def test_ratio_ordering_independent(self):
        assert throughput_ratio(100, 200) == throughput_ratio(200, 100) == 2.0

    def test_starvation_is_inf(self):
        assert throughput_ratio(0.0, 100.0) == math.inf

    def test_cov(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0
        assert coefficient_of_variation([0, 10]) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            coefficient_of_variation([])

    def test_loss_event_rate(self):
        trace = FlowTrace()
        for t in (1.0, 3.0, 7.0):
            trace.log(t, "cc-loss", 0)
        assert loss_event_rate(trace, 0, 10) == pytest.approx(0.3)


class TestSeries:
    def test_bandwidth_series_bins(self):
        trace = steady_trace(rate_pps=10, payload=1000, duration=10)
        bins = bandwidth_series(trace, 0, 10, 1.0)
        assert len(bins) == 10
        for b in bins:
            assert b.rate_bps == pytest.approx(80_000, rel=0.01)

    def test_bin_properties(self):
        b = Bin(2.0, 4.0, 16000)
        assert b.rate_bps == 8000
        assert b.midpoint == 3.0

    def test_mean_rate(self):
        trace = steady_trace(rate_pps=10, payload=1000, duration=10)
        assert mean_rate(bandwidth_series(trace, 0, 10, 1.0)) == pytest.approx(
            80_000, rel=0.01
        )

    def test_plateau_rate_robust_to_transient(self):
        trace = FlowTrace()
        t = 0.0
        while t < 100.0:
            # steady 10 pps except a 5 s dropout
            if not 40 <= t < 45:
                trace.log(t, "data", 0, 1000)
            t += 0.1
        plateau = plateau_rate(trace, 0, 100, bin_width=5.0)
        assert plateau == pytest.approx(80_000, rel=0.02)

    def test_cumulative_bytes_monotone(self):
        trace = steady_trace(rate_pps=5, payload=500, duration=4)
        series = cumulative_bytes(trace)
        totals = [v for _, v in series]
        assert totals == sorted(totals)
        assert totals[-1] == 500 * len(series)

    def test_validation(self):
        trace = FlowTrace()
        with pytest.raises(ValueError):
            bandwidth_series(trace, 0, 10, 0)
        with pytest.raises(ValueError):
            bandwidth_series(trace, 10, 0, 1)
        with pytest.raises(ValueError):
            mean_rate([])
