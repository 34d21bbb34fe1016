"""Instrument semantics: exact stats, bounded deterministic reservoirs."""

import pytest

from repro.telemetry import Histogram, TimeSeries


class TestHistogram:
    def test_exact_stats_survive_decimation(self):
        h = Histogram("lat", max_samples=8)
        for i in range(1000):
            h.observe(float(i))
        # count/total/min/max/mean are exact regardless of reservoir size.
        assert h.count == 1000
        assert h.total == sum(range(1000))
        assert h.min == 0.0
        assert h.max == 999.0
        assert h.mean == pytest.approx(499.5)

    def test_reservoir_bounded(self):
        h = Histogram("lat", max_samples=16)
        for i in range(10_000):
            h.observe(float(i))
        assert len(h._samples) < 16

    def test_reservoir_deterministic(self):
        def fill():
            h = Histogram("lat", max_samples=32)
            for i in range(5000):
                h.observe((i * 37) % 101 / 10.0)
            return h.snapshot()

        assert fill() == fill()

    def test_percentiles_ordered(self):
        h = Histogram("lat")
        for i in range(200):
            h.observe(float(i))
        snap = h.snapshot()
        assert snap["p50"] <= snap["p90"] <= snap["p99"] <= snap["max"]
        assert snap["p50"] == pytest.approx(99.0, abs=5)

    def test_empty_snapshot(self):
        snap = Histogram("lat").snapshot()
        assert snap["count"] == 0
        assert snap["mean"] is None
        assert snap["p99"] is None

    def test_rejects_tiny_reservoir(self):
        with pytest.raises(ValueError):
            Histogram("lat", max_samples=1)


class TestTimeSeries:
    def test_records_points_in_order(self):
        ts = TimeSeries("w")
        for i in range(5):
            ts.append(float(i), i * 10.0)
        assert ts.points == [(0.0, 0.0), (1.0, 10.0), (2.0, 20.0),
                             (3.0, 30.0), (4.0, 40.0)]
        assert ts.last() == (4.0, 40.0)

    def test_decimation_preserves_temporal_coverage(self):
        ts = TimeSeries("w", max_points=16)
        for i in range(1000):
            ts.append(float(i), 0.0)
        pts = ts.points
        assert len(pts) < 16
        assert ts.count == 1000
        # Thinned but still spanning the run, early to late.
        assert pts[0][0] < 100
        assert pts[-1][0] > 850
        assert [t for t, _ in pts] == sorted(t for t, _ in pts)

    def test_decimation_deterministic(self):
        def fill():
            ts = TimeSeries("w", max_points=8)
            for i in range(300):
                ts.append(i * 0.5, float(i % 7))
            return ts.snapshot()

        assert fill() == fill()
