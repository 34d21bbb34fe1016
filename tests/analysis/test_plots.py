"""Tests for the plain-text figure renderings."""

from repro.analysis import (
    bandwidth_series,
    render_bandwidth,
    render_flow_comparison,
    render_time_seq,
)
from repro.simulator.trace import FlowTrace


def steady_trace(rate_pps=10, payload=1000, duration=20.0):
    trace = FlowTrace()
    for i in range(int(duration * rate_pps)):
        trace.log(i / rate_pps, "data", i, payload)
    return trace


class TestRenderBandwidth:
    def test_bar_lengths_scale_with_rate(self):
        trace = FlowTrace()
        for i in range(10):
            trace.log(0.5, "data", i, 1000)  # all in the first bin
        trace.log(1.5, "data", 99, 1000)
        bins = bandwidth_series(trace, 0, 2, 1.0)
        out = render_bandwidth(bins, width=20)
        lines = out.splitlines()
        assert lines[0].count("#") == 20
        assert 0 < lines[1].count("#") <= 2

    def test_empty_series(self):
        assert "empty" in render_bandwidth([])

    def test_fixed_peak_scaling(self):
        bins = bandwidth_series(steady_trace(), 0, 20, 5.0)
        out = render_bandwidth(bins, width=10, max_rate_bps=160_000)
        # steady 80 kbit/s over a 160 kbit/s axis -> half-width bars
        for line in out.splitlines():
            assert line.count("#") == 5


class TestRenderTimeSeq:
    def test_data_renders_ascending_diagonal(self):
        trace = steady_trace()
        out = render_time_seq(trace, 0, 20, width=20, height=10)
        body = out.splitlines()[1:]
        # lowest sequence bottom-left, highest top-right
        assert body[-1][0] == "."
        assert body[0].rstrip()[-1] == "."

    def test_mark_overlays(self):
        marks = {100: ("nak", 100), 150: ("acker-switch", 0)}
        trace = FlowTrace()
        for i in range(200):  # steady_trace() with marks at 10 s and 15 s
            trace.log(i / 10, "data", i, 1000)
            if i in marks:
                trace.log(i / 10, *marks[i])
        out = render_time_seq(trace, 0, 20, width=40, height=10)
        assert "o" in out
        assert "|" in out

    def test_empty_window(self):
        out = render_time_seq(FlowTrace(), 0, 10)
        assert "no data" in out

    def test_legend_present(self):
        out = render_time_seq(steady_trace(), 0, 20)
        assert "data" in out.splitlines()[0]


class TestRenderComparison:
    def test_columns_per_flow(self):
        traces = {"pgm": steady_trace(), "tcp": steady_trace(rate_pps=5)}
        out = render_flow_comparison(traces, 0, 20, 5.0)
        lines = out.splitlines()
        assert "pgm" in lines[0] and "tcp" in lines[0]
        assert len(lines) == 5  # header + 4 bins
        # pgm column ~80 kbit/s, tcp ~40
        cells = lines[1].split()
        assert float(cells[1]) > float(cells[2])
