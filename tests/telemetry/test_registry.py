"""Registry semantics: get-or-create, pull bindings, spans, export
schema, probe teardown."""

import json

import pytest

from repro.telemetry import METRICS_SCHEMA, MetricsRegistry, SpanTracker


class TestInstrumentsByName:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.timeseries("s") is reg.timeseries("s")

    def test_push_values_appear_in_snapshot(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(0.2)
        reg.timeseries("s").append(1.0, 4.0)
        snap = reg.snapshot()
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["series"]["s"]["points"] == [[1.0, 4.0]]
        # counters and gauges are pull bindings only
        assert snap["counters"] == snap["gauges"] == {}


class TestBindings:
    def test_binding_sampled_at_snapshot_time(self):
        reg = MetricsRegistry()
        state = {"n": 0}
        reg.bind("live.n", lambda: state["n"])
        assert reg.snapshot()["counters"]["live.n"] == 0
        state["n"] = 7
        assert reg.snapshot()["counters"]["live.n"] == 7

    def test_gauge_kind_lands_in_gauges(self):
        reg = MetricsRegistry()
        reg.bind("w", lambda: 2.5, kind="gauge")
        snap = reg.snapshot()
        assert snap["gauges"]["w"] == 2.5
        assert "w" not in snap["counters"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().bind("x", lambda: 0, kind="series")


class TestSpans:
    def test_begin_end_accumulates(self):
        spans = SpanTracker()
        spans.begin("phase", 1.0)
        spans.end("phase", 3.5)
        spans.begin("phase", 10.0)
        spans.end("phase", 11.0)
        stats = spans.stats("phase")
        assert stats["count"] == 2
        assert stats["total_s"] == pytest.approx(3.5)
        assert stats["max_s"] == pytest.approx(2.5)
        assert stats["mean_s"] == pytest.approx(1.75)

    def test_end_without_begin_is_noop(self):
        spans = SpanTracker()
        spans.end("ghost", 5.0)
        assert spans.stats("ghost") is None

    def test_rebegin_restarts(self):
        spans = SpanTracker()
        spans.begin("p", 0.0)
        spans.begin("p", 10.0)  # restart supersedes the first begin
        spans.end("p", 11.0)
        assert spans.stats("p")["total_s"] == pytest.approx(1.0)

    def test_close_all_ends_open_spans(self):
        spans = SpanTracker()
        spans.begin("a", 0.0)
        spans.begin("b", 1.0)
        spans.close_all(4.0)
        assert spans.open == []
        assert spans.stats("a")["total_s"] == pytest.approx(4.0)
        assert spans.stats("b")["total_s"] == pytest.approx(3.0)


class TestExport:
    def test_versioned_schema_and_sections(self):
        reg = MetricsRegistry()
        reg.bind("c", lambda: 1)
        reg.meta["tsi"] = 7
        doc = reg.export(experiment="t")
        assert doc["schema"] == METRICS_SCHEMA == "pgmcc.session-metrics/v1"
        assert doc["enabled"] is True
        assert doc["meta"] == {"tsi": 7, "experiment": "t"}
        for section in ("counters", "gauges", "histograms", "series", "spans"):
            assert section in doc

    def test_export_is_json_and_sorted(self):
        reg = MetricsRegistry()
        reg.bind("z.b", lambda: 1)
        reg.bind("a.a", lambda: 1)
        reg.bind("m.m", lambda: 1)
        doc = reg.export()
        json.dumps(doc)  # must be JSON-serialisable as-is
        assert list(doc["counters"]) == ["a.a", "m.m", "z.b"]


class TestProbes:
    def test_close_stops_probes(self):
        class FakeProbe:
            stopped = False

            def stop(self):
                self.stopped = True

        reg = MetricsRegistry()
        probe = FakeProbe()
        reg.add_probe(probe)
        reg.close()
        assert probe.stopped
