"""Registry semantics: get-or-create, pull bindings, views, the phase
spans read off a sender's log, export schema, probe teardown."""

import json

import pytest

from repro.pgm.telemetry import read_log
from repro.simulator.trace import FlowTrace
from repro.telemetry import METRICS_SCHEMA, MetricsRegistry


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
    """The phase-span rules, checked through a sender's log: a phase
    is a pair of records, and :func:`read_log` times it."""

    @staticmethod
    def _read(*records, now=None):
        trace = FlowTrace()
        for time, kind, *nbytes in records:
            trace.log(time, kind, 0, *nbytes)
        return read_log(trace, records[-1][0] if now is None else now)

    def test_begin_end_accumulates(self):
        log = self._read((1.0, "cc-loss"), (3.5, "ack", 1),
                         (10.0, "cc-loss"), (11.0, "ack", 1))
        stats = log.phases["loss_recovery"]
        assert stats["count"] == 2
        assert stats["total_s"] == pytest.approx(3.5)
        assert stats["max_s"] == pytest.approx(2.5)
        assert stats["mean_s"] == pytest.approx(1.75)

    def test_end_without_begin_is_noop(self):
        log = self._read((5.0, "ack", 1))
        assert log.phases == {}
        assert log.stall.count == 0

    def test_rebegin_restarts(self):
        # a second stall restarts the stall span ...
        log = self._read((0.0, "stall"), (10.0, "stall"), (11.0, "ack", 1))
        assert log.phases["stall"]["total_s"] == pytest.approx(1.0)
        # ... while the stall streak is timed from its first stall
        assert log.stall.max == pytest.approx(11.0)

    def test_close_all_ends_open_spans(self):
        log = self._read((0.0, "start"), (1.0, "stall"), (4.0, "close"),
                         now=9.0)
        assert log.open == []
        assert log.phases["slow_start"]["total_s"] == pytest.approx(4.0)
        assert log.phases["stall"]["total_s"] == pytest.approx(3.0)


class TestViews:
    def test_view_sections_merge_and_sort(self):
        reg = MetricsRegistry()
        reg.bind("z", lambda: 1.0, kind="gauge")
        reg.histogram("b").observe(1.0)
        state = {"calls": 0}

        def view():
            state["calls"] += 1
            return {"gauges": {"a": 2.0}, "histograms": {"a": {"count": 0}},
                    "spans": {"stats": {"p": {"count": 1}}, "open": ["q"]}}

        reg.add_view(view)
        snap = reg.snapshot()
        assert state["calls"] == 1  # one call per snapshot
        assert list(snap["gauges"]) == ["a", "z"]
        assert list(snap["histograms"]) == ["a", "b"]
        assert snap["spans"] == {"stats": {"p": {"count": 1}}, "open": ["q"]}

    def test_no_view_leaves_spans_empty(self):
        assert MetricsRegistry().snapshot()["spans"] == {"stats": {},
                                                         "open": []}


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
