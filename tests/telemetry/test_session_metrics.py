"""Session telemetry wiring: PgmSession.metrics, schema round-trips,
probe lifecycle inside a real session."""

import json

from repro.pgm import SUMMARY_SCHEMA, create_session
from repro.simulator import LinkSpec, dumbbell
from repro.telemetry import METRICS_SCHEMA

LOSSY = LinkSpec(rate_bps=500_000, delay=0.050, queue_slots=30,
                 loss_rate=0.02)


def lossy_session(seconds=20.0, seed=11):
    net = dumbbell(1, 2, LOSSY, seed=seed)
    session = create_session(net, "h0", ["r0", "r1"])
    net.run(until=seconds)
    return net, session


class TestSessionMetrics:
    def test_counters_track_protocol_state(self):
        net, session = lossy_session()
        doc = session.metrics.export()
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["counters"]["sender.odata_sent"] == session.sender.odata_sent
        assert doc["counters"]["sender.naks_received"] > 0
        assert doc["counters"]["rx.delivered"] == sum(
            rx.delivered for rx in session.receivers)
        assert doc["gauges"]["rx.count"] == 2
        assert doc["gauges"]["cc.window_w"] > 0
        assert doc["meta"]["tsi"] == session.tsi
        session.close()

    def test_probe_series_recorded_on_sim_clock(self):
        net, session = lossy_session(seconds=10.0)
        series = session.metrics.snapshot()["series"]
        assert series["cc.window"]["count"] >= 9  # ~10s at the 1s interval
        times = [t for t, _ in series["cc.window"]["points"]]
        assert times == sorted(times)
        assert times[-1] <= 10.0
        session.close()

    def test_repair_latency_histogram_fills_under_loss(self):
        net, session = lossy_session(seconds=30.0)
        hist = session.metrics.snapshot()["histograms"]["repair.latency_s"]
        assert hist["count"] > 0
        assert 0.0 < hist["mean"] < 10.0
        session.close()

    def test_sender_phase_spans(self):
        net, session = lossy_session(seconds=30.0)
        session.close()
        stats = session.summary()["phases"]
        assert session.metrics.export()["spans"]["stats"] == stats
        assert "slow_start" in stats
        assert stats["slow_start"]["count"] >= 1
        assert "loss_recovery" in stats

    def test_close_drains_probe_from_heap(self):
        net, session = lossy_session(seconds=5.0)
        session.close()
        net.sim.run()
        assert net.sim.pending() == 0

    def test_export_survives_json_round_trip(self):
        net, session = lossy_session(seconds=10.0)
        doc = session.metrics.export(experiment="round-trip")
        restored = json.loads(json.dumps(doc, sort_keys=True))
        assert restored == json.loads(json.dumps(doc, sort_keys=True))
        assert restored["schema"] == METRICS_SCHEMA
        assert restored["counters"] == doc["counters"]
        session.close()


class TestSummaryInteroperability:
    def test_summary_matches_metrics_export(self):
        net, session = lossy_session(seconds=15.0)
        summary = session.summary()
        doc = session.metrics.export()
        assert summary["schema"] == SUMMARY_SCHEMA
        assert summary["odata_sent"] == doc["counters"]["sender.odata_sent"]
        assert summary["stalls"] == doc["counters"]["cc.stalls"]
        assert summary["acker_switches"] == doc["counters"]["cc.acker_switches"]
        assert summary["window"] == doc["gauges"]["cc.window_w"]
        session.close()

    def test_summary_phases_and_repair_latency_sections(self):
        net, session = lossy_session(seconds=20.0)
        session.close()
        summary = session.summary()
        assert "slow_start" in summary["phases"]
        assert summary["repair_latency"]["count"] >= 0
