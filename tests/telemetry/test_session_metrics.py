"""Session telemetry wiring: PgmSession.metrics, schema round-trips,
probe lifecycle inside a real session."""

import json

from repro.core.sender_cc import CcConfig
from repro.pgm import SessionConfig, create_session, enable_network_elements
from repro.pgm.telemetry import SUMMARY_LEAVES
from repro.simulator import LinkSpec, dumbbell, dumbbell_subtrees
from repro.simulator.faults import ControlBlackhole, FaultPlan
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


#: every summary value the export carries: summary path -> the export
#: leaves it shows, ``(section, name)``; two leaves show their sum
SHARED = {
    "odata_sent": [("counters", "sender.odata_sent")],
    "rdata_sent": [("counters", "sender.rdata_sent")],
    "bytes_sent": [("counters", "sender.bytes_sent")],
    "acks_received": [("counters", "sender.acks_received")],
    "naks_received": [("counters", "sender.naks_received")],
    "acker_switches": [("counters", "cc.acker_switches")],
    "acker_evictions": [("counters", "cc.acker_evictions")],
    "stalls": [("counters", "cc.stalls")],
    "window": [("gauges", "cc.window_w")],
    "malformed_dropped": [("counters", "sender.ingress_dropped"),
                          ("counters", "rx.ingress_dropped")],
    "unrecoverable_data_loss": [("counters", "rx.unrecoverable_loss")],
    "repair_latency": [("histograms", "repair.latency_s")],
    "stall_duration": [("histograms", "stall.duration_s")],
    "phases": [("spans", "stats")],
    "recovery.degraded_time_s": [("gauges", "liveness.degraded_time_s")],
    "recovery.ttr_last_s": [("gauges", "liveness.ttr_last_s")],
    "recovery.demotions": [("counters", "liveness.demotions")],
    "recovery.degraded_entries": [("counters", "liveness.degraded_entries")],
    "recovery.resyncs": [("counters", "rx.resyncs")],
    "recovery.unrecoverable_loss": [("counters", "rx.unrecoverable_loss")],
    "aggregate.promotions": [("counters", "agg.promotions")],
    "aggregate.demotions": [("counters", "agg.demotions")],
    "aggregate.promotions_deferred": [("counters", "agg.promotions_deferred")],
    "aggregate.synthetic_naks": [("counters", "agg.synthetic_naks")],
    "aggregate.synthetic_fake_naks": [("counters", "agg.synthetic_fake_naks")],
    "aggregate.population": [("gauges", "agg.population")],
    "aggregate.exact_cohort": [("gauges", "agg.exact_cohort")],
    "aggregate.tail": [("gauges", "agg.tail")],
}


def blackhole_session():
    """Lossy, watchdog and guard on, feedback cut for 4 s: stalls,
    demotions and a degraded span."""
    net = dumbbell(1, 2, LOSSY, seed=11)
    plan = FaultPlan((ControlBlackhole(a="R1", b="R0", at=3.0, duration=4.0,
                                       kinds=("Ack", "Nak")),))
    session = create_session(net, "h0", ["r0", "r1"], config=SessionConfig(
        cc=CcConfig(liveness=True), faults=plan, guard=True))
    net.run(until=12.0)
    return session


def aggregate_session():
    net = dumbbell_subtrees(24, subtrees=2, seed=5, bottleneck=LinkSpec(
        rate_bps=2_000_000, delay=0.02))
    session = create_session(net, "h0", [],
                             config=SessionConfig(aggregate=True))
    enable_network_elements(net, telemetry=session.metrics)
    net.run(until=4.0)
    return session


class TestSummaryInteroperability:
    def test_summary_matches_metrics_export(self):
        """One row per shared value: the summary shows the export's."""
        assert set(SHARED) == set(SUMMARY_LEAVES)
        for session in (blackhole_session(), aggregate_session()):
            summary = session.summary()
            doc = session.metrics.export()
            assert "schema" not in summary
            for path, leaves in SHARED.items():
                value = summary
                for key in path.split("."):
                    value = value[key]
                if session.aggregate is None and path.startswith("aggregate."):
                    assert value == 0, path  # the zeroed block
                    continue
                shown = [doc[section][name] for section, name in leaves]
                assert value == (shown[0] if len(shown) == 1
                                 else sum(shown)), path
            session.close()

    def test_summary_phases_and_repair_latency_sections(self):
        net, session = lossy_session(seconds=20.0)
        session.close()
        summary = session.summary()
        assert "slow_start" in summary["phases"]
        assert summary["repair_latency"]["count"] >= 0
