"""Tests for the equation-based rate controller baselines (§2.1)."""

import pytest

from repro.baselines import EquationRateSender
from repro.core.reports import ReceiverReport
from repro.pgm import constants as C
from repro.pgm.packets import Nak
from repro.pgm.receiver import PgmReceiver
from repro.simulator import LinkSpec, Packet, star


def make_sender(net, aggregation="max-report", **kw):
    net.set_group("mc:b", "src", [n for n in net.nodes if n.startswith("r")])
    return EquationRateSender(net.host("src"), "mc:b", tsi=9,
                              aggregation=aggregation, **kw)


class TestConstruction:
    def test_unknown_aggregation_rejected(self):
        net = star(1, LinkSpec(1_000_000, 0.01, queue_slots=30))
        with pytest.raises(ValueError):
            make_sender(net, aggregation="average-of-vibes")


class TestRateDynamics:
    def test_paces_at_configured_rate(self):
        net = star(1, LinkSpec(10_000_000, 0.01, queue_slots=100), seed=1)
        sender = make_sender(net, initial_rate_bps=112_000)  # 10 pkt/s
        net.sim.schedule(0.0, sender.start)
        net.run(until=0.99)  # before the first epoch update
        assert sender.packets_sent == pytest.approx(10, abs=2)
        sender.close()

    def test_probes_up_without_loss(self):
        net = star(1, LinkSpec(50_000_000, 0.01, queue_slots=1000), seed=2)
        sender = make_sender(net, initial_rate_bps=50_000, max_rate_bps=1_000_000)
        net.sim.schedule(0.0, sender.start)
        net.run(until=6.0)
        assert sender.rate_bps == 1_000_000  # doubled to the cap
        sender.close()

    def test_loss_reports_bring_rate_down(self):
        net = star(1, LinkSpec(2_000_000, 0.1, queue_bytes=30_000,
                               loss_rate=0.02), seed=3)
        sender = make_sender(net, rtt_estimate=0.2)
        rx = PgmReceiver(net.host("r0"), "mc:b", 9, "src", reliable=False,
                         rng=net.rng.stream("t"))
        net.sim.schedule(0.0, sender.start)
        net.run(until=60.0)
        assert sender.loss_estimate > 0.001
        assert sender.rate_bps < 2_000_000
        sender.close()
        rx.close()

    def test_min_rate_floor_holds(self):
        net = star(1, LinkSpec(1_000_000, 0.01, queue_slots=30), seed=4)
        sender = make_sender(net, min_rate_bps=16_000)
        # inject a catastrophic report directly
        report = ReceiverReport("r0", 0, 60_000)
        sender.handle_packet(
            Packet("r0", "src", 100, Nak(9, 0, report), C.PROTO)
        )
        net.sim.schedule(0.0, sender.start)
        net.run(until=10.0)
        assert sender.rate_bps >= 16_000
        sender.close()


class TestAggregation:
    def nak(self, rx, loss):
        return Packet(rx, "src", 100, Nak(9, 0, ReceiverReport(rx, 0, loss)), C.PROTO)

    def test_max_report_holds_worst_receiver(self):
        net = star(2, LinkSpec(1_000_000, 0.01, queue_slots=30), seed=5)
        sender = make_sender(net, aggregation="max-report")
        sender.handle_packet(self.nak("r0", 100))
        sender.handle_packet(self.nak("r1", 900))
        assert sender._aggregate_loss() == pytest.approx(900 / 65536)
        # a newer, better report from the same receiver replaces it
        sender.handle_packet(self.nak("r1", 50))
        assert sender._aggregate_loss() == pytest.approx(100 / 65536)

    def test_nak_count_scales_with_reporters(self):
        net = star(2, LinkSpec(1_000_000, 0.01, queue_slots=30), seed=6)
        sender = make_sender(net, aggregation="nak-count")
        sender._epoch_packets = 100
        for _ in range(5):
            sender.handle_packet(self.nak("r0", 100))
            sender.handle_packet(self.nak("r1", 100))
        assert sender._aggregate_loss() == pytest.approx(0.10)

    def test_trace_records_rate_updates(self):
        net = star(1, LinkSpec(1_000_000, 0.01, queue_slots=30), seed=7)
        sender = make_sender(net)
        net.sim.schedule(0.0, sender.start)
        net.run(until=5.5)
        assert sender.trace.count("rate-update") == 5
        sender.close()
