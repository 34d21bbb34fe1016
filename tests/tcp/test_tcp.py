"""Tests for the TCP Reno/NewReno baseline."""

import pytest

from repro.simulator import LOSSY, NON_LOSSY, LinkSpec, Network, dumbbell
from repro.simulator.routing import NoPath
from repro.tcp import TcpAck, TcpSegment, create_tcp_flow
from repro.tcp.sender import DUPACK_THRESHOLD, TcpSender
from repro.tcp.receiver import TcpReceiver
from repro.simulator.engine import Simulator
from repro.simulator.node import Host


class FakeHost(Host):
    """Host capturing everything it sends (unit-level tests)."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.outbox = []

    def send(self, packet):
        self.outbox.append(packet)
        return True


def unit_sender(**kw):
    sim = Simulator()
    host = FakeHost(sim, "a")
    sender = TcpSender(host, "b", flow_id=1, **kw)
    return sim, host, sender


class TestSenderUnit:
    def test_initial_window_one(self):
        sim, host, sender = unit_sender()
        sender.start()
        assert len(host.outbox) == 1
        assert host.outbox[0].payload.seq == 0

    def test_slow_start_doubles_per_rtt(self):
        sim, host, sender = unit_sender()
        sender.start()
        sender.on_ack(TcpAck(1, 1))
        assert sender.cwnd == 2.0
        assert len(host.outbox) == 3  # seq 0, then 1 and 2

    def test_dupacks_trigger_fast_retransmit(self):
        sim, host, sender = unit_sender()
        sender.start()
        for ackno in range(1, 9):
            sender.on_ack(TcpAck(1, ackno))
        host.outbox.clear()
        for _ in range(DUPACK_THRESHOLD):
            sender.on_ack(TcpAck(1, 8))
        assert sender.fast_retransmits == 1
        assert sender.in_recovery
        assert host.outbox[0].payload.seq == 8  # the retransmission

    def test_recovery_exit_on_full_ack(self):
        sim, host, sender = unit_sender()
        sender.start()
        for ackno in range(1, 9):
            sender.on_ack(TcpAck(1, ackno))
        for _ in range(3):
            sender.on_ack(TcpAck(1, 8))
        recovery_point = sender.recovery_point
        sender.on_ack(TcpAck(1, recovery_point))
        assert not sender.in_recovery
        assert sender.cwnd == pytest.approx(sender.ssthresh)

    def test_newreno_partial_ack_retransmits_next_hole(self):
        sim, host, sender = unit_sender()
        sender.start()
        for ackno in range(1, 11):
            sender.on_ack(TcpAck(1, ackno))
        for _ in range(3):
            sender.on_ack(TcpAck(1, 10))
        host.outbox.clear()
        # partial: advances but not past recovery_point
        sender.on_ack(TcpAck(1, 12))
        assert sender.in_recovery
        assert host.outbox[0].payload.seq == 12

    def test_rto_collapses_window(self):
        sim, host, sender = unit_sender()
        sender.start()
        for ackno in range(1, 9):
            sender.on_ack(TcpAck(1, ackno))
        assert sender.cwnd > 4
        sim.run(until=60.0)  # no more ACKs: RTO fires
        assert sender.timeouts >= 1
        assert sender.cwnd <= 2.0

    def test_rto_backoff_doubles(self):
        sim, host, sender = unit_sender()
        sender.start()
        sim.run(until=10.0)
        assert sender.timeouts >= 2
        assert sender._backoff >= 4.0

    def test_max_segments_completes(self):
        sim, host, sender = unit_sender(max_segments=5)
        sender.start()
        for ackno in range(1, 6):
            sender.on_ack(TcpAck(1, ackno))
        assert sender.done
        data = [p for p in host.outbox if isinstance(p.payload, TcpSegment)]
        assert len(data) == 5

    def test_srtt_sampling(self):
        sim, host, sender = unit_sender()
        sender.start()
        sim.schedule(0.3, lambda: sender.on_ack(TcpAck(1, 1)))
        sim.run(until=0.4)
        assert sender.srtt == pytest.approx(0.3)


class TestReceiverUnit:
    def make(self, delayed=False):
        sim = Simulator()
        host = FakeHost(sim, "b")
        return sim, host, TcpReceiver(host, "a", 1, delayed_acks=delayed)

    def test_cumulative_ack_advances(self):
        sim, host, rx = self.make()
        rx.on_segment(TcpSegment(1, 0, 1460))
        rx.on_segment(TcpSegment(1, 1, 1460))
        assert [p.payload.ackno for p in host.outbox] == [1, 2]

    def test_gap_produces_dupacks(self):
        sim, host, rx = self.make()
        rx.on_segment(TcpSegment(1, 0, 1460))
        rx.on_segment(TcpSegment(1, 2, 1460))
        rx.on_segment(TcpSegment(1, 3, 1460))
        assert [p.payload.ackno for p in host.outbox] == [1, 1, 1]

    def test_hole_filled_acks_jump(self):
        sim, host, rx = self.make()
        for s in (0, 2, 3, 1):
            rx.on_segment(TcpSegment(1, s, 1460))
        assert host.outbox[-1].payload.ackno == 4

    def test_duplicate_segment_reacked(self):
        sim, host, rx = self.make()
        rx.on_segment(TcpSegment(1, 0, 1460))
        rx.on_segment(TcpSegment(1, 0, 1460))
        assert rx.duplicates == 1
        assert len(host.outbox) == 2

    def test_delayed_ack_every_second_segment(self):
        sim, host, rx = self.make(delayed=True)
        rx.on_segment(TcpSegment(1, 0, 1460))
        assert host.outbox == []  # held
        rx.on_segment(TcpSegment(1, 1, 1460))
        assert [p.payload.ackno for p in host.outbox] == [2]

    def test_delayed_ack_timer_flush(self):
        sim, host, rx = self.make(delayed=True)
        rx.on_segment(TcpSegment(1, 0, 1460))
        sim.run(until=0.5)
        assert [p.payload.ackno for p in host.outbox] == [1]


class TestEndToEnd:
    def test_fills_clean_link(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=2)
        flow = create_tcp_flow(net, "h0", "r0")
        net.run(until=30.0)
        rate = flow.throughput_bps(10, 30)
        assert rate > 400_000  # most of 500 kbit/s

    def test_loss_limited_on_lossy_link(self):
        net = dumbbell(1, 1, LOSSY, seed=3)
        flow = create_tcp_flow(net, "h0", "r0")
        net.run(until=60.0)
        rate = flow.throughput_bps(20, 60)
        # far below the 2 Mbit/s capacity, but alive
        assert 40_000 < rate < 800_000

    def test_two_flows_share_fairly(self):
        net = dumbbell(2, 2, NON_LOSSY, seed=4)
        f1 = create_tcp_flow(net, "h0", "r0")
        f2 = create_tcp_flow(net, "h1", "r1")
        net.run(until=60.0)
        r1, r2 = f1.throughput_bps(20, 60), f2.throughput_bps(20, 60)
        assert max(r1, r2) / min(r1, r2) < 2.0

    def test_rtt_bias(self):
        """Shorter-RTT TCP wins more bandwidth — the classic bias the
        paper leans on when discussing Fig. 6."""
        net = Network(seed=5)
        for h in ("a1", "a2", "b1", "b2"):
            net.add_host(h)
        net.add_router("L")
        net.add_router("R")
        fast = LinkSpec(50_000_000, 0.001, queue_slots=100)
        slow = LinkSpec(50_000_000, 0.200, queue_slots=100)
        net.duplex_link("a1", "L", fast)
        net.duplex_link("a2", "L", slow)
        # Small queue so the RTT is propagation-dominated — the regime
        # where the classic 1/RTT bias is visible.
        net.duplex_link("L", "R", LinkSpec(2_000_000, 0.005, queue_slots=8))
        net.duplex_link("R", "b1", fast)
        net.duplex_link("R", "b2", fast)
        net.build_routes()
        f_short = create_tcp_flow(net, "a1", "b1")
        f_long = create_tcp_flow(net, "a2", "b2")
        net.run(until=120.0)
        assert f_short.throughput_bps(30, 120) > 1.5 * f_long.throughput_bps(30, 120)

    def test_flow_ids_isolated(self):
        """Two flows between the same host pair do not cross-talk."""
        net = dumbbell(1, 1, NON_LOSSY, seed=6)
        f1 = create_tcp_flow(net, "h0", "r0", max_segments=50)
        f2 = create_tcp_flow(net, "h0", "r0", max_segments=70)
        net.run(until=30.0)
        assert f1.sender.snd_una == 50
        assert f2.sender.snd_una == 70

    def test_a_flow_without_a_route_either_way_is_rejected_at_the_call(self):
        net = Network(seed=8)
        for h in ("a", "b"):
            net.add_host(h)
        net.add_router("R")
        net.duplex_link("a", "R", NON_LOSSY)
        net.simplex_link("R", "b", NON_LOSSY)  # b cannot answer
        net.build_routes()
        with pytest.raises(NoPath, match="from b to a.*build_routes"):
            create_tcp_flow(net, "a", "b")  # no way back for the ACKs
        with pytest.raises(NoPath, match="from b to a.*build_routes"):
            create_tcp_flow(net, "b", "a")  # no way out for the data
        assert net.next_flow_id() == 1  # neither call got as far as an id

    def test_stop_at_ends_flow(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=7)
        flow = create_tcp_flow(net, "h0", "r0", stop_at=5.0)
        net.run(until=20.0)
        assert max(flow.trace.times("data")) <= 5.0
