"""Tests for the RNG registry and trace recording."""

from repro.simulator.rng import RngRegistry
from repro.simulator.trace import FlowTrace


class TestRngRegistry:
    def test_same_name_same_stream_object(self):
        reg = RngRegistry(1)
        assert reg.stream("a") is reg.stream("a")

    def test_deterministic_across_registries(self):
        a = RngRegistry(5).stream("loss:L1")
        b = RngRegistry(5).stream("loss:L1")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_order_independent(self):
        r1 = RngRegistry(5)
        r1.stream("x")
        v1 = r1.stream("y").random()
        r2 = RngRegistry(5)
        v2 = r2.stream("y").random()
        assert v1 == v2

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").random()
        b = RngRegistry(2).stream("x").random()
        assert a != b

    def test_different_names_differ(self):
        reg = RngRegistry(1)
        assert reg.stream("x").random() != reg.stream("y").random()


class TestFlowTrace:
    def make(self):
        t = FlowTrace()
        t.log(1.0, "data", 0, 1400)
        t.log(2.0, "data", 1, 1400)
        t.log(2.5, "ack", 0)
        t.log(3.0, "rdata", 0, 1400)
        t.log(4.0, "data", 2, 1400)
        return t

    def test_count_and_times(self):
        t = self.make()
        assert t.count("data") == 3
        assert t.times("ack") == [2.5]

    def test_between_is_half_open(self):
        t = self.make()
        sub = t.between(2.0, 4.0)
        assert len(sub) == 3  # 2.0, 2.5, 3.0 — not 4.0

    def test_time_seq_series(self):
        t = self.make()
        assert t.time_seq("data") == [(1.0, 0), (2.0, 1), (4.0, 2)]

    def test_bytes_sent_by_kind(self):
        t = self.make()
        assert t.bytes_sent("data") == 3 * 1400
        assert t.bytes_sent("rdata") == 1400

    def test_throughput_over_a_window(self):
        t = self.make()
        assert t.throughput_bps(1.0, 3.0) == 2 * 1400 * 8 / 2.0
        assert t.throughput_bps(0.0, 5.0, kind="rdata") == 1400 * 8 / 5.0
        # an empty window carried nothing
        assert t.throughput_bps(3.0, 3.0) == t.throughput_bps(4.0, 3.0) == 0.0

    def test_of_kind_multi(self):
        t = self.make()
        assert len(t.of_kind("data", "rdata")) == 4

    def test_iteration_and_len(self):
        t = self.make()
        assert len(list(t)) == len(t) == 5

