"""Partition and ControlBlackhole fault primitives: cut computation,
heal semantics, the link-level control filter, stacked-episode
composition and packet conservation through it all."""

import pytest

from repro.simulator import NON_LOSSY, dumbbell
from repro.simulator.faults import (
    ControlBlackhole,
    FaultInjector,
    FaultPlan,
    LinkDown,
    Partition,
)
from repro.simulator.packet import Packet


def _links(net, pairs):
    return [net.nodes[a].links[b] for a, b in pairs]


class TestPartition:
    def test_validation_rejects_bad_sides(self):
        with pytest.raises(ValueError, match="non-empty"):
            Partition((), ("r0",), at=1.0)
        with pytest.raises(ValueError, match="overlap"):
            Partition(("h0", "R0"), ("R0", "r0"), at=1.0)

    def test_validate_against_rejects_unknown_node(self):
        net = dumbbell(1, 2, NON_LOSSY)
        plan = FaultPlan((Partition(("h0", "nope"), ("r0",), at=1.0),))
        with pytest.raises(ValueError):
            plan.validate_against(net)

    def test_validate_against_rejects_cut_with_no_links(self):
        net = dumbbell(1, 2, NON_LOSSY)
        # r0 and r1 are both leaves of R1: no link crosses r0|r1.
        plan = FaultPlan((Partition(("r0",), ("r1",), at=1.0),))
        with pytest.raises(ValueError, match="no links cross"):
            plan.validate_against(net)

    def test_cut_downs_every_crossing_link_both_ways_then_heals(self):
        net = dumbbell(1, 2, NON_LOSSY, seed=5)
        plan = FaultPlan((
            Partition(("h0", "R0"), ("R1", "r0", "r1"), at=1.0, duration=2.0),
        ))
        FaultInjector(net, plan)
        cut = _links(net, [("R0", "R1"), ("R1", "R0")])
        spared = _links(net, [("h0", "R0"), ("R1", "r0")])
        net.run(until=1.5)
        assert all(not link.up for link in cut)
        assert all(link.up for link in spared)
        net.run(until=3.5)
        assert all(link.up for link in cut)

    def test_overlapping_partitions_nest_via_refcount(self):
        net = dumbbell(1, 2, NON_LOSSY, seed=5)
        plan = FaultPlan((
            Partition(("h0", "R0"), ("R1", "r0", "r1"), at=1.0, duration=4.0),
            Partition(("h0", "R0"), ("R1", "r0", "r1"), at=2.0, duration=1.0),
        ))
        FaultInjector(net, plan)
        link = net.nodes["R0"].links["R1"]
        net.run(until=3.5)  # inner partition healed, outer still holds
        assert not link.up
        net.run(until=5.5)  # outer healed too
        assert link.up

    def test_partition_overlapping_linkdown_composes(self):
        net = dumbbell(1, 2, NON_LOSSY, seed=5)
        plan = FaultPlan((
            LinkDown("R0", "R1", at=1.0, duration=5.0),
            Partition(("h0", "R0"), ("R1", "r0", "r1"), at=2.0, duration=1.0),
        ))
        FaultInjector(net, plan)
        link = net.nodes["R0"].links["R1"]
        net.run(until=4.0)  # partition healed; LinkDown still active
        assert not link.up
        net.run(until=6.5)
        assert link.up

    def test_actions_recorded(self):
        net = dumbbell(1, 2, NON_LOSSY, seed=5)
        plan = FaultPlan((
            Partition(("h0", "R0"), ("R1", "r0", "r1"), at=1.0, duration=1.0),
        ))
        injector = FaultInjector(net, plan)
        net.run(until=3.0)
        # one cut link, both directions, down then up
        assert len(injector.actions("link-down")) == 2
        assert len(injector.actions("link-up")) == 2


class _FakeAck:
    pass


class TestControlBlackhole:
    def test_validation_requires_kinds(self):
        with pytest.raises(ValueError, match="kind"):
            ControlBlackhole("R0", "R1", at=1.0, kinds=())

    def test_filter_drops_only_named_kinds(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=5)
        link = net.nodes["h0"].links["R0"]
        link.set_control_filter(("_FakeAck",))
        dropped = link.send(Packet("h0", "R0", 64, _FakeAck(), "test"))
        passed = link.send(Packet("h0", "R0", 64, b"data", "test"))
        assert dropped is False and passed is True
        assert link.filter_drops == 1
        assert link.conserves_packets()
        link.set_control_filter(None)
        assert link.send(Packet("h0", "R0", 64, _FakeAck(), "test"))

    def test_blackhole_installs_and_restores_filter(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=5)
        plan = FaultPlan((
            ControlBlackhole("R1", "R0", at=1.0, duration=2.0,
                             kinds=("Ack", "Nak")),
        ))
        injector = FaultInjector(net, plan)
        link = net.nodes["R1"].links["R0"]
        net.run(until=1.5)
        assert link._filter_kinds == frozenset({"Ack", "Nak"})
        net.run(until=3.5)
        assert link._filter_kinds is None
        assert len(injector.actions("filter-set")) == 1
        assert len(injector.actions("filter-restore")) == 1

    def test_overlapping_blackholes_union_their_kinds(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=5)
        plan = FaultPlan((
            ControlBlackhole("R1", "R0", at=1.0, duration=4.0,
                             kinds=("Ack",)),
            ControlBlackhole("R1", "R0", at=2.0, duration=1.0,
                             kinds=("Nak",)),
        ))
        FaultInjector(net, plan)
        link = net.nodes["R1"].links["R0"]
        net.run(until=2.5)
        assert link._filter_kinds == frozenset({"Ack", "Nak"})
        net.run(until=3.5)  # inner popped: back to the outer set alone
        assert link._filter_kinds == frozenset({"Ack"})
        net.run(until=5.5)
        assert link._filter_kinds is None

    def test_both_directions(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=5)
        plan = FaultPlan((
            ControlBlackhole("R0", "R1", at=1.0, duration=1.0, both=True),
        ))
        FaultInjector(net, plan)
        net.run(until=1.5)
        assert net.nodes["R0"].links["R1"]._filter_kinds is not None
        assert net.nodes["R1"].links["R0"]._filter_kinds is not None

    def test_filter_drops_count_in_metrics_and_conservation(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=5)
        link = net.nodes["h0"].links["R0"]
        link.set_control_filter(("_FakeAck",))
        for _ in range(5):
            link.send(Packet("h0", "R0", 64, _FakeAck(), "test"))
        assert link.filter_drops == 5
        assert link.conserves_packets()
