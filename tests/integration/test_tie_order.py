"""Tie-shuffle oracle: results are a function of the event *set*.

The engine dispatches same-timestamp events in insertion order, and
two PRs have had to ask whether a result depended on it (DESIGN.md §6,
"Link event model").  Here the question is a test: a test-local
``Simulator`` subclass breaks ties by a seeded random number instead
(and gives every link arrival an entry of its own, so no two copies of
a multicast packet share one and dispatch together), three small shapes of what the repo runs — the Fig. 4 dumbbell with
TCP, a Fig. 7 star with late joiners, a hybrid aggregate cell with
network elements — run under five such shuffles, and every leaf of
``session.summary()`` and ``session.metrics.export()`` must equal the
insertion-order run's, except the leaves ``ALLOWED`` names.

Two kinds of leaf are order-dependent by construction and would join
``ALLOWED`` for a shape that reached them; none of these does (on the
100-leaf ``fanout_100rx`` benchmark shape, 1446 repair latencies, the
first moves in one shuffle of three): ``Histogram`` percentiles once
the index-decimated reservoir has thinned (512 observations), and a
histogram's float running ``total`` / ``mean`` in the last ulp.
ROADMAP's "event *set*, not insertion order" item, half (a), retires
both.
"""

import heapq
import random
import sys
from pathlib import Path

import pytest

from repro.experiments.fig7_uncorrelated_loss import LEAF
from repro.experiments.scalability import HYBRID_BOTTLENECK
from repro.pgm import add_receiver, create_session, enable_network_elements
from repro.pgm.session import SessionConfig
from repro.simulator import (
    NON_LOSSY,
    PeriodicLoss,
    dumbbell,
    dumbbell_subtrees,
    star,
    topology,
)
from repro.simulator.engine import Simulator
from repro.tcp import create_tcp_flow

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

from diff_manifests import leaves  # noqa: E402

SHUFFLES = range(1, 6)


class ShuffledSimulator(Simulator):
    """Same-timestamp events dispatch in a seeded random order."""

    __slots__ = ("_rng",)

    def __init__(self, seed):
        super().__init__()
        self._rng = random.Random(seed)

    def schedule(self, delay, fn, *args):
        assert delay >= 0
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time, fn, *args):
        ev = [time, (self._rng.random(), self._seq), fn, args]
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def post_at(self, time, fn, *args):
        # never a shared entry: every link arrival is shuffled on its own
        return self.schedule_at(time, fn, *args)


def fig4_dumbbell_with_tcp():
    net = dumbbell(2, 4, NON_LOSSY, seed=11)
    session = create_session(net, "h0", ["r0", "r1", "r2"])
    create_tcp_flow(net, "h1", "r3")
    return net, session, 40.0


def star_with_late_joiners():
    net = star(20, LEAF, seed=17)
    session = create_session(net, "src", [f"r{i}" for i in range(5)])
    for i in range(5, 20):
        add_receiver(net, session, f"r{i}", at=5.0)
    return net, session, 40.0


def hybrid_cell_with_network_elements():
    net = dumbbell_subtrees(1000, subtrees=8, bottleneck=HYBRID_BOTTLENECK,
                            members="virtual", seed=101)
    plan = net.subtree_plan
    net.link("R0", plan.router(0)).loss = PeriodicLoss(period=50, offset=17)
    net.link("R0", plan.router(1)).loss = PeriodicLoss(period=80, offset=31)
    config = SessionConfig(aggregate=True, check_invariants=True,
                           strict_invariants=False, stop_at=8.0)
    session = create_session(net, "h0", [], config=config)
    enable_network_elements(net, telemetry=session.metrics)
    return net, session, 8.4


SHAPES = {shape.__name__: shape for shape in (
    fig4_dumbbell_with_tcp,
    star_with_late_joiners,
    hybrid_cell_with_network_elements,
)}

#: shape -> leaf -> why it may move.
ALLOWED = {
    "hybrid_cell_with_network_elements": {
        "metrics.counters.net.events_processed":
            "stop_at = 8.0 is a multiple of SPM_IVL, so sender.close() ties "
            "with the SPM heartbeat; insertion order closes first (the rule "
            "tests/pgm/test_session.py::test_stop_at_precedes_a_heartbeat_"
            "due_at_the_same_instant pins), a shuffle may send that one SPM "
            "first: 50 more hop events, no protocol counter",
    },
}


def run(shape, shuffle, monkeypatch):
    with monkeypatch.context() as patch:
        if shuffle is not None:
            patch.setattr(topology, "Simulator",
                          lambda: ShuffledSimulator(shuffle))
        net, session, until = shape()
    net.run(until=until)
    result = dict(leaves({"summary": session.summary(),
                          "metrics": session.metrics.export()}))
    session.close()
    return result


@pytest.mark.parametrize("name", SHAPES)
def test_results_do_not_depend_on_same_timestamp_dispatch_order(
        name, monkeypatch):
    expected = run(SHAPES[name], None, monkeypatch)
    assert expected["metrics.counters.net.events_processed"] > 10_000
    allowed = ALLOWED.get(name, {})
    for shuffle in SHUFFLES:
        got = run(SHAPES[name], shuffle, monkeypatch)
        moved = {leaf: (expected.get(leaf), got.get(leaf))
                 for leaf in (expected.keys() | got.keys()) - allowed.keys()
                 if expected.get(leaf) != got.get(leaf)}
        assert not moved, f"shuffle {shuffle} moved {moved}"


def test_the_shuffle_does_reorder_ties():
    """The oracle above is vacuous if the subclass still dispatches in
    insertion order."""
    orders = set()
    for shuffle in SHUFFLES:
        sim = ShuffledSimulator(shuffle)
        log = []
        for tag in range(6):
            sim.schedule(1.0, log.append, tag)
        sim.schedule_at(0.5, log.append, "first")
        sim.run()
        assert log[0] == "first" and sorted(log[1:]) == list(range(6))
        orders.add(tuple(log))
    assert len(orders) > 1


def test_the_shuffle_shares_no_heap_entry(monkeypatch):
    """Every delivery is shuffled on its own: under the subclass every
    live heap entry is one event (``pending()`` equals the live entries
    at every checkpoint), while on the same shape the insertion-order
    engine does share entries among link arrivals."""
    def shared_checkpoints(shuffle):
        with monkeypatch.context() as patch:
            if shuffle is not None:
                patch.setattr(topology, "Simulator",
                              lambda: ShuffledSimulator(shuffle))
            net, session, _ = star_with_late_joiners()
        sim, shared = net.sim, 0
        for step in range(1, 41):
            net.run(until=step * 0.25)
            live = sum(1 for ev in sim._heap if ev[2] is not None)
            shared += sim.pending() > live
        session.close()
        return shared

    assert shared_checkpoints(None) > 0
    assert shared_checkpoints(1) == 0
