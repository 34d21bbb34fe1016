"""Packet conservation, link by link, and the packet's plain lifetime.

Every packet offered to a link is delivered, dropped under one of the
drop counters, or still pending — ``Link.conserves_packets()``.  Checked
after every delivery on every link a scenario builds and, once it has
drained, with nothing pending anywhere.
"""

import pytest

from repro.experiments.registry import get_experiment
from repro.pgm.network_element import PgmNetworkElement
from repro.pgm.session import create_session
from repro.simulator import (
    ACCESS,
    LOSSY,
    Link,
    LinkSpec,
    Network,
    Packet,
    dumbbell,
)
from repro.simulator.faults import (
    BurstLoss,
    Corruption,
    Duplication,
    FaultPlan,
    flap_link,
)
from repro.sweep import expand_entries


@pytest.fixture
def links(monkeypatch):
    """Every ``Link`` built during the test; each one is checked for
    conservation right after each of its deliveries."""
    built = []
    init, deliver = Link.__init__, Link._deliver

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def checking_deliver(self, packet):
        deliver(self, packet)
        assert self.conserves_packets(), f"{self.name} at t={self.sim.now}"

    monkeypatch.setattr(Link, "__init__", recording_init)
    monkeypatch.setattr(Link, "_deliver", checking_deliver)
    return built


def assert_drained(links):
    assert links and any(link.delivered for link in links)
    for link in links:
        assert link.in_transit == 0 and link.queued == 0, link.name
        assert link.sent + link.fault_duplicates == (
            link.delivered + link.random_drops + link.corrupt_drops
            + link.fault_drops + link.filter_drops + link.queue_drops
        ), link.name


def lossy_session():
    net = dumbbell(1, 3, LOSSY, seed=11)
    create_session(net, "h0", ["r0", "r1", "r2"], stop_at=4.0)
    net.run(until=8.0)


def test_lossy_session_conserves_and_drains(links):
    lossy_session()
    assert_drained(links)


def test_ne_and_faults_session_conserves_and_drains(links):
    """The hard case: NEs re-forward what they intercept, fault episodes
    reject at ingress, duplication puts one packet on the wire twice,
    corruption replaces packets mid-flight."""
    duration = 6.0
    net = dumbbell(1, 3, LinkSpec(500_000, 0.050, queue_slots=30), seed=7)
    PgmNetworkElement(net.router("R0"))
    PgmNetworkElement(net.router("R1"))
    plan = FaultPlan(episodes=(
        *flap_link("R0", "R1", first_at=0.3 * duration,
                   down_for=0.05 * duration, up_for=0.1 * duration, cycles=2),
        BurstLoss("R0", "R1", at=0.5 * duration, duration=0.1 * duration,
                  loss_rate=0.8),
        Duplication("R0", "R1", at=0.6 * duration, duration=0.2 * duration,
                    rate=0.3),
        Corruption("R0", "R1", at=0.7 * duration, duration=0.2 * duration,
                   rate=0.1),
    ))
    create_session(net, "h0", ["r0", "r1", "r2"],
                   faults=plan, stop_at=0.8 * duration)
    net.run(until=2 * duration)
    assert_drained(links)
    bottleneck = net.link("R0", "R1")
    assert bottleneck.fault_duplicates and bottleneck.fault_drops


#: Fast, structurally diverse registry subset: plain fairness, TCP
#: competition, NE suppression, scripted faults, ECMP reordering and
#: bursty (Gilbert) loss.
REPRESENTATIVE = ("EXP-F3", "EXP-F4", "EXP-F6", "EXP-CHAOS",
                  "EXP-MPATH", "ABL-BURST")


@pytest.mark.parametrize("exp_id", REPRESENTATIVE)
def test_experiment_links_conserve(links, exp_id):
    """Experiments stop mid-flight, so packets are still pending at the
    end; the identity must hold at every delivery and at the stop (a
    study's every cell, as the report runs them)."""
    tasks, _ = expand_entries([get_experiment(exp_id)], 0.05)
    for task in tasks:
        task.run(0.05)
    assert links and all(link.conserves_packets() for link in links)


def test_the_oracle_catches_an_uncounted_delivery(links, monkeypatch):
    """Mutant: ``_deliver``'s ``delivered += 1`` never lands."""
    monkeypatch.setattr(
        Link, "delivered", property(lambda self: 0, lambda self, value: None),
        raising=False)
    with pytest.raises(AssertionError, match="h0->R0 at t="):
        lossy_session()


def test_a_kept_packet_is_still_that_packet():
    """An agent may keep the ``Packet`` it was handed, with no further
    call: the object is not handed out again under it."""
    kept, seen = [], []

    class Keeper:
        def handle_packet(self, packet):
            kept.append(packet)
            seen.append((packet.uid, packet.payload, packet.src))

    net = Network(seed=1)
    a, b = net.add_host("a"), net.add_host("b")
    net.duplex_link("a", "b", ACCESS)
    net.build_routes()
    b.register_agent("raw", Keeper())
    for i in range(50):
        net.sim.schedule(
            0.01 * i, lambda i=i: a.send(Packet("a", "b", 100, payload=f"m{i}")))
    net.run(until=2.0)
    assert [payload for _, payload, _ in seen] == [f"m{i}" for i in range(50)]
    assert [(p.uid, p.payload, p.src) for p in kept] == seen
