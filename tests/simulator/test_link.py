"""Unit tests for the rate/delay/queue/loss link.

The timing and queueing behaviour is pinned differentially: every
script in ``TestAgainstReference`` (and every hypothesis-generated one
in ``test_link_properties.py``) runs on :class:`Link` and on the
test-local :class:`ReferenceLink`, which shares no code with it.
"""

import random
from types import SimpleNamespace

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.loss_models import BernoulliLoss, DeterministicLoss
from repro.simulator.packet import Packet
from repro.simulator.queues import DropTailQueue


def make_link(sim, rate=8000.0, delay=0.1, **kw):
    received = []
    link = Link(sim, "L", rate_bps=rate, delay=delay,
                deliver=received.append, **kw)
    return link, received


class TestTiming:
    def test_serialization_plus_propagation(self):
        sim = Simulator()
        link, _ = make_link(sim, rate=8000.0, delay=0.1)
        arrival = []
        link.connect(lambda packet: arrival.append(sim.now))
        link.send(Packet("a", "b", 100))  # 100B at 8000bps = 0.1s tx
        sim.run()
        assert arrival == [pytest.approx(0.2)]


class TestDrops:
    def test_random_loss_consumes_no_bandwidth(self):
        sim = Simulator()
        link, received = make_link(sim, loss=DeterministicLoss([1]))
        assert not link.send(Packet("a", "b", 100))
        assert link.random_drops == 1
        link.send(Packet("a", "b", 100))
        sim.run()
        # the surviving packet transmits immediately (first was pre-drop)
        assert sim.now == pytest.approx(0.2)
        assert len(received) == 1

    def test_bernoulli_loss_rate(self):
        sim = Simulator()
        link, received = make_link(
            sim, rate=1e9, delay=0.0,
            loss=BernoulliLoss(0.3, random.Random(7)),
            queue=DropTailQueue(max_slots=100000),
        )
        n = 5000
        for _ in range(n):
            link.send(Packet("a", "b", 100))
        sim.run()
        rate = link.random_drops / n
        assert 0.27 < rate < 0.33

    def test_send_returns_false_on_drop(self):
        sim = Simulator()
        link, _ = make_link(sim, queue=DropTailQueue(max_slots=1))
        assert link.send(Packet("a", "b", 100))  # transmitting
        assert link.send(Packet("a", "b", 100))  # queued
        assert not link.send(Packet("a", "b", 100))  # dropped


class TestAccounting:
    def test_counters(self):
        sim = Simulator()
        link, received = make_link(sim)
        for _ in range(3):
            link.send(Packet("a", "b", 50))
        sim.run()
        assert link.sent == 3
        assert link.delivered == 3
        assert link.bytes_delivered == 150

    def test_observer_event_sequence(self):
        # what the outside sees of one packet, through the counters
        # and the delivery target: sent and on the wire, then delivered
        sim = Simulator()
        link, _ = make_link(sim)
        events = []

        def state(tag):
            events.append((tag, link.sent, link.in_transit, link.delivered))

        link.connect(lambda packet: state("deliver"))
        link.send(Packet("a", "b", 100))
        state("send")
        sim.run()
        assert events == [("send", 1, 1, 0), ("deliver", 1, 0, 1)]

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "bad", rate_bps=0, delay=0.1)
        with pytest.raises(ValueError):
            Link(sim, "bad", rate_bps=1000, delay=-1)

    def test_a_bad_mid_run_knob_fails_at_the_write(self):
        sim = Simulator()
        link, _ = make_link(sim, rate=8000.0, delay=0.1)
        link.send(Packet("a", "b", 100))
        link.send(Packet("a", "b", 100))  # one waiting: a re-time is due
        with pytest.raises(ValueError, match="rate_bps must be positive"):
            link.rate_bps = 0
        with pytest.raises(ValueError, match="delay cannot be negative"):
            link.delay = -1
        # the refused writes changed nothing
        assert (link.rate_bps, link.delay) == (8000.0, 0.1)
        arrivals = []
        link.connect(lambda packet: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [pytest.approx(0.2), pytest.approx(0.3)]

    def test_utilization(self):
        sim = Simulator()
        link, _ = make_link(sim, rate=8000.0, delay=0.0)
        link.send(Packet("a", "b", 100))
        sim.run(until=1.0)
        assert link.utilization_bps == pytest.approx(800.0)


class ReferenceLink:
    """The textbook link: two events per packet — end of serialisation
    (which also starts the next queued packet), then arrival one
    propagation delay later.  A packet is serialised at the rate and
    delay in force when its serialisation starts.  Written from the
    model, not from ``link.py``; only the engine and the queue are
    shared."""

    def __init__(self, sim, rate_bps, delay, queue, deliver):
        self.sim, self.rate_bps, self.delay = sim, rate_bps, delay
        self.queue, self.deliver = queue, deliver
        self.busy, self.up = False, True
        self.sent = self.delivered = self.fault_drops = self.in_transit = 0

    def send(self, packet):
        self.sent += 1
        if not self.up:
            self.fault_drops += 1
            return False
        if self.busy:
            return self.queue.offer(packet)
        self._start(packet)
        return True

    def set_down(self):
        self.up = False

    def set_up(self):
        self.up = True

    def _start(self, packet):
        self.busy = True
        self.in_transit += 1
        self.sim.schedule(packet.size * 8.0 / self.rate_bps, self._done, packet,
                          self.delay)

    def _done(self, packet, delay):
        self.sim.schedule(delay, self._arrive, packet)
        nxt = self.queue.pop()
        if nxt is None:
            self.busy = False
        else:
            self._start(nxt)

    def _arrive(self, packet):
        self.in_transit -= 1
        self.delivered += 1
        self.deliver(packet)


def run_script(kind, script, rate, delay, queue_limits):
    """Drive one link through ``script`` and return what it did.

    ``script`` is a list of ``(gap, op, arg)``: advance the clock by
    ``gap`` seconds — or, for ``"tx"``, to exactly the instant the last
    sent packet would finish serialising on an idle link — let every
    event due by then fire, then apply ``op``: ``"send"`` (``arg`` =
    size), ``"down"``, ``"up"``, ``"rate"`` (assign ``rate_bps = arg``)
    or ``"delay"`` (assign ``delay = arg``).  Ops are applied from
    outside the event loop so an arrival that ties with an end of
    serialisation always comes after it, on both links.
    """
    sim = Simulator()
    queue = DropTailQueue(**queue_limits)
    state = []  # counters once every event due by each op has fired
    deliveries = []

    def check_conservation():
        if kind is Link:
            assert link.conserves_packets()

    def deliver(packet):
        deliveries.append((sim.now, packet.payload))
        check_conservation()

    if kind is Link:
        link = Link(sim, "L", rate_bps=rate, delay=delay, deliver=deliver,
                    queue=queue)
    else:
        link = ReferenceLink(sim, rate, delay, queue, deliver)
    returns = []
    now = tx_end = 0.0
    for tag, (gap, op, arg) in enumerate(script):
        now = max(now, tx_end) if gap == "tx" else now + gap
        sim.run(until=now)
        if op == "send":
            packet = (Packet("a", "b", arg, payload=tag) if kind is Link
                      else SimpleNamespace(size=arg, payload=tag))
            returns.append(link.send(packet))
            tx_end = now + arg * 8.0 / rate
        elif op == "rate":
            link.rate_bps = rate = arg
        elif op == "delay":
            link.delay = arg
        else:
            getattr(link, "set_" + op)()
        # occupancy as an outside reader sees it, read before the
        # conservation check gets a chance to settle anything
        seen = link.queue
        state.append((sim.now, link.sent, link.delivered, link.fault_drops,
                      link.in_transit, len(seen), seen.bytes_queued,
                      seen.enqueues, seen.drops, seen.peak_slots,
                      seen.peak_bytes))
        check_conservation()
    while sim.pending():
        sim.run(max_events=1)
        check_conservation()
    return SimpleNamespace(deliveries=deliveries, returns=returns,
                           state=state, events=sim.events_processed,
                           delivered=link.delivered, enqueues=queue.enqueues)


def assert_matches_reference(script, rate=8000.0, delay=0.1, **queue_limits):
    """Same deliveries at bit-identical times, same accept/drop
    answers, same counters at every step — in one event per delivered
    packet where the reference spends two."""
    queue_limits = queue_limits or {"max_slots": 2}
    got = run_script(Link, script, rate, delay, queue_limits)
    want = run_script(ReferenceLink, script, rate, delay, queue_limits)
    assert got.deliveries == want.deliveries
    assert got.returns == want.returns
    assert got.state == want.state
    assert want.events == 2 * want.delivered
    assert got.events == got.delivered
    return got


def burst(n, size=100):
    return [(0.0, "send", size)] * n


class TestAgainstReference:
    def test_back_to_back_packets_queue(self):
        got = assert_matches_reference(burst(2), delay=0.0)
        # 100 B at 8000 bit/s: the second waits for the first's 0.1 s
        assert [t for t, _ in got.deliveries] == [pytest.approx(0.1),
                                                  pytest.approx(0.2)]
        assert got.events == 2  # the wait cost arithmetic, not an event

    def test_queue_overflow_drops(self):
        got = assert_matches_reference(burst(5))
        # 1 in transmission + 2 queued are accepted, the rest dropped
        assert got.returns == [True, True, True, False, False]
        assert got.delivered == 3

    def test_throughput_matches_rate(self):
        got = assert_matches_reference(burst(100), rate=80_000.0, delay=0.01,
                                       max_slots=1000)
        # 100 x 100 B = 80_000 bits at 80 kbit/s -> 1.0 s + delay
        assert got.deliveries[-1][0] == pytest.approx(1.01)
        assert got.delivered == 100

    def test_arrival_exactly_when_the_wire_frees_is_not_queued(self):
        got = assert_matches_reference(
            [(0.0, "send", 100), ("tx", "send", 100), ("tx", "send", 40)])
        assert got.enqueues == 0 and got.events == 3

    def test_byte_limited_queue(self):
        assert_matches_reference(
            burst(2, 100) + burst(3, 40) + [(0.15, "send", 100)] + burst(4, 60),
            max_bytes=150)

    def test_down_and_up_mid_burst(self):
        got = assert_matches_reference(
            burst(2) + [(0.01, "down", None)] + burst(2)
            + [(0.0, "up", None)] + burst(2))
        assert got.returns == [True, True, False, False, True, False]

    def test_squeezed_with_two_packets_waiting(self):
        got = assert_matches_reference(
            burst(3) + [(0.05, "rate", 2000.0)], delay=0.1)
        # the one on the wire keeps 8000 bit/s (0.1 s); the two behind
        # it serialise at 2000 bit/s (0.4 s each) from 0.1 s on
        assert [t for t, _ in got.deliveries] == [
            pytest.approx(0.2), pytest.approx(0.6), pytest.approx(1.0)]

    def test_delay_cut_with_one_waiting_and_one_on_the_wire(self):
        got = assert_matches_reference(
            burst(2) + [(0.05, "delay", 0.02)], delay=0.1)
        # on the wire: 0.1 s + the old 0.1 s; waiting: 0.2 s + the new 0.02 s
        assert [t for t, _ in got.deliveries] == [pytest.approx(0.2),
                                                  pytest.approx(0.22)]


class TestDepartureBeforeTyingArrival:
    """The one rule the one-event model adds: a waiting packet whose
    serialisation starts at ``t`` has left the queue for every arrival
    at ``t``.  With an end-of-serialisation event the answer depended on
    which of the two tying events had been inserted first."""

    def test_arrival_inside_the_event_loop_at_a_waiting_packets_start(self):
        sim = Simulator()
        link, received = make_link(sim, rate=8000.0, delay=0.0,
                                   queue=DropTailQueue(max_slots=1))
        start = 100 * 8.0 / 8000.0  # when the first packet frees the wire
        answers = []
        # inserted before anything the link schedules at ``start``
        sim.schedule_at(
            start, lambda: answers.append(link.send(Packet("a", "b", 100, 2))))
        assert link.send(Packet("a", "b", 100, 0))  # on the wire
        assert link.send(Packet("a", "b", 100, 1))  # waits; the queue is full
        assert not link.send(Packet("a", "b", 100, -1))
        sim.run()
        assert answers == [True]
        assert [packet.payload for packet in received] == [0, 1, 2]
        assert link.queue_drops == 1 and link.conserves_packets()
