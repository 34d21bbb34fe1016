"""Unit tests for the rate/delay/queue/loss link.

The timing and queueing behaviour is pinned differentially: every
script in ``TestAgainstReference`` (and every hypothesis-generated one
in ``test_link_properties.py``) runs on :class:`Link` and on the
test-local :class:`ReferenceLink`, which shares no code with it.
"""

import math
import random
from collections import deque
from types import SimpleNamespace

import pytest

from repro.simulator.engine import Simulator
from repro.simulator.link import Link
from repro.simulator.loss_models import BernoulliLoss, DeterministicLoss
from repro.simulator.packet import Packet


class Sink(list):
    """A far node that keeps every packet it receives."""

    def receive(self, packet, from_node):
        self.append(packet)


def calling(fn):
    """A far node that calls ``fn(packet)`` on each delivery."""
    return SimpleNamespace(receive=lambda packet, from_node: fn(packet))


def make_link(sim, rate=8000.0, delay=0.1, **kw):
    received = Sink()
    link = Link(sim, "L", rate_bps=rate, delay=delay, **kw)
    link.connect(received, "a")
    return link, received


class TestTiming:
    def test_serialization_plus_propagation(self):
        sim = Simulator()
        link, _ = make_link(sim, rate=8000.0, delay=0.1)
        arrival = []
        link.connect(calling(lambda packet: arrival.append(sim.now)), "a")
        link.send(Packet("a", "b", 100))  # 100B at 8000bps = 0.1s tx
        sim.run()
        assert arrival == [pytest.approx(0.2)]

    def test_the_far_node_is_told_the_near_end(self):
        sim = Simulator()
        link = Link(sim, "a->b", rate_bps=8000.0, delay=0.0)
        seen = []
        link.connect(SimpleNamespace(
            receive=lambda packet, from_node: seen.append(
                (packet.payload, from_node))), "a")
        link.send(Packet("a", "b", 100, 7))
        sim.run()
        assert seen == [(7, "a")]


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
            queue_slots=100000,
        )
        n = 5000
        for _ in range(n):
            link.send(Packet("a", "b", 100))
        sim.run()
        rate = link.random_drops / n
        assert 0.27 < rate < 0.33

    def test_send_returns_false_on_drop(self):
        sim = Simulator()
        link, _ = make_link(sim, queue_slots=1)
        assert link.send(Packet("a", "b", 100))  # transmitting
        assert link.send(Packet("a", "b", 100))  # queued
        assert not link.send(Packet("a", "b", 100))  # dropped

    @pytest.mark.parametrize("limits, sizes, accepted", [
        ({"queue_slots": 2}, [100] * 4, [True] * 3 + [False]),
        ({"queue_bytes": 250}, [100] * 4 + [50], [True] * 3 + [False, True]),
        ({"queue_slots": 10, "queue_bytes": 150}, [100] * 3,
         [True, True, False]),
        ({}, [1500] * 32, [True] * 31 + [False]),
        ({"queue_bytes": 30_000}, [1500] * 22, [True] * 21 + [False]),
    ], ids=["slots", "bytes", "slots-and-bytes", "no-limit-is-30-slots",
            "paper-30-KB"])
    def test_drop_tail_limits(self, limits, sizes, accepted):
        # the first packet takes the idle wire; the rest wait in the one
        # FIFO while it has room in slots and in bytes
        sim = Simulator()
        link, received = make_link(sim, **limits)
        assert [link.send(Packet("a", "b", size, tag))
                for tag, size in enumerate(sizes)] == accepted
        waiting = [size for size, ok in zip(sizes[1:], accepted[1:]) if ok]
        assert (link.queued, link.bytes_queued, link.enqueues,
                link.queue_drops) == (len(waiting), sum(waiting),
                                      len(waiting), accepted.count(False))
        # the head leaves for the wire as the first packet ends, and
        # takes its bytes with it
        sim.run(until=sizes[0] * 8.0 / link.rate_bps)
        assert (link.queued, link.bytes_queued) == (len(waiting) - 1,
                                                    sum(waiting[1:]))
        sim.run()
        assert [packet.payload for packet in received] == [
            tag for tag, ok in enumerate(accepted) if ok]
        assert link.bytes_queued == 0


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

        link.connect(calling(lambda packet: state("deliver")), "a")
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
        link.connect(calling(lambda packet: arrivals.append(sim.now)), "a")
        sim.run()
        assert arrivals == [pytest.approx(0.2), pytest.approx(0.3)]

    @pytest.mark.parametrize("knob, value", [
        ("rate_bps", math.nan), ("delay", math.nan), ("delay", math.inf)])
    def test_nan_and_infinite_knobs_are_refused(self, knob, value):
        # a NaN arrival would sit at the top of the heap and halt the
        # run: a timer due at t=1 would never fire
        sim = Simulator()
        link, _ = make_link(sim)
        with pytest.raises(ValueError, match=knob):
            setattr(link, knob, value)
        with pytest.raises(ValueError, match=knob):
            Link(sim, "bad", **{"rate_bps": 1000, "delay": 0.1, knob: value})
        fired = []
        sim.schedule(1.0, fired.append, "timer")
        link.send(Packet("a", "b", 100))
        sim.run(until=10.0)
        assert fired == ["timer"] and link.delivered == 1


class ReferenceLink:
    """The textbook link: two events per packet — end of serialisation
    (which also starts the next queued packet), then arrival one
    propagation delay later.  A packet is serialised at the rate and
    delay in force when its serialisation starts; a random drop, when
    ``loss`` is set, happens on ingress and costs no bandwidth.  Its
    drop-tail FIFO is its own: a packet that finds the wire busy waits
    if the slots and bytes waiting stay within their limits.  Written
    from the model, not from ``link.py``; only the engine and the loss
    models are shared."""

    def __init__(self, sim, rate_bps, delay, deliver, queue_slots=None,
                 queue_bytes=None):
        self.sim, self.rate_bps, self.delay = sim, rate_bps, delay
        self.deliver = deliver
        self.queue_slots, self.queue_bytes = queue_slots, queue_bytes
        self.fifo = deque()
        self.busy, self.up, self.loss = False, True, None
        self.sent = self.delivered = self.fault_drops = self.in_transit = 0
        self.random_drops = self.queue_drops = 0
        self.bytes_queued = self.enqueues = 0

    @property
    def queued(self):
        return len(self.fifo)

    def _offer(self, packet):
        if ((self.queue_slots is not None
             and len(self.fifo) + 1 > self.queue_slots)
                or (self.queue_bytes is not None
                    and self.bytes_queued + packet.size > self.queue_bytes)):
            self.queue_drops += 1
            return False
        self.fifo.append(packet)
        self.bytes_queued += packet.size
        self.enqueues += 1
        return True

    def send(self, packet):
        self.sent += 1
        if not self.up:
            self.fault_drops += 1
            return False
        if self.loss is not None and self.loss.should_drop(packet):
            self.random_drops += 1
            return False
        if self.busy:
            return self._offer(packet)
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
        if self.fifo:
            nxt = self.fifo.popleft()
            self.bytes_queued -= nxt.size
            self._start(nxt)
        else:
            self.busy = False

    def _arrive(self, packet):
        self.in_transit -= 1
        self.delivered += 1
        self.deliver(packet)


def run_script(kind, script, rate, delay, queue_limits, fanout=1):
    """Drive ``fanout`` links through ``script`` and return what they did.

    ``script`` is a list of ``(gap, op, arg)``: advance the clock by
    ``gap`` seconds — or, for ``"tx"``, to exactly the instant the last
    sent packet would finish serialising on an idle link — let every
    event due by then fire, then apply ``op``: ``"send"`` (``arg`` =
    size; one packet object offered to every link in turn, as a
    multicast fan-out does), or to the first link only ``"down"``,
    ``"up"``, ``"rate"`` (assign ``rate_bps = arg``), ``"delay"``
    (assign ``delay = arg``) or ``"loss"`` (assign a fresh
    ``DeterministicLoss(arg)`` — drop the listed 1-based offers from
    now on — or ``None`` when ``arg`` is None, a lossless link).  Ops are applied from outside the event
    loop so an arrival that ties with an end of serialisation always
    comes after it, on both links.
    """
    sim = Simulator()
    state = []  # counters once every event due by each op has fired
    deliveries = {index: [] for index in range(fanout)}

    def check_conservation():
        if kind is Link:
            assert all(link.conserves_packets() for link in links)

    def make(index):
        def deliver(packet):
            deliveries[index].append((sim.now, packet.payload))
            check_conservation()
        if kind is Link:
            link = Link(sim, f"L{index}", rate_bps=rate, delay=delay,
                        **queue_limits)
            link.connect(calling(deliver), "a")
            return link
        return ReferenceLink(sim, rate, delay, deliver, **queue_limits)

    links = [make(index) for index in range(fanout)]
    link = links[0]
    returns = []
    now = tx_end = 0.0
    for tag, (gap, op, arg) in enumerate(script):
        now = max(now, tx_end) if gap == "tx" else now + gap
        sim.run(until=now)
        if op == "send":
            packet = (Packet("a", "b", arg, payload=tag) if kind is Link
                      else SimpleNamespace(size=arg, payload=tag))
            returns.append(tuple(each.send(packet) for each in links))
            tx_end = now + arg * 8.0 / rate
        elif op == "rate":
            link.rate_bps = rate = arg
        elif op == "delay":
            link.delay = arg
        elif op == "loss":
            link.loss = None if arg is None else DeterministicLoss(arg)
        else:
            getattr(link, "set_" + op)()
        # occupancy as an outside reader sees it, read before the
        # conservation check gets a chance to settle anything
        row = [sim.now]
        for each in links:
            row.append((each.sent, each.delivered, each.fault_drops,
                        each.random_drops, each.in_transit, each.queued,
                        each.bytes_queued, each.enqueues, each.queue_drops))
        state.append(tuple(row))
        check_conservation()
    while sim.pending():
        sim.run(max_events=1)
        check_conservation()
    if fanout == 1:
        deliveries, returns = deliveries[0], [r for (r,) in returns]
    return SimpleNamespace(
        deliveries=deliveries, returns=returns, state=state,
        events=sim.events_processed,
        delivered=sum(each.delivered for each in links),
        enqueues=sum(each.enqueues for each in links))


def assert_matches_reference(script, rate=8000.0, delay=0.1, fanout=1,
                             **queue_limits):
    """Same deliveries at bit-identical times, same accept/drop
    answers, same counters at every step — in one event per delivered
    packet where the reference spends two."""
    queue_limits = queue_limits or {"queue_slots": 2}
    got = run_script(Link, script, rate, delay, queue_limits, fanout)
    want = run_script(ReferenceLink, script, rate, delay, queue_limits, fanout)
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
                                       queue_slots=1000)
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
            queue_bytes=150)

    def test_down_and_up_mid_burst(self):
        got = assert_matches_reference(
            burst(2) + [(0.01, "down", None)] + burst(2)
            + [(0.0, "up", None)] + burst(2))
        assert got.returns == [True, True, False, False, True, False]

    def test_loss_then_lossless_mid_burst(self):
        # a random drop happens on ingress and takes no queue slot;
        # with ``loss`` back to None (a lossless link calls no loss
        # model) every offer the queue has room for is accepted
        got = assert_matches_reference(
            burst(2) + [(0.01, "loss", {1, 3})] + burst(4)
            + [(0.0, "loss", None)] + burst(3), queue_slots=8)
        assert got.returns == [True, True, False, True, False, True,
                               True, True, True]
        assert got.state[-1][1][3] == 2  # random_drops
        assert got.delivered == 7

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


class TestFanOutAgainstReference:
    """Two links offered the same packets back to back, as one
    ``forward_multicast`` call offers its copies: the two arrivals of a
    packet share one heap entry, waiting or not, so a knob write on the
    first link detaches its members from entries the second link's
    arrivals stay in."""

    def test_the_copies_of_a_burst_share_entries(self):
        sim = Simulator()
        links = [make_link(sim, queue_slots=4)[0]
                 for _ in range(2)]
        for tag in range(3):
            packet = Packet("a", "b", 100, tag)
            for link in links:
                link.send(packet)
        assert len(sim._heap) == 3 and sim.pending() == 6

    def test_squeezed_while_sharing_entries(self):
        got = assert_matches_reference(
            burst(4) + [(0.05, "rate", 2000.0)] + burst(2), fanout=2,
            queue_slots=4)
        # link 0's waiting packets serialise at 2000 bit/s from 0.1 s,
        # link 1's keep their 8000 bit/s times (and its full queue
        # refuses the last packet)
        assert [t for t, _ in got.deliveries[1]] == pytest.approx(
            [0.2, 0.3, 0.4, 0.5, 0.6])
        assert got.deliveries[0][1][0] == pytest.approx(0.6)
        assert got.returns[-1] == (False, False)

    def test_delay_cut_while_sharing_entries(self):
        got = assert_matches_reference(
            burst(3) + [(0.15, "delay", 0.02)] + burst(2)
            + [(0.3, "delay", 0.3)], fanout=2, queue_slots=4)
        assert got.delivered == 10

    def test_lossy_link_beside_a_lossless_one(self):
        got = assert_matches_reference(
            [(0.0, "loss", {2})] + burst(3) + [(0.05, "loss", None)]
            + burst(2), fanout=2, queue_slots=4)
        assert got.returns[:3] == [(True, True), (False, True),
                                   (True, True)]
        assert len(got.deliveries[0]) == 4 and len(got.deliveries[1]) == 5

    def test_down_link_beside_a_sharing_one(self):
        assert_matches_reference(
            burst(2) + [(0.01, "down", None)] + burst(2)
            + [(0.0, "up", None)] + burst(2) + [("tx", "send", 40)],
            fanout=2)


class TestDepartureBeforeTyingArrival:
    """The one rule the one-event model adds: a waiting packet whose
    serialisation starts at ``t`` has left the queue for every arrival
    at ``t``.  With an end-of-serialisation event the answer depended on
    which of the two tying events had been inserted first."""

    def test_arrival_inside_the_event_loop_at_a_waiting_packets_start(self):
        sim = Simulator()
        link, received = make_link(sim, rate=8000.0, delay=0.0,
                                   queue_slots=1)
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
