"""Which sequences a receiver NAKs, against a reference, and the
join-time storm it used to start.

``NackModule`` is a dict receiver in the shape of SNIPPETS 2-3's: it
opens gaps only ahead of the data it has seen, and only original data
(ODATA) gives it a window — a repair reaching a receiver with none is
for data sent before it joined.  Hypothesis drives it beside
``PgmReceiver`` with the same arrivals (loss, reordering, repairs in
flight, late join) and requires the same open gaps and the same
in-order delivery after every arrival, and every NAK to be for a gap
the reference holds.

The two regressions are ``fanout_100rx``'s shape (Fig. 7: 100 leaves
at 1 % loss and 230 ms, 90 joining at 15 s) run to 5 s past the join,
on the two seeds whose joiners meet RDATA in flight before their first
ODATA: anchored on it, 88 and 90 of them NAK data sent before they
joined, and one NCF per NAK turns that into an implosion.
"""

from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pgm import add_receiver, create_session
from repro.pgm import constants as C
from repro.pgm.packets import OData, RData
from repro.pgm.receiver import PgmReceiver
from repro.pgm.sender import PgmSender
from repro.simulator import ACCESS, LinkSpec, Network, Packet
from repro.tcp import create_tcp_flow

from .conftest import FAST, Collector


class NackModule:
    """The reference: the sequences it would NAK (``lost``, with the
    NAKs sent for each) and what it has delivered in order."""

    def __init__(self):
        self.max_seq = None  # highest sequence seen; None: no window yet
        self.next_deliver = None
        self.lost: dict[int, int] = {}
        self.held: set[int] = set()
        self.delivered: list[int] = []

    def on_odata(self, seq):
        if self.max_seq is None:  # the first ODATA anchors the window
            self.max_seq = self.next_deliver = seq
        self.on_pkt_rcvd(seq)

    def on_rdata(self, seq):
        if self.max_seq is not None:  # a repair opens no window
            self.on_pkt_rcvd(seq)

    def on_pkt_rcvd(self, seq):
        self.lost.pop(seq, None)
        if seq > self.max_seq:
            self._add_missing(self.max_seq + 1, seq)
            self.max_seq = seq
        if seq >= self.next_deliver:
            self.held.add(seq)
        while self.next_deliver in self.held:
            self.held.discard(self.next_deliver)
            self.delivered.append(self.next_deliver)
            self.next_deliver += 1

    def _add_missing(self, from_seq, to_seq):
        for seq in range(from_seq, to_seq):
            self.lost[seq] = 0

    def on_nack_sent(self, seq):
        self.lost[seq] += 1  # KeyError: a NAK for nothing missing


@st.composite
def arrivals(draw):
    """What one receiver gets: the stream from its join on, with losses,
    repairs (of any sequence, joined or not) inserted anywhere, a few
    neighbours swapped, and one spacing against the 50 ms back-off."""
    n = draw(st.integers(min_value=2, max_value=60))
    join = draw(st.integers(min_value=0, max_value=n - 1))
    got = [("O", s) for s in range(join, n)
           if draw(st.integers(min_value=0, max_value=4)) > 0]
    for seq in draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                             max_size=10)):
        got.insert(draw(st.integers(min_value=0, max_value=len(got))), ("R", seq))
    for i in draw(st.lists(st.integers(min_value=0, max_value=max(len(got) - 2, 0)),
                           max_size=5)):
        if i + 1 < len(got):
            got[i], got[i + 1] = got[i + 1], got[i]
    return got, draw(st.sampled_from([0.001, 0.02, 0.2]))


def run_both(got, spacing):
    net = Network(seed=0)
    net.add_host("src")
    for host in ("rx", "bare"):
        net.add_host(host)
        net.duplex_link("src", host, FAST)
    net.build_routes()
    net.host("src").register_agent(C.PROTO, Collector())
    delivered = []
    rx = PgmReceiver(net.host("rx"), "mc:t", tsi=1, source_addr="src",
                     deliver=lambda seq, n, payload: delivered.append(seq))
    # with no deliver callback a receiver counts what it takes as data
    bare = PgmReceiver(net.host("bare"), "mc:t", tsi=1, source_addr="src")
    ref = NackModule()
    send = rx._send_nak

    def tap(seq, fake=False):
        ref.on_nack_sent(seq)
        send(seq, fake)

    rx._send_nak = tap

    def arrive(kind, seq):
        msg = OData(1, seq, 0, 1400) if kind == "O" else RData(1, seq, 0, 1400)
        for receiver in (rx, bare):
            receiver.handle_packet(Packet("src", "mc:t", 1500, msg, C.PROTO))
        (ref.on_odata if kind == "O" else ref.on_rdata)(seq)
        assert sorted(rx._nak_states) == sorted(ref.lost)
        assert delivered == ref.delivered
        assert rx.delivered == len(delivered)
        assert sorted(rx._pending_delivery) == sorted(ref.held)
        assert bare.delivered == len(ref.delivered) + len(ref.held)

    for i, (kind, seq) in enumerate(got):
        net.sim.schedule_at((i + 1) * spacing, arrive, kind, seq)
    net.run(until=(len(got) + 1) * spacing + 1.0)
    assert sorted(rx._nak_states) == sorted(ref.lost)


class TestAgainstTheReference:
    @given(arrivals())
    @settings(max_examples=60, deadline=None)
    # the seed-8 join: repairs for data sent before the join arrive first
    @example(([("R", 3), ("R", 4), ("O", 9), ("O", 10), ("R", 5)], 0.02))
    # a join at 500 that loses 502: nothing below 500 is NAKed
    @example(([("O", 500), ("O", 501), ("O", 503)], 0.02))
    # a repair of data sent before the join, after the first ODATA:
    # neither delivered nor held for delivery
    @example(([("O", 9), ("R", 5), ("O", 10)], 0.02))
    # an ODATA overtaken by the one that anchored: never held, and not
    # counted by a receiver with no deliver callback either
    @example(([("O", 4), ("O", 3), ("O", 5)], 0.02))
    def test_same_gaps_same_delivery(self, case):
        run_both(*case)


# -- the join-time storm: fanout_100rx's shape, 5 s past the join -----------

LEAF = LinkSpec(rate_bps=2_000_000, delay=0.230, queue_bytes=30_000, loss_rate=0.01)
JOIN = 15.0


@pytest.fixture(scope="module", params=[8, 11], ids=["seed8", "seed11"])
def joined(request):
    """The 100-leaf session run to 5 s past the join.  Returns each
    receiver's first ODATA and NAKs, and the times the source sent an
    NCF for each sequence from the join on."""
    first_odata, naks, ncfs = {}, defaultdict(list), defaultdict(list)
    handle_data, send_nak = PgmReceiver._handle_data, PgmReceiver._send_nak

    def on_data(self, msg, is_repair):
        if not is_repair:
            first_odata.setdefault(self.rx_id, msg.seq)
        handle_data(self, msg, is_repair)

    def on_nak(self, seq, fake=False):
        if not fake:
            naks[self.rx_id].append(seq)
        send_nak(self, seq, fake)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PgmReceiver, "_handle_data", on_data)
        patch.setattr(PgmReceiver, "_send_nak", on_nak)
        net = Network(seed=request.param * 1000 + 17)  # fanout_100rx's
        for name in ("src", "ts"):
            net.add_host(name)
        net.add_router("R0")
        net.duplex_link("src", "R0", ACCESS)
        net.duplex_link("ts", "R0", ACCESS)
        for i in range(100):
            net.add_host(f"r{i}")
            net.duplex_link("R0", f"r{i}", LEAF)
        net.add_host("tr")
        net.duplex_link("R0", "tr", LEAF)
        net.build_routes()
        session = create_session(net, "src", [f"r{i}" for i in range(10)])
        for i in range(10, 100):
            add_receiver(net, session, f"r{i}", at=JOIN)
        create_tcp_flow(net, "ts", "tr")
        sender = session.sender
        handle_nak = sender._handle_nak

        def confirm(nak):
            before = sender.ncfs_sent
            handle_nak(nak)
            if sender.ncfs_sent > before and net.sim.now >= JOIN:
                ncfs[nak.seq].append(net.sim.now)

        sender._handle_nak = confirm
        net.run(until=JOIN + 5.0)
    return first_odata, naks, ncfs


class TestJoinTimeStorm:
    def test_no_joiner_naks_below_its_first_odata(self, joined):
        first_odata, naks, _ = joined
        joiners = [f"r{i}" for i in range(10, 100)]
        assert all(rx in first_odata for rx in joiners)
        below = {rx: min(naks[rx]) for rx in joiners
                 if naks[rx] and min(naks[rx]) < first_odata[rx]}
        assert below == {}

    def test_the_source_confirms_a_sequence_once_a_hold_off(self, joined):
        _, _, ncfs = joined
        assert ncfs  # the join window has repairs to confirm
        repeats = {seq: times for seq, times in ncfs.items()
                   if any(b - a < PgmSender.RDATA_HOLDOFF
                          for a, b in zip(times, times[1:]))}
        assert repeats == {}
