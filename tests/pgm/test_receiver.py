"""Tests for the PGM receiver: ACK duty, NAK state machine, delivery."""

import random

import pytest

from repro.pgm import constants as C
from repro.pgm.packets import Ack, Nak, Ncf, OData, RData
from repro.pgm.receiver import PgmReceiver
from repro.simulator import Packet

from .conftest import Collector


def make_receiver(net, host="rx", **kw):
    collector = Collector()
    net.host("src").register_agent(C.PROTO, collector)
    rx = PgmReceiver(net.host(host), "mc:t", tsi=1, source_addr="src", **kw)
    return rx, collector


def odata(seq, acker=None, elicit=False, tsi=1):
    return OData(tsi, seq, 0, 1400, timestamp=0.0, acker_id=acker, elicit_nak=elicit)


def send_data(net, msg):
    net.host("src").send(Packet("src", "mc:t", 1500, msg, C.PROTO))


class TestAckDuty:
    def test_acks_when_named_acker(self, wire):
        rx, collector = make_receiver(wire)
        send_data(wire, odata(0, acker="rx"))
        wire.run(until=1.0)
        acks = collector.payloads(Ack)
        assert len(acks) == 1
        assert acks[0].ack_seq == 0
        assert acks[0].bitmask & 1

    def test_no_ack_when_other_is_acker(self, wire):
        rx, collector = make_receiver(wire)
        send_data(wire, odata(0, acker="somebody-else"))
        wire.run(until=1.0)
        assert collector.payloads(Ack) == []

    def test_no_ack_for_rdata(self, wire):
        """§3.3: ACKs for each data packet, but not retransmissions."""
        rx, collector = make_receiver(wire)
        send_data(wire, odata(0, acker="rx"))
        send_data(wire, RData(1, 1, 0, 1400))
        wire.run(until=1.0)
        assert len(collector.payloads(Ack)) == 1

    def test_ack_carries_report(self, wire):
        rx, collector = make_receiver(wire)
        for s in (0, 2):  # loss of 1
            send_data(wire, odata(s, acker="rx"))
        wire.run(until=1.0)
        report = collector.payloads(Ack)[-1].report
        assert report.rx_id == "rx"
        assert report.rxw_lead == 2
        assert report.rx_loss > 0

    def test_ack_bitmap_has_hole_for_loss(self, wire):
        rx, collector = make_receiver(wire)
        for s in (0, 1, 3):
            send_data(wire, odata(s, acker="rx"))
        wire.run(until=1.0)
        last = collector.payloads(Ack)[-1]
        assert last.ack_seq == 3
        assert not (last.bitmask >> 1) & 1  # seq 2 missing
        assert (last.bitmask >> 2) & 1  # seq 1 present


class TestFakeNak:
    def test_elicit_mark_triggers_fake_nak(self, wire):
        rx, collector = make_receiver(wire)
        send_data(wire, odata(0, elicit=True))
        wire.run(until=1.0)
        naks = collector.payloads(Nak)
        assert len(naks) == 1
        assert naks[0].fake
        assert naks[0].report.rx_id == "rx"
        assert rx.fake_naks_sent == 1

    def test_unmarked_packet_no_fake_nak(self, wire):
        rx, collector = make_receiver(wire)
        send_data(wire, odata(0))
        wire.run(until=1.0)
        assert collector.payloads(Nak) == []


class TestNakMachine:
    def test_gap_produces_nak(self, wire):
        rx, collector = make_receiver(wire)
        send_data(wire, odata(0))
        send_data(wire, odata(2))
        wire.run(until=1.0)
        naks = collector.payloads(Nak)
        assert [n.seq for n in naks] == [1]
        assert not naks[0].fake

    def test_nak_suppressed_by_data_arrival(self, wire):
        """A repair arriving during backoff cancels the pending NAK."""
        import random

        # rng whose first uniform(0, 5) draw comfortably exceeds the
        # repair arrival time below
        rng = next(
            random.Random(s) for s in range(100)
            if random.Random(s).uniform(0, 5) > 1.0
        )
        rx, _ = make_receiver(wire, nak_bo_ivl=5.0, rng=rng)
        send_data(wire, odata(0))
        send_data(wire, odata(2))
        wire.run(until=0.5)
        send_data(wire, RData(1, 1, 0, 1400))
        wire.run(until=10.0)
        assert rx.naks_sent == 0

    def test_ncf_confirms_then_rdata_timeout_renaks(self, wire):
        rx, collector = make_receiver(
            wire, nak_bo_ivl=0.01, nak_rdata_ivl=0.5, nak_rpt_ivl=0.5
        )
        send_data(wire, odata(0))
        send_data(wire, odata(2))
        wire.run(until=0.2)
        assert rx.naks_sent == 1
        # confirm, but never repair
        wire.host("src").send(Packet("src", "mc:t", 64, Ncf(1, 1), C.PROTO))
        wire.run(until=0.4)
        assert rx.naks_suppressed_by_ncf == 1
        wire.run(until=2.0)
        assert rx.naks_sent >= 2  # re-NAK after rdata wait expired

    def test_retry_without_ncf(self, wire):
        rx, collector = make_receiver(wire, nak_bo_ivl=0.01, nak_rpt_ivl=0.2)
        send_data(wire, odata(0))
        send_data(wire, odata(2))
        wire.run(until=1.5)
        assert rx.naks_sent >= 3

    def test_gives_up_after_max_retries(self, wire):
        rx, _ = make_receiver(
            wire, nak_bo_ivl=0.01, nak_rpt_ivl=0.05, nak_max_retries=3
        )
        send_data(wire, odata(0))
        send_data(wire, odata(2))
        wire.run(until=5.0)
        assert rx.naks_sent == 3
        assert rx.repairs_abandoned == 1

    def test_unreliable_mode_single_report_nak(self, wire):
        """§3.9: report-only NAKs, no retry loop."""
        rx, _ = make_receiver(wire, reliable=False, nak_bo_ivl=0.01)
        send_data(wire, odata(0))
        send_data(wire, odata(2))
        wire.run(until=5.0)
        assert rx.naks_sent == 1


class TestDelivery:
    def test_in_order_delivery(self, wire):
        got = []
        rx, _ = make_receiver(wire, deliver=lambda s, n, p: got.append(s))
        for s in (0, 2, 1, 3):
            send_data(wire, odata(s) if s != 1 else RData(1, 1, 0, 1400))
        wire.run(until=1.0)
        assert got == [0, 1, 2, 3]

    def test_unreliable_delivers_immediately_with_holes(self, wire):
        got = []
        rx, _ = make_receiver(wire, reliable=False,
                              deliver=lambda s, n, p: got.append(s))
        for s in (0, 2, 3):
            send_data(wire, odata(s))
        wire.run(until=1.0)
        assert got == [0, 2, 3]

    def test_abandoned_repair_unblocks_delivery(self, wire):
        got = []
        rx, _ = make_receiver(
            wire, nak_bo_ivl=0.01, nak_rpt_ivl=0.05, nak_max_retries=2,
            deliver=lambda s, n, p: got.append(s),
        )
        send_data(wire, odata(0))
        send_data(wire, odata(2))
        send_data(wire, odata(3))
        wire.run(until=5.0)
        assert got == [0, 2, 3]  # seq 1 skipped after abandonment

    def test_gaps_abandoned_out_of_order_unblock_everything(self, wire):
        """Gap 3 runs out of NAKs before gap 1 (seed 0's back-off draws
        put its first NAK ahead): the walk that steps over 1 delivers 2,
        steps over 3 and delivers 4, with nothing left held."""
        got = []
        rx, collector = make_receiver(
            wire, rng=random.Random(0), nak_max_retries=2,
            deliver=lambda s, n, p: got.append(s),
        )
        for s in (0, 2, 4):
            send_data(wire, odata(s))
        wire.run(until=10.0)
        naks = [nak.seq for nak in collector.payloads(Nak)]
        assert naks == [3, 1, 3, 1]
        assert rx.unrecoverable_data_loss == 2
        assert got == [0, 2, 4]
        assert rx._pending_delivery == {} and rx._abandoned == set()

    def test_mid_join_anchors_delivery(self, wire):
        got = []
        rx, _ = make_receiver(wire, deliver=lambda s, n, p: got.append(s))
        send_data(wire, odata(500))
        send_data(wire, odata(501))
        wire.run(until=1.0)
        assert got == [500, 501]
        assert rx.naks_sent == 0


class TestDispatch:
    def test_wrong_tsi_ignored(self, wire):
        rx, collector = make_receiver(wire)
        send_data(wire, odata(0, acker="rx", tsi=99))
        wire.run(until=1.0)
        assert rx.odata_received == 0
        assert collector.payloads(Ack) == []

    def test_counters(self, wire):
        rx, _ = make_receiver(wire)
        send_data(wire, odata(5))
        send_data(wire, RData(1, 5, 0, 1400))
        send_data(wire, RData(1, 3, 0, 1400))  # sent before the join
        wire.run(until=1.0)
        assert rx.odata_received == 1
        assert rx.rdata_received == 2
        assert rx.delivered == 1

    @pytest.mark.parametrize("foreign", [
        odata(0, acker="rx", elicit=True, tsi=99),
        RData(99, 0, 0, 1400),
        Ncf(99, 0),
    ], ids=["OData", "RData", "Ncf"])
    def test_foreign_tsi_ignored_by_every_exact_class_dispatch(self, wire, foreign):
        rx, collector = make_receiver(wire)
        send_data(wire, foreign)
        wire.run(until=1.0)
        assert (rx.odata_received, rx.rdata_received, rx.ncfs_received) == (0, 0, 0)
        assert rx.rxw_lead == -1
        assert collector.packets == []

    def test_wire_bytes_still_take_the_general_ladder(self, wire):
        """Frames off a mangling link arrive as bytes, never as message
        objects: they are decoded, checksum- and sanity-audited, and
        only then dispatched."""
        rx, _ = make_receiver(wire)
        good = odata(0).pack()
        flipped = bytearray(odata(1).pack())
        flipped[-1] ^= 0x01  # fails the frame checksum
        wild = odata(10 * C.TX_WINDOW_PACKETS).pack()  # decodes; no honest seq
        for frame in (good, bytes(flipped), wild):
            send_data(wire, frame)
        wire.run(until=1.0)
        assert rx.odata_received == 1 and rx.rxw_lead == 0
        assert rx.malformed_dropped == 1
        assert rx.insane_dropped == 1
