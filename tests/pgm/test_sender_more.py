"""Additional PGM sender behaviours: repairs, windows, feedback hooks."""

import pytest

from repro.core.reports import ReceiverReport
from repro.core.sender_cc import CcConfig
from repro.pgm import constants as C
from repro.pgm.packets import Nak, OData, RData
from repro.pgm.sender import FiniteSource, PgmSender
from repro.simulator import Packet

from .conftest import Collector


def make_sender(net, **kw):
    collector = Collector()
    net.host("rx").register_agent(C.PROTO, collector)
    sender = PgmSender(net.host("src"), "mc:t", tsi=1, **kw)
    return sender, collector


def elect(net, sender):
    sender.start()
    net.run(until=0.2)
    net.host("rx").send(
        Packet("rx", "src", 100,
               Nak(1, 0, ReceiverReport("rx", 0, 0), fake=True), C.PROTO)
    )
    net.run(until=0.3)


class TestRepairWindow:
    def test_repair_resent_after_holdoff(self, wire):
        sender, collector = make_sender(wire)
        elect(wire, sender)
        nak = Nak(1, 0, ReceiverReport("rx", 0, 0))
        wire.host("rx").send(Packet("rx", "src", 100, nak, C.PROTO))
        # wait well past RDATA_HOLDOFF before re-NAKing
        wire.run(until=0.3 + 2 * PgmSender.RDATA_HOLDOFF)
        wire.host("rx").send(Packet("rx", "src", 100, nak, C.PROTO))
        wire.run(until=3.0)
        assert len(collector.payloads(RData)) == 2

    def test_tx_window_trail_advances(self, wire):
        sender, _ = make_sender(
            wire, cc=CcConfig(enabled=False), max_rate_bps=2_000_000
        )
        sender._tx_window_capacity = 10
        sender.start()
        wire.run(until=0.5)
        assert sender.odata_sent > 20
        assert sender.trail > 0
        assert len(sender._tx_window) <= 10

    def test_window_holds_exactly_the_last_capacity_packets(self, wire):
        sender, collector = make_sender(
            wire, cc=CcConfig(enabled=False), max_rate_bps=2_000_000
        )
        sender._tx_window_capacity = capacity = 16
        for _ in range(3 * capacity):
            sender._send_odata(100, b"x" * 100)
        assert len(sender._tx_window) == capacity
        assert min(sender._tx_window) == sender.trail == 2 * capacity
        wire.run(until=1.0)
        for seq in (sender.trail - 1, sender.trail):
            nak = Nak(1, seq, ReceiverReport("rx", 0, 0))
            wire.host("rx").send(Packet("rx", "src", 100, nak, C.PROTO))
        wire.run(until=2.0)
        # below the trail the payload is gone; at the trail it is not
        assert [r.seq for r in collector.payloads(RData)] == [sender.trail]

    @pytest.mark.parametrize("capacity", [8, 512])
    def test_trim_work_per_odata_does_not_grow_with_the_window(self, wire, capacity):
        class CountingWindow(dict):
            deletions = walks = 0

            def __delitem__(self, key):
                CountingWindow.deletions += 1
                super().__delitem__(key)

            def __iter__(self):
                CountingWindow.walks += 1
                return super().__iter__()

        sender, _ = make_sender(
            wire, cc=CcConfig(enabled=False), max_rate_bps=2_000_000
        )
        sender._tx_window = CountingWindow()
        sender._tx_window_capacity = capacity
        odata = 3 * capacity
        for _ in range(odata):
            sender._send_odata(100, b"x" * 100)
        # one delete per ODATA once full and never a pass over the keys
        assert CountingWindow.deletions == odata - capacity
        assert CountingWindow.walks == 0

    def test_cc_disabled_without_rate_limit_rejected(self, wire):
        """A plain PGM sender must have a pre-set rate (§3.1)."""
        with pytest.raises(ValueError):
            make_sender(wire, cc=CcConfig(enabled=False))

    def test_repair_carries_stored_payload(self, wire):
        chunks = [b"alpha", b"beta", b"gamma"]
        sender, collector = make_sender(wire, source=FiniteSource(list(chunks)))
        elect(wire, sender)
        wire.run(until=1.0)
        wire.host("rx").send(
            Packet("rx", "src", 100, Nak(1, 1, ReceiverReport("rx", 2, 0)), C.PROTO)
        )
        wire.run(until=2.0)
        rdatas = collector.payloads(RData)
        assert rdatas and rdatas[0].payload == b"beta"


class TestAppLimited:
    def test_finite_transfer_completes_then_idles(self, wire):
        sender, collector = make_sender(
            wire, source=FiniteSource([b"x" * 100 for _ in range(20)])
        )
        elect(wire, sender)

        # the acker echoes ACKs so the transfer can finish
        from repro.core.acktrack import build_bitmap
        from repro.pgm.packets import Ack

        received = set()

        class Acker(Collector):
            def handle_packet(self, packet):
                super().handle_packet(packet)
                msg = packet.payload
                if isinstance(msg, OData):
                    received.add(msg.seq)
                    ack = Ack(1, msg.seq, build_bitmap(msg.seq, received),
                              ReceiverReport("rx", msg.seq, 0))
                    wire.host("rx").send(Packet("rx", "src", 100, ack, C.PROTO))

        wire.host("rx").unregister_agent(C.PROTO)
        wire.host("rx").register_agent(C.PROTO, Acker())
        wire.run(until=30.0)
        assert sender.odata_sent == 20
        assert not sender.source.has_data()
        # idle after completion: no stall-restart churn
        stalls = sender.controller.stalls
        wire.run(until=60.0)
        assert sender.controller.stalls == stalls
        assert sender.odata_sent == 20

    def test_on_token_hook_called_per_transmission(self, wire):
        ticks = []
        sender, _ = make_sender(wire, on_token=lambda now: ticks.append(now))
        elect(wire, sender)
        assert len(ticks) == sender.odata_sent >= 1


class TestAccounting:
    def test_bytes_sent_counts_payload_only(self, wire):
        sender, _ = make_sender(wire, payload_size=1000)
        elect(wire, sender)
        assert sender.bytes_sent == sender.odata_sent * 1000

    def test_summary_dict(self, wire):
        from repro.pgm import create_session
        from repro.simulator import NON_LOSSY, dumbbell

        net = dumbbell(1, 2, NON_LOSSY, seed=55)
        session = create_session(net, "h0", ["r0", "r1"])
        net.run(until=10.0)
        summary = session.summary()
        assert summary["odata_sent"] > 100
        assert summary["acker"] in ("r0", "r1")
        assert set(summary["receivers"]) == {"r0", "r1"}
        assert summary["receivers"]["r0"]["odata_received"] > 100
        assert summary["stalls"] == 0
