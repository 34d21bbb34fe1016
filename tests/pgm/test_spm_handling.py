"""Tests for receiver-side SPM window bookkeeping (trail advance and
tail-loss detection)."""

from repro.pgm import constants as C
from repro.pgm.packets import Nak, OData, Spm
from repro.pgm.receiver import PgmReceiver
from repro.simulator import Packet

from .conftest import Collector


def make_receiver(net, **kw):
    collector = Collector()
    net.host("src").register_agent(C.PROTO, collector)
    kw.setdefault("nak_bo_ivl", 0.01)
    rx = PgmReceiver(net.host("rx"), "mc:t", tsi=1, source_addr="src", **kw)
    return rx, collector


def send(net, msg, size=100):
    net.host("src").send(Packet("src", "mc:t", size, msg, C.PROTO))


def odata(seq):
    return OData(1, seq, 0, 1400)


def spm(trail, lead):
    return Spm(1, 0, trail, lead, path="src")


class TestTrailAdvance:
    def test_nak_state_below_trail_abandoned(self, wire):
        rx, _ = make_receiver(wire, nak_bo_ivl=5.0)  # hold NAKs back
        send(wire, odata(0))
        send(wire, odata(3))  # gaps at 1, 2
        wire.run(until=0.2)
        assert len(rx._nak_states) == 2
        send(wire, spm(trail=3, lead=3))
        wire.run(until=0.5)
        assert rx._nak_states == {}
        assert rx.repairs_abandoned == 2

    def test_trail_unblocks_delivery(self, wire):
        got = []
        rx, _ = make_receiver(wire, deliver=lambda s, n, p: got.append(s))
        send(wire, odata(0))
        send(wire, odata(3))  # 1, 2 missing; delivery stuck after 0
        wire.run(until=0.2)
        assert got == [0]
        send(wire, spm(trail=3, lead=3))
        wire.run(until=0.5)
        assert got == [0, 3]

    def test_trail_behind_state_is_noop(self, wire):
        rx, _ = make_receiver(wire, nak_bo_ivl=5.0)
        send(wire, odata(0))
        send(wire, odata(2))
        wire.run(until=0.2)
        send(wire, spm(trail=0, lead=2))
        wire.run(until=0.5)
        assert 1 in rx._nak_states


class TestTailLossDetection:
    def test_two_agreeing_spms_trigger_naks(self, wire):
        rx, collector = make_receiver(wire)
        send(wire, odata(0))
        wire.run(until=0.1)
        # sender claims lead 2; packets 1-2 were tail-lost
        send(wire, spm(trail=0, lead=2))
        wire.run(until=0.2)
        assert rx.tail_loss_detections == 0  # first SPM arms only
        send(wire, spm(trail=0, lead=2))
        wire.run(until=0.5)
        assert rx.tail_loss_detections == 1
        naks = collector.payloads(Nak)
        assert sorted(n.seq for n in naks) == [1, 2]

    def test_single_spm_does_not_trigger(self, wire):
        rx, collector = make_receiver(wire)
        send(wire, odata(0))
        wire.run(until=0.1)
        send(wire, spm(trail=0, lead=5))
        wire.run(until=0.5)
        assert collector.payloads(Nak) == []

    def test_advancing_lead_rearms(self, wire):
        """While data keeps arriving between SPMs (lead changes), no
        tail-loss NAKs fire."""
        rx, collector = make_receiver(wire)
        send(wire, odata(0))
        wire.run(until=0.05)
        send(wire, spm(trail=0, lead=1))
        send(wire, odata(1))
        wire.run(until=0.1)
        send(wire, spm(trail=0, lead=2))
        send(wire, odata(2))
        wire.run(until=0.5)
        assert rx.tail_loss_detections == 0
        assert collector.payloads(Nak) == []

    def test_no_detection_before_first_data(self, wire):
        rx, collector = make_receiver(wire)
        send(wire, spm(trail=0, lead=5))
        send(wire, spm(trail=0, lead=5))
        wire.run(until=0.5)
        assert rx.tail_loss_detections == 0


class TestEndToEndTailLoss:
    def test_lost_final_packet_recovered_via_spm(self):
        """A finite transfer whose last packet is dropped completes
        anyway: the SPM lead reveals the tail loss."""
        from repro.pgm import create_session
        from repro.pgm.sender import FiniteSource
        from repro.simulator import DeterministicLoss, LinkSpec, Network

        net = Network(seed=88)
        net.add_host("src")
        net.add_router("R0")
        net.add_host("rx")
        net.duplex_link("src", "R0", LinkSpec(10_000_000, 0.01, queue_slots=100))
        fwd, _ = net.duplex_link("R0", "rx", LinkSpec(10_000_000, 0.01, queue_slots=100))
        net.build_routes()

        got = []
        chunks = [b"c%d" % i for i in range(10)]
        session = create_session(net, "src", ["rx"],
                                 source=FiniteSource(chunks))
        session.receivers[0].deliver = lambda s, n, p: got.append(s)
        # drop exactly the 10th PGM data packet crossing the leaf
        # (the last ODATA of the transfer; SPMs/NCFs use other slots)
        net.run(until=0.05)

        original_send = fwd.send
        state = {"dropped": False}

        def tail_dropper(packet):
            msg = packet.payload
            if (not state["dropped"] and isinstance(msg, OData)
                    and msg.seq == 9):
                state["dropped"] = True
                return False
            return original_send(packet)

        fwd.send = tail_dropper
        net.run(until=20.0)
        assert state["dropped"]
        assert got == list(range(10))  # repaired via SPM tail detection
