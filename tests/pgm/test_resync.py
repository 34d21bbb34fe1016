"""Receiver resync-after-heal: the cc window jump, the receiver-level
rejoin (ODATA- and SPM-triggered), and the network element's repair
soft-state refresh — the pieces that stop a healed partition from
turning into a NAK storm or a permanently deaf repair path."""

from repro.core.receiver_cc import ReceiverController
from repro.core.reports import ReceiverReport
from repro.core.sender_cc import CcConfig
from repro.pgm import create_session
from repro.pgm.constants import NE_REPAIR_LINGER
from repro.pgm.network_element import PgmNetworkElement
from repro.pgm.packets import Nak, RData, Spm
from repro.pgm.session import SessionConfig
from repro.simulator import NON_LOSSY, dumbbell
from repro.simulator.faults import FaultPlan, Partition
from repro.simulator.packet import Packet


class TestCcResync:
    def _primed(self):
        cc = ReceiverController("r0")
        for seq in range(5):
            cc.on_data(seq, now=float(seq))
        assert cc.rxw_lead == 4
        return cc

    def test_jump_counts_skipped_span(self):
        cc = self._primed()
        skipped = cc.resync(104)
        assert cc.rxw_lead == 104
        assert skipped == 104 - 4 - 1

    def test_already_received_packets_are_not_counted_lost(self):
        cc = self._primed()
        # two packets inside the skipped span already arrived
        cc.on_data(50, now=6.0)
        cc.on_data(51, now=6.0)
        # ...which opened gaps and moved the lead to 51; jump from there
        skipped = cc.resync(104)
        assert skipped == 104 - 51 - 1

    def test_skipped_span_never_holds_a_received_packet(self):
        """Every received sequence is at or behind the lead, so a jump
        skips exactly the sequences between the old and the new lead,
        whatever arrived before it: gaps, repairs, duplicates."""
        cc = self._primed()
        for seq in (9, 7, 7, 300, 5, 150, 301, 1):
            cc.on_data(seq, now=6.0)
        assert cc.resync(1000) == 1000 - 301 - 1
        assert cc.resync(1001) == 0
        assert ReceiverController("r1").resync(50) == 0  # nothing seen yet

    def test_backward_or_equal_jump_is_a_noop(self):
        cc = self._primed()
        assert cc.resync(4) == 0
        assert cc.resync(2) == 0
        assert cc.rxw_lead == 4

    def test_loss_filter_untouched_by_resync(self):
        cc = self._primed()
        samples_before = cc.loss_filter.samples
        state_before = cc.loss_filter._y
        cc.resync(500)
        assert cc.loss_filter.samples == samples_before
        assert cc.loss_filter._y == state_before

    def test_delivery_resumes_cleanly_after_jump(self):
        cc = self._primed()
        cc.resync(104)
        outcome = cc.on_data(105, now=10.0)
        assert not outcome.new_gaps  # no loss signal across the jump
        assert cc.rxw_lead == 105


class TestReceiverResync:
    def test_partition_beyond_repair_horizon_triggers_resync(self):
        """When an outage outlives the sender's transmit window the
        receiver rejoins at the live edge instead of NAK-storming for
        data the sender can no longer supply."""
        net = dumbbell(1, 1, NON_LOSSY, seed=21)
        faults = FaultPlan((
            Partition(("h0", "R0"), ("R1", "r0"), at=3.0, duration=6.0),
        ))
        session = create_session(
            net, "h0", ["r0"],
            config=SessionConfig(cc=CcConfig(liveness=True), faults=faults))
        # Shrink the repair horizon so the outage outlives it: the
        # degraded-mode probes sent during the blackout push the trail
        # past everything the receiver is missing.
        session.sender._tx_window_capacity = 8
        net.run(until=30.0)
        rx = session.receivers[0]
        assert rx.resyncs >= 1
        assert rx.unrecoverable_data_loss > 0
        assert rx.delivered > 0
        # post-heal delivery actually resumed: lead tracked the sender
        assert rx.cc.rxw_lead > 0
        summary = session.summary()
        assert summary["receivers"]["r0"]["resyncs"] == rx.resyncs
        assert summary["recovery"]["resyncs"] == rx.resyncs
        session.close()

    def test_resync_clears_pending_nak_state(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=21)
        session = create_session(net, "h0", ["r0"])
        net.run(until=2.0)
        rx = session.receivers[0]
        # fabricate open NAK machinery, then resync over it
        rx._open_nak_state(rx.cc.rxw_lead + 5)
        rx._open_nak_state(rx.cc.rxw_lead + 6)
        assert rx._nak_states
        rx._resync(rx.cc.rxw_lead + 500)
        assert not rx._nak_states
        assert rx.resyncs == 1

    def test_spm_trail_jump_triggers_resync(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=21)
        session = create_session(net, "h0", ["r0"])
        net.run(until=2.0)
        rx = session.receivers[0]
        lead = rx.cc.rxw_lead
        assert lead >= 0
        spm = Spm(session.sender.tsi, 999, trail=lead + 100, lead=lead + 150)
        rx._handle_spm(spm)
        assert rx.resyncs == 1
        assert rx.cc.rxw_lead == lead + 150

    def test_spm_within_window_does_not_resync(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=21)
        session = create_session(net, "h0", ["r0"])
        net.run(until=2.0)
        rx = session.receivers[0]
        lead = rx.cc.rxw_lead
        spm = Spm(session.sender.tsi, 999, trail=max(lead - 5, 0),
                  lead=lead)
        rx._handle_spm(spm)
        assert rx.resyncs == 0


class _FakeSim:
    def __init__(self):
        self.now = 0.0


class _FakeRouter:
    """Just enough Router surface for PgmNetworkElement."""

    name = "NE"

    def __init__(self):
        self.sim = _FakeSim()
        self.multicast_routes = {}
        self.forwarded = []
        self.sent = []

    def set_interceptor(self, interceptor):
        self.interceptor = interceptor

    def forward_unicast(self, packet):
        self.forwarded.append(packet)

    def send_via(self, branch, packet):
        self.sent.append((branch, packet))


def _nak(seq, rx="r0", lead=100):
    report = ReceiverReport(rx_id=rx, rxw_lead=lead, rx_loss=0)
    return Nak(tsi=7, seq=seq, report=report)


class TestNeSoftStateRefresh:
    def _ne(self, **kwargs):
        router = _FakeRouter()
        return router, PgmNetworkElement(router, **kwargs)

    def test_renak_after_linger_refreshes_state(self):
        router, ne = self._ne()
        nak = _nak(42)
        pkt = Packet("r0", "R0", 64, nak, "pgm")
        assert ne._handle_nak(pkt, nak, "r0")
        assert ne.naks_forwarded == 1
        # the repair passes through and flips the entry to repaired
        rdata = RData(tsi=7, seq=42, trail=0, payload_len=64)
        ne._handle_rdata(Packet("h0", "mc:g", 64, rdata, "pgm"), rdata, "up")
        # a straggler NAK inside the linger window is eliminated
        router.sim.now = NE_REPAIR_LINGER / 2
        assert ne._handle_nak(pkt, nak, "r0")
        assert ne.naks_suppressed == 1
        assert ne.naks_refreshed == 0
        # ...but once the linger passes, a re-NAK means the repair died
        # downstream: retire the stale state and forward it fresh
        router.sim.now = NE_REPAIR_LINGER + 0.01
        assert ne._handle_nak(pkt, nak, "r0")
        assert ne.naks_refreshed == 1
        assert ne.naks_forwarded == 2

    def test_unrepaired_state_is_not_refreshed(self):
        router, ne = self._ne()
        nak = _nak(7)
        pkt = Packet("r0", "R0", 64, nak, "pgm")
        ne._handle_nak(pkt, nak, "r0")
        # no repair passed; re-NAKs keep being suppressed until the
        # full state lifetime expires, linger or not
        router.sim.now = NE_REPAIR_LINGER * 2
        ne._handle_nak(pkt, nak, "r0")
        assert ne.naks_refreshed == 0
        assert ne.naks_suppressed == 1

    def test_refresh_counter_exported_in_metrics(self):
        _, ne = self._ne()
        assert ne.metrics()["naks_refreshed"] == 0
