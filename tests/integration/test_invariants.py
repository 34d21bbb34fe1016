"""System-level invariants: conservation, determinism, state bounds.

These are the properties a downstream user relies on implicitly; they
are checked over full protocol runs, not synthetic inputs.
"""

from itertools import islice

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.window import WindowController
from repro.pgm import create_session
from repro.simulator import LOSSY, NON_LOSSY, LinkSpec, dumbbell
from repro.tcp import create_tcp_flow


class TestPacketConservation:
    def run_loaded_network(self, seed=41):
        net = dumbbell(2, 2, LinkSpec(500_000, 0.05, queue_slots=10,
                                      loss_rate=0.01), seed=seed)
        session = create_session(net, "h0", ["r0"])
        tcp = create_tcp_flow(net, "h1", "r1", start_at=5.0)
        net.run(until=40.0)
        return net, session, tcp

    def test_every_link_conserves_packets(self):
        """sent == delivered + random drops + queue drops + still queued
        + in flight (zero at quiescence per link when we stop feeding)."""
        net, session, tcp = self.run_loaded_network()
        session.close()
        tcp.close()
        net.run(until=60.0)  # drain
        for node in net.nodes.values():
            for link in node.links.values():
                accounted = (
                    link.delivered
                    + link.random_drops
                    + link.queue_drops
                    + link.queued
                )
                assert link.sent == accounted, link.name

    def test_receiver_sees_no_more_than_sent(self):
        net, session, tcp = self.run_loaded_network()
        rx = session.receivers[0]
        assert rx.odata_received <= session.sender.odata_sent
        assert rx.rdata_received <= session.sender.rdata_sent


class TestDeterminism:
    def run_once(self, seed):
        net = dumbbell(2, 2, LOSSY, seed=seed)
        session = create_session(net, "h0", ["r0"])
        tcp = create_tcp_flow(net, "h1", "r1", start_at=3.0)
        net.run(until=30.0)
        fingerprint = (
            session.sender.odata_sent,
            session.sender.rdata_sent,
            session.sender.acks_received,
            session.acker_switches,
            tcp.sender.segments_sent,
            tcp.sender.retransmissions,
            tuple(islice(session.trace, 50)),
        )
        session.close()
        tcp.close()
        return fingerprint

    def test_same_seed_identical_run(self):
        assert self.run_once(123) == self.run_once(123)

    def test_different_seed_different_run(self):
        assert self.run_once(123) != self.run_once(124)


class TestStateBounds:
    def test_sender_state_stays_bounded(self):
        """§3: constant state — outstanding table, send-time map and
        NE-free structures must not grow with session length."""
        net = dumbbell(1, 2, NON_LOSSY, seed=44)
        session = create_session(net, "h0", ["r0", "r1"])
        net.run(until=60.0)
        ctl = session.sender.controller
        assert ctl.tracker.outstanding_count < 200
        assert len(ctl._send_times) < 400
        for rx in session.receivers:
            assert len(rx._nak_states) < 100
            assert rx.cc._received_bits.bit_length() < 5000

    def test_trace_is_the_only_unbounded_structure(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=45)
        session = create_session(net, "h0", ["r0"])
        net.run(until=30.0)
        assert len(session.trace) > 1000  # traces do grow, by design


class TestWindowControllerFuzz:
    @given(st.lists(st.sampled_from(["ack", "loss", "restart"]),
                    min_size=1, max_size=400))
    @settings(max_examples=200)
    def test_invariants_under_any_event_order(self, events):
        """W >= 1, tokens finite, ignore counter non-negative, and the
        controller never raises for any feedback ordering."""
        ctl = WindowController()
        seq = 0
        for event in events:
            if event == "ack":
                ctl.on_ack(0.0)
            elif event == "loss":
                seq += 5
                ctl.on_congestion(seq, seq + 3, max(1, int(ctl.w)), 0.0)
            else:
                ctl.on_timeout(0.0)
            assert ctl.w >= 1.0
            assert ctl.ignore_acks >= 0
            assert ctl.tokens < 1e6

    @given(st.lists(st.booleans(), min_size=10, max_size=300))
    @settings(max_examples=100)
    def test_tokens_track_ack_credit(self, acks_vs_losses):
        """Cumulative tokens never exceed 1 (initial) + Σ(1 + 1/W) over
        accepted ACKs — the controller cannot mint credit."""
        ctl = WindowController()
        credit = 1.0
        seq = 0
        for is_ack in acks_vs_losses:
            if is_ack:
                before_w = ctl.w
                accepted = ctl.ignore_acks == 0
                ctl.on_ack(0.0)
                if accepted:
                    credit += 1.0 + 1.0 / max(before_w, 1.0)
            else:
                seq += 1
                ctl.on_congestion(seq, seq + 1, None, 0.0)
            assert ctl.tokens <= credit + 1e-9
