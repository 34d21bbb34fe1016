"""Cross-cutting property tests on the core state machines."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acker import AckerElection
from repro.core.acktrack import AckTracker, build_bitmap
from repro.core.loss_filter import SCALE
from repro.core.reports import ReceiverReport
from repro.core.throughput_models import PadhyeModel, SimpleModel


class TestElectionProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["r0", "r1", "r2", "r3"]),
                st.integers(min_value=0, max_value=99),   # rxw_lead
                st.integers(min_value=0, max_value=SCALE),  # rx_loss
            ),
            min_size=1,
            max_size=60,
        ),
        st.sampled_from([0.6, 0.75, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_never_switches_to_strictly_faster_candidate(self, reports, c):
        """For any report sequence, a switch only happens when the
        candidate's modelled slowness exceeds the incumbent's by the
        bias factor — never toward a strictly faster receiver."""
        election = AckerElection(c=c)
        last_tx = 100
        for i, (rx, lead, loss) in enumerate(reports):
            inc_metric = election.incumbent_metric
            inc_id = election.current
            switched = election.on_nak_report(
                ReceiverReport(rx, lead, loss), last_tx, float(i)
            )
            if switched and inc_metric is not None and inc_id != rx:
                cand_metric = election.switches[-1].candidate_metric
                assert cand_metric * c > inc_metric - 1e-9

    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=200),
                      st.integers(min_value=0, max_value=SCALE)),
            min_size=2, max_size=2, unique=True,
        )
    )
    @settings(max_examples=200)
    def test_models_agree_on_dominated_comparisons(self, pair):
        """When one receiver is worse in BOTH rtt and loss, every model
        must rank it slower (dominance consistency)."""
        (rtt_a, loss_a), (rtt_b, loss_b) = pair
        if not (rtt_a >= rtt_b and loss_a >= loss_b):
            return
        if rtt_a == rtt_b and loss_a == loss_b:
            return
        for model in (SimpleModel(), PadhyeModel()):
            assert model.slowness(rtt_a, loss_a) >= model.slowness(rtt_b, loss_b)


class TestAckReplayProperties:
    @given(
        st.integers(min_value=3, max_value=40),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_ack_replay_is_idempotent_for_acks(self, n, data):
        """Replaying any ACK never un-acknowledges a packet, and a
        packet acked once is never later declared lost."""
        tracker = AckTracker()
        received: set[int] = set()
        acked: set[int] = set()
        lost: set[int] = set()
        history: list[tuple[int, int]] = []
        for seq in range(n):
            tracker.on_data_sent(seq)
            if data.draw(st.booleans()):
                received.add(seq)
                ack = (seq, build_bitmap(seq, received))
                history.append(ack)
                outcome = tracker.on_ack(*ack)
                acked.update(outcome.newly_acked)
                lost.update(outcome.losses)
            # replay a random previous ACK sometimes
            if history and data.draw(st.booleans()):
                replay = data.draw(st.sampled_from(history))
                outcome = tracker.on_ack(*replay)
                acked.update(outcome.newly_acked)
                lost.update(outcome.losses)
        assert acked & lost == set()
        # everything the receiver got and covered by some bitmap is
        # never in the lost set
        assert lost.isdisjoint(acked)

    @given(st.integers(min_value=0, max_value=1000),
           st.sets(st.integers(min_value=0, max_value=1000), max_size=40))
    @settings(max_examples=150)
    def test_bitmap_build_is_pure(self, ack_seq, received):
        a = build_bitmap(ack_seq, received)
        b = build_bitmap(ack_seq, set(received))
        assert a == b
        assert 0 <= a < (1 << 32)


class TestLinkFifoProperty:
    @given(st.lists(st.integers(min_value=40, max_value=1500),
                    min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_single_link_preserves_order(self, sizes):
        """A FIFO link never reorders, whatever the packet sizes."""
        from repro.simulator import Packet
        from repro.simulator.engine import Simulator
        from repro.simulator.link import Link

        sim = Simulator()
        got = []
        link = Link(sim, "L", rate_bps=1e6, delay=0.01, queue_slots=1000)
        link.connect(SimpleNamespace(
            receive=lambda p, from_node: got.append(p.payload)), "a")
        for i, size in enumerate(sizes):
            link.send(Packet("a", "b", size, payload=i))
        sim.run()
        assert got == sorted(got)
        assert len(got) == len(sizes)
