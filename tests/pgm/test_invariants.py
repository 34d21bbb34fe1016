"""Every rule of the runtime invariant checker can fire.

The checker is the oracle behind the chaos and fuzz tests, so each of
its rules (:data:`repro.pgm.invariants.RULES`) gets one case here: a
small session with a test-local break of exactly the property the rule
guards.  In strict mode the run raises :class:`InvariantViolation`
naming the rule; in non-strict mode the checker records that rule and
no other.
"""

from itertools import groupby

import pytest

from repro.core.reports import ReceiverReport
from repro.core.sender_cc import SenderController
from repro.core.window import WindowController
from repro.pgm import aggregate, create_session
from repro.pgm.aggregate import AggregateManager
from repro.pgm.invariants import RULES, InvariantViolation
from repro.pgm.packets import Ack, Nak
from repro.pgm.sender import PgmSender
from repro.simulator import (
    DeterministicLoss,
    LinkSpec,
    dumbbell,
    dumbbell_subtrees,
)

BOTTLENECK = LinkSpec(rate_bps=1_000_000, delay=0.02, queue_slots=40)


def small_session(strict, bottleneck=BOTTLENECK, **options):
    net = dumbbell(1, 2, bottleneck, seed=3)
    session = create_session(net, "h0", ["r0", "r1"], check_invariants=True,
                             strict_invariants=strict, **options)
    return net, session


def hybrid_session(strict):
    net = dumbbell_subtrees(24, subtrees=2, bottleneck=BOTTLENECK, seed=5)
    session = create_session(net, "h0", [], aggregate=True,
                             check_invariants=True, strict_invariants=strict)
    return net, session


# -- one break per rule: each returns (net, session, run-until) ---------


def leaked_token(monkeypatch, strict):
    """Every transmission spends a second token."""
    spend = WindowController.on_transmit

    def leaky(self):
        spend(self)
        self.tokens -= 1.0

    monkeypatch.setattr(WindowController, "on_transmit", leaky)
    return (*small_session(strict), 2.0)


def double_halving(monkeypatch, strict):
    """A loss inside the recovery window halves the window again."""
    react = WindowController.on_loss

    def forgetful(self, loss_seq, last_tx_seq, in_flight=None):
        self.recovery_seq = None
        return react(self, loss_seq, last_tx_seq, in_flight)

    monkeypatch.setattr(WindowController, "on_loss", forgetful)
    lossy = LinkSpec(rate_bps=1_000_000, delay=0.02, queue_slots=40,
                     loss_rate=0.05)
    return (*small_session(strict, bottleneck=lossy), 10.0)


def lead_past_sent(monkeypatch, strict):
    """A NAK whose report claims a lead the sender never sent reaches
    the controller (handed in behind the sender's wire-sanity gate)."""
    net, session = small_session(strict)
    sender = session.sender

    def forge():
        lead = sender.controller.last_tx_seq + 100
        sender._handle_nak(Nak(session.tsi, 1, ReceiverReport("r0", lead, 0)))

    net.sim.schedule_at(1.0, forge)
    return net, session, 2.0


def forgotten_delivery(monkeypatch, strict):
    """The bottleneck forgets one packet it delivered."""
    net, session = small_session(strict)
    link = net.link("R0", "R1")

    def forget():
        link.delivered -= 1

    net.sim.schedule_at(0.5, forget)
    return net, session, 1.5


def reaction_on_switch(monkeypatch, strict):
    """An acker switch halves the window."""
    elect = SenderController.on_nak

    def reacting(self, report):
        switched = elect(self, report)
        if switched:
            self.window.on_loss(self.last_tx_seq, self.last_tx_seq)
        return switched

    monkeypatch.setattr(SenderController, "on_nak", reacting)
    return (*small_session(strict), 1.0)


def quarantined_acker_kept(monkeypatch, strict):
    """The guard quarantines the acker and the sender keeps it."""
    monkeypatch.setattr(PgmSender, "_maybe_evict", lambda self, rx_id: None)
    net, session = small_session(strict, guard=True)
    sender = session.sender

    def lie():
        acker = sender.current_acker
        assert acker is not None
        past = sender.controller.last_tx_seq + 5  # two strong rules at once
        sender._handle_ack(Ack(session.tsi, past, 0,
                               ReceiverReport(acker, past, 0)))
        assert session.guard.is_quarantined(acker)

    net.sim.schedule_at(0.5, lie)
    return net, session, 1.5


def member_dropped(monkeypatch, strict):
    """One tail member leaves the count without becoming exact."""
    net, session = hybrid_session(strict)
    manager = session.aggregate

    def drop():
        subtree = manager.subtrees[0]
        tail = next(identity for identity in manager.plan.identities(0)
                    if manager.is_tail_identity(identity))
        subtree.bank.remove(tail)

    net.sim.schedule_at(0.5, drop)
    return net, session, 1.5


def tail_acker_kept(monkeypatch, strict):
    """A tail identity elected acker is never promoted.  It never ACKs,
    so a stall unseats it about 1.9 s later: the checker fires the grace
    from the seating, where its 1 s sweep alone can miss a reign that
    short."""
    monkeypatch.setattr(AggregateManager, "on_acker_observed",
                        lambda self, acker_id, seq: None)
    net = dumbbell_subtrees(24, subtrees=2, bottleneck=BOTTLENECK, seed=5)
    session = create_session(net, "h0", [], aggregate=True,
                             check_invariants=True, strict_invariants=strict)
    net.link("R0", net.subtree_plan.router(0)).loss = DeterministicLoss(
        range(5, 400, 7))
    return net, session, 8.0


BREAKS = {
    "token-accounting": leaked_token,
    "single-halving-per-rtt": double_halving,
    "rxw-lead-monotonic": lead_past_sent,
    "link-conservation": forgotten_delivery,
    "switch-no-reaction": reaction_on_switch,
    "quarantined-no-acker": quarantined_acker_kept,
    "aggregate-conservation": member_dropped,
    "aggregate-promotion": tail_acker_kept,
}


def test_every_rule_has_a_break():
    assert sorted(BREAKS) == sorted(RULES)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "collect"])
@pytest.mark.parametrize("rule", RULES)
def test_a_broken_property_fires_its_rule(rule, strict, monkeypatch):
    net, session, until = BREAKS[rule](monkeypatch, strict)
    if strict:
        with pytest.raises(InvariantViolation, match=rf"\[{rule}\]"):
            net.run(until=until)
        return
    net.run(until=until)
    session.invariants.verify_now()
    assert {v.rule for v in session.invariants.violations} == {rule}


def test_the_promotion_break_seats_a_tail_acker_past_the_grace(monkeypatch):
    """The precondition of the aggregate-promotion case: a tail identity
    holds the seat, unpromoted, for longer than the grace."""
    net, session, until = tail_acker_kept(monkeypatch, strict=False)
    manager, sender = session.aggregate, session.sender
    seats = []  # (time, the acker if it is a tail identity, else None)

    def sample():
        acker = sender.current_acker
        tail = acker is not None and manager.is_tail_identity(acker)
        seats.append((net.sim.now, acker if tail else None))
        net.sim.schedule(0.05, sample)

    net.sim.schedule(0.05, sample)
    net.run(until=until)
    reigns = [list(run) for acker, run in groupby(seats, key=lambda s: s[1])
              if acker is not None]
    longest = max(run[-1][0] - run[0][0] for run in reigns)
    assert longest > aggregate.PROMOTION_GRACE
