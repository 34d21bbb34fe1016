"""Aggregate-tail subsystem: banks, promotion/demotion, accounting.

Bank math is pinned against hand-computed draws (the MirrorBank must
be draw-for-draw what exact receivers would do; the AnalyticBank must
match the order-statistic inverse CDF).  Manager tests run tiny hybrid
sessions and drive promotion/demotion directly.
"""

import random

import pytest

from repro.pgm import SessionConfig, create_session, enable_network_elements
from repro.pgm.aggregate import AnalyticBank, MirrorBank
from repro.simulator import (
    DeterministicLoss,
    LinkSpec,
    dumbbell,
    dumbbell_subtrees,
)

BOTTLENECK = LinkSpec(rate_bps=2_000_000, delay=0.02)


def hybrid_session(n=24, subtrees=2, seed=5, drops=(), stop_at=4.0):
    net = dumbbell_subtrees(n, subtrees=subtrees, bottleneck=BOTTLENECK,
                            seed=seed)
    if drops:
        net.link("R0", net.subtree_plan.router(0)).loss = (
            DeterministicLoss(drops))
    cfg = SessionConfig(stop_at=stop_at, aggregate=True)
    session = create_session(net, "h0", [], config=cfg)
    enable_network_elements(net, telemetry=session.metrics)
    return net, session


# ---------------------------------------------------------------------------
# Banks
# ---------------------------------------------------------------------------


class TestMirrorBank:
    def _banks(self, n=5):
        streams = {f"m{i}": random.Random(100 + i) for i in range(n)}
        shadow = {f"m{i}": random.Random(100 + i) for i in range(n)}
        return MirrorBank(streams), shadow

    def test_draw_is_min_and_argmin_of_member_draws(self):
        bank, shadow = self._banks()
        delay, winner = bank.draw(1.0)
        expected = {k: rng.uniform(0, 1.0) for k, rng in shadow.items()}
        assert winner == min(expected, key=expected.get)
        assert delay == min(expected.values())

    def test_every_member_stream_advances_each_round(self):
        # Draw indices must stay aligned with an exact run: one value
        # per member per lottery, loser streams included.
        bank, shadow = self._banks()
        for _ in range(3):
            bank.draw(0.5)
        delay, winner = bank.draw(0.5)
        for rng in shadow.values():
            for _ in range(3):
                rng.uniform(0, 0.5)
        expected = {k: rng.uniform(0, 0.5) for k, rng in shadow.items()}
        assert (delay, winner) == (min(expected.values()),
                                   min(expected, key=expected.get))

    def test_remove_and_add(self):
        bank, _ = self._banks(3)
        assert bank.size == 3 and "m1" in bank
        assert bank.remove("m1") is True
        assert bank.size == 2 and "m1" not in bank
        assert bank.remove("m1") is False
        bank.add("m1", random.Random(101))
        assert bank.size == 3 and "m1" in bank


class TestAnalyticBank:
    def _bank(self, excluded=(3, 50), seed=9):
        plan = dumbbell_subtrees(100, subtrees=1).subtree_plan
        return AnalyticBank(plan, 0, 100, set(excluded), random.Random(seed))

    def test_size_excludes_promoted(self):
        assert self._bank().size == 98

    def test_contains(self):
        bank = self._bank()
        assert "t0r4" in bank
        assert "t0r3" not in bank        # excluded
        assert "t0r200" not in bank      # out of range
        assert "t1r0" not in bank        # wrong subtree
        assert "h0" not in bank

    def test_draw_matches_order_statistic_inverse_cdf(self):
        bank = self._bank()
        shadow = random.Random(9)
        u = shadow.random()
        expected = 2.0 * (1.0 - (1.0 - u) ** (1.0 / 98))
        delay, identity = bank.draw(2.0)
        assert delay == pytest.approx(expected)
        assert identity.startswith("t0r")

    def test_draw_never_returns_excluded_identity(self):
        bank = self._bank(excluded=(0, 1, 97, 50))
        for _ in range(500):
            delay, identity = bank.draw(1.0)
            assert 0.0 <= delay <= 1.0
            index = int(identity[len("t0r"):])
            assert index < 100
            assert index not in (0, 1, 97, 50)

    def test_remove_add_roundtrip(self):
        bank = self._bank(excluded=())
        assert bank.remove("t0r7") is True
        assert bank.size == 99 and "t0r7" not in bank
        assert bank.remove("t0r7") is False
        bank.add("t0r7")
        assert bank.size == 100 and "t0r7" in bank


# ---------------------------------------------------------------------------
# Summary block
# ---------------------------------------------------------------------------


#: the ``aggregate`` block of a session without the subsystem
ZEROED_BLOCK = {
    "enabled": False, "population": 0, "subtrees": 0,
    "exact_cohort": 0, "tail": 0, "sampled": 0, "promotions": 0,
    "demotions": 0, "promotions_deferred": 0, "synthetic_naks": 0,
    "synthetic_fake_naks": 0,
    "modes": {"mirror": 0, "analytic": 0},
}


class TestSummaryBlock:
    def test_empty_summary_has_the_fixed_keys(self):
        """The block has one key set, subsystem on or off."""
        net, session = hybrid_session(n=24, subtrees=2, stop_at=0.5)
        assert set(session.summary()["aggregate"]) == set(ZEROED_BLOCK)
        session.close()

    def test_non_aggregate_session_ships_zeroed_block(self):
        net = dumbbell(1, 2, BOTTLENECK)
        session = create_session(net, "h0", ["r0", "r1"])
        assert session.summary()["aggregate"] == ZEROED_BLOCK
        session.close()

    def test_hybrid_session_summary(self):
        net, session = hybrid_session(n=24, subtrees=2)
        block = session.summary()["aggregate"]
        assert block["enabled"] is True
        assert block["population"] == 24
        assert block["subtrees"] == 2
        assert block["exact_cohort"] + block["tail"] == 24
        assert block["modes"] == {"mirror": 2, "analytic": 0}
        session.close()


# ---------------------------------------------------------------------------
# Manager: promotion / demotion / conservation
# ---------------------------------------------------------------------------


def tail_identities(manager, k, count):
    plan = manager.plan
    found = [i for i in plan.identities(k) if manager.is_tail_identity(i)]
    assert len(found) >= count
    return found[:count]


class TestPromotionDemotion:
    def test_promote_demote_roundtrip(self):
        net, session = hybrid_session()
        mgr = session.aggregate
        identity = tail_identities(mgr, 0, 1)[0]
        before_tail = mgr.tail_count()

        assert mgr.promote(identity) is True
        assert not mgr.is_tail_identity(identity)
        assert mgr.tail_count() == before_tail - 1
        assert identity in session._rx_index
        assert mgr.conservation_errors() == []
        assert mgr.promote(identity) is False  # already exact

        assert mgr.demote(identity) is True
        assert mgr.is_tail_identity(identity)
        assert mgr.tail_count() == before_tail
        assert identity not in session._rx_index
        assert mgr.conservation_errors() == []
        assert mgr.demote(identity) is False   # already tail
        assert (mgr.promotions, mgr.demotions) == (1, 1)
        session.close()

    def test_sampled_members_never_demote(self):
        net, session = hybrid_session()
        mgr = session.aggregate
        pinned = [m.identity for s in mgr.subtrees
                  for m in s.exact.values() if m.pinned]
        assert pinned  # SAMPLE = 1 per subtree
        for identity in pinned:
            assert mgr.demote(identity) is False
        session.close()

    def test_slot_exhaustion_defers(self):
        # slots=4 per subtree, one taken by the sampled member: the
        # 4th promotion into the same subtree must defer, not crash.
        net, session = hybrid_session()
        mgr = session.aggregate
        candidates = tail_identities(mgr, 0, 4)
        assert [mgr.promote(i) for i in candidates[:3]] == [True] * 3
        assert mgr.promote(candidates[3]) is False
        assert mgr.promotions_deferred == 1
        assert mgr.conservation_errors() == []
        session.close()

    def test_promote_foreign_identity_refused(self):
        net, session = hybrid_session()
        mgr = session.aggregate
        assert mgr.promote("h0") is False
        assert mgr.promote("t9r0") is False
        session.close()

    def test_on_acker_observed_promotes_tail(self):
        # The new engine ACKs the ODATA that named it: its own copy
        # of that packet may already have reached its slot host.
        net, session = hybrid_session()
        net.sim.run(until=0.5)
        mgr = session.aggregate
        promotions = mgr.promotions
        identity = tail_identities(mgr, 1, 1)[0]
        seq = mgr.subtrees[1].proxy.cc.rxw_lead
        mgr.on_acker_observed(identity, seq)
        assert not mgr.is_tail_identity(identity)
        assert mgr.promotions == promotions + 1
        assert session._rx_index[identity].acks_sent == 1
        session.close()


# ---------------------------------------------------------------------------
# End-to-end: a small hybrid run
# ---------------------------------------------------------------------------


class TestHybridRun:
    def test_network_element_counts_aggregated_naks(self):
        net, session = hybrid_session(drops=(100, 250), stop_at=5.0)
        net.sim.run(until=6.0)
        mgr = session.aggregate
        assert mgr.conservation_errors() == []
        # A repaired gap leaves no member identity stamped on its proxy.
        assert mgr.subtrees[0].proxy.synthetic_naks > 0
        assert not mgr.subtrees[0].proxy._nak_identity
        element = net.nodes["T0"].interceptor
        metrics = element.metrics()
        # The proxy's synthetic NAK stands in for bank.size+1 members.
        assert metrics["aggregate_branches"] >= 1
        assert metrics["naks_aggregated"] > 0
        session.close()

    def test_telemetry_exports_agg_series(self):
        net, session = hybrid_session(drops=(100, 250), stop_at=5.0)
        net.sim.run(until=6.0)
        doc = session.metrics.export(experiment="test")
        assert doc["gauges"]["agg.population"] == 24
        assert "agg.promotions" in doc["counters"]
        assert "agg.synthetic_naks" in doc["counters"]
        session.close()

    def test_aggregate_requires_subtree_plan(self):
        net = dumbbell(1, 2, BOTTLENECK)
        with pytest.raises(ValueError, match="subtree"):
            create_session(net, "h0", [],
                           config=SessionConfig(aggregate=True))

    def test_aggregate_requires_virtual_members(self):
        net = dumbbell_subtrees(6, subtrees=2, members="real")
        with pytest.raises(ValueError, match="virtual"):
            create_session(net, "h0", [],
                           config=SessionConfig(aggregate=True))
