"""Small-N equivalence oracle + promotion-safety properties.

The oracle runs the same group once with full per-receiver engines and
once through the aggregate-tail subsystem, at the subsystem's default
constants, and requires them to agree on acker identity,
window-trajectory digest, ODATA count and acker switches.

The hypothesis suite drives arbitrary promote/demote/quarantine/sweep
sequences against a live manager and asserts the invariants the
checker enforces in-sim: exact+tail always partitions the population,
and a quarantined identity is promoted by the sweep and never demoted
back into the anonymous tail while serving quarantine
(quarantined-never-acker needs the full engine to exist).
"""

from contextlib import contextmanager
from itertools import accumulate

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.scalability import exact_vs_hybrid
from repro.pgm import SessionConfig, aggregate, create_session
from repro.simulator import dumbbell_subtrees


#: arrival indices on subtree 0's bottleneck: 100-250 apart, the first
#: at 100 or later (DESIGN.md §9, "Equivalence domain")
SPARSE_DROPS = st.lists(st.integers(min_value=100, max_value=250),
                        max_size=3).map(lambda gaps: tuple(accumulate(gaps)))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(min_value=4, max_value=48),
       subtrees=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=2**16),
       drops=SPARSE_DROPS)
def test_exact_vs_hybrid_oracle(n, subtrees, seed, drops):
    """Every tail here is below ``MIRROR_THRESHOLD``, so the banks draw
    member for member and the comparison is exact, not just close."""
    assert n <= aggregate.MIRROR_THRESHOLD
    verdict = exact_vs_hybrid(n=n, subtrees=subtrees, duration=4.0,
                              seed=seed, drops=drops)
    exact, hybrid = verdict["exact"], verdict["hybrid"]
    assert exact["acker"] == hybrid["acker"], "elections diverged"
    assert verdict["digest_match"], "window trajectories diverged"
    assert exact["odata"] == hybrid["odata"]
    assert exact["switches"] == hybrid["switches"]


# ---------------------------------------------------------------------------
# Promotion/demotion safety properties
# ---------------------------------------------------------------------------

N, SUBTREES = 12, 2

OPS = st.lists(
    st.tuples(st.sampled_from(["promote", "demote", "quarantine", "tick"]),
              st.integers(min_value=0, max_value=N - 1)),
    max_size=24,
)


@contextmanager
def _instant_demotion(seed, **cfg):
    """A hybrid session whose sweep runs with ``DEMOTE_AFTER = 0``: it
    demotes *every* eligible member at once, so any member that
    survives a tick is protected by an explicit rule (pinned / acker /
    quarantined)."""
    net = dumbbell_subtrees(N, subtrees=SUBTREES, seed=seed)
    session = create_session(net, "h0", [],
                             config=SessionConfig(aggregate=True, **cfg))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(aggregate, "DEMOTE_AFTER", 0.0)
        try:
            yield net, session
        finally:
            session.close()


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_promotion_never_breaks_conservation_or_quarantine(ops):
    with _instant_demotion(3, guard=True) as (net, session):
        mgr = session.aggregate
        plan = net.subtree_plan
        guard = session.sender.guard
        for op, idx in ops:
            k = idx % plan.subtrees
            identity = plan.identity(k, idx % plan.sizes[k])
            if op == "promote":
                mgr.promote(identity)
            elif op == "demote":
                mgr.demote(identity)
            elif op == "quarantine":
                guard._ledger(identity).quarantined_until = (
                    net.sim.now + 1000.0)
            else:
                mgr._tick()
            assert mgr.conservation_errors() == []
        # A final sweep must leave every quarantined member exact —
        # the guard's quarantined-never-acker machinery only sees
        # receivers that exist as engines.
        mgr._tick()
        for rx_id in guard.quarantined_ids():
            assert not mgr.is_tail_identity(rx_id)
        # ... and a second sweep (instant demotion) must not demote
        # them back into the tail while quarantine is serving.
        mgr._tick()
        for rx_id in guard.quarantined_ids():
            assert not mgr.is_tail_identity(rx_id)
        assert mgr.conservation_errors() == []


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_sampled_cohort_survives_any_sweep(seed):
    with _instant_demotion(seed) as (net, session):
        mgr = session.aggregate
        pinned = {m.identity for s in mgr.subtrees
                  for m in s.exact.values() if m.pinned}
        assert len(pinned) == SUBTREES  # SAMPLE = 1 per subtree
        mgr._tick()
        mgr._tick()
        still = {m.identity for s in mgr.subtrees
                 for m in s.exact.values() if m.pinned}
        assert still == pinned
        assert mgr.conservation_errors() == []
