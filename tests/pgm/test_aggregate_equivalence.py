"""Small-N equivalence oracle + promotion-safety properties.

The oracle runs the same group once with full per-receiver engines and
once through the aggregate-tail subsystem and requires them to agree on
acker identity, window-trajectory digest and goodput.

The hypothesis suite drives arbitrary promote/demote/quarantine/sweep
sequences against a live manager and asserts the invariants the
checker enforces in-sim: exact+tail always partitions the population,
and a quarantined identity is promoted by the sweep and never demoted
back into the anonymous tail while serving quarantine
(quarantined-never-acker needs the full engine to exist).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.scalability import GOODPUT_TOLERANCE, exact_vs_hybrid
from repro.pgm import SessionConfig, create_session
from repro.simulator import dumbbell_subtrees


def test_exact_vs_hybrid_oracle():
    verdict = exact_vs_hybrid()
    assert verdict["acker_match"], (
        f"elections diverged: exact={verdict['exact']['acker']} "
        f"hybrid={verdict['hybrid']['acker']}")
    assert verdict["digest_match"], "window trajectories diverged"
    assert verdict["goodput_rel_err"] <= GOODPUT_TOLERANCE
    # Same-subtree members see the same stream: the sparse
    # deterministic drops make the comparison exact, not just close.
    assert verdict["exact"]["odata"] == verdict["hybrid"]["odata"]
    assert verdict["exact"]["switches"] == verdict["hybrid"]["switches"]


# ---------------------------------------------------------------------------
# Promotion/demotion safety properties
# ---------------------------------------------------------------------------

N, SUBTREES = 12, 2

OPS = st.lists(
    st.tuples(st.sampled_from(["promote", "demote", "quarantine", "tick"]),
              st.integers(min_value=0, max_value=N - 1)),
    max_size=24,
)


def _fresh_manager():
    net = dumbbell_subtrees(N, subtrees=SUBTREES, seed=3)
    cfg = SessionConfig(
        aggregate=True, guard=True,
        # demote_after=0: the sweep demotes *every* eligible member
        # immediately, so any member that survives a tick is protected
        # by an explicit rule (pinned / acker / quarantined).
        aggregate_params={"predict_acker": False, "demote_after": 0.0},
    )
    session = create_session(net, "h0", [], config=cfg)
    return net, session


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS)
def test_promotion_never_breaks_conservation_or_quarantine(ops):
    net, session = _fresh_manager()
    try:
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
        # ... and a second sweep (instant-demotion config) must not
        # demote them back into the tail while quarantine is serving.
        mgr._tick()
        for rx_id in guard.quarantined_ids():
            assert not mgr.is_tail_identity(rx_id)
        assert mgr.conservation_errors() == []
    finally:
        session.close()


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_sampled_cohort_survives_any_sweep(seed):
    net = dumbbell_subtrees(N, subtrees=SUBTREES, seed=seed)
    session = create_session(
        net, "h0", [],
        config=SessionConfig(
            aggregate=True,
            aggregate_params={"predict_acker": False, "demote_after": 0.0}),
    )
    try:
        mgr = session.aggregate
        pinned = {m.identity for s in mgr.subtrees
                  for m in s.exact.values() if m.pinned}
        assert len(pinned) == SUBTREES  # sample=1 per subtree
        mgr._tick()
        mgr._tick()
        still = {m.identity for s in mgr.subtrees
                 for m in s.exact.values() if m.pinned}
        assert still == pinned
        assert mgr.conservation_errors() == []
    finally:
        session.close()
