"""Packet pool: leak accounting, recycling, and the release contract.

The pool's invariant is the PR's safety net: after any drained
scenario — including NE suppression, fault episodes and queue churn —
``POOL.outstanding`` returns to zero and ``POOL.double_release`` stays
zero.  A leak means some path forgot to release; a double release
means two owners released the same reference (the bug class that used
to corrupt free lists in pooled designs).
"""

import pytest

from repro.experiments.registry import get_experiment
from repro.pgm import constants as C
from repro.pgm.network_element import PgmNetworkElement
from repro.pgm.session import create_session
from repro.simulator import (
    LOSSY,
    POOL,
    BurstLoss,
    Corruption,
    Duplication,
    FaultPlan,
    LinkSpec,
    Packet,
    dumbbell,
    flap_link,
)
from repro.simulator.engine import describe_event


@pytest.fixture(autouse=True)
def clean_pool():
    """Each test starts from, and leaves behind, zeroed counters."""
    POOL.reset()
    yield
    POOL.reset()


# -- unit-level lifecycle ------------------------------------------------


def test_refcount_lifecycle_and_reuse():
    p = Packet("a", "b", 100, payload="x")
    assert p.live
    p.retain()
    p.release()
    assert p.live  # one reference still held
    p.release()
    assert not p.live
    assert POOL.free, "released packet should enter the free list"
    q = Packet("c", "d", 200)
    assert q is p, "construction should recycle the freed instance"
    assert q.src == "c" and q.size == 200 and q.live
    assert POOL.reused == 1


def test_uids_fresh_across_reuse():
    a = Packet("a", "b", 1)
    uid_a = a.uid
    a.release()
    b = Packet("a", "b", 1)
    assert b is a and b.uid != uid_a


def test_double_release_is_counted_not_recycled_twice():
    p = Packet("a", "b", 100)
    p.release()
    frees = len(POOL.free)
    p.release()  # buggy caller
    assert POOL.double_release == 1
    assert len(POOL.free) == frees, "double release must not re-enter the free list"


# -- repr / trace guards (released packets must not resurrect) -----------


def test_released_packet_repr_is_guarded():
    p = Packet("a", "b", 100, payload="secret")
    live = repr(p)
    assert "secret" in live
    p.release()
    dead = repr(p)
    assert "released" in dead
    assert "secret" not in dead


def test_describe_event_does_not_render_released_packets():
    """Regression: event dumps used to render stale pooled fields."""
    from repro.simulator.engine import Simulator

    sim = Simulator()
    p = Packet("a", "b", 100, payload="stale-payload")
    ev = sim.schedule(1.0, lambda pkt: None, p)
    p.release()
    text = describe_event(ev)
    assert "stale-payload" not in text
    assert "released" in text
    sim.cancel(ev)
    assert "stale-payload" not in describe_event(ev)


# -- integration: drained scenarios leak nothing -------------------------


def _assert_drained(tag):
    assert POOL.double_release == 0, f"{tag}: double release detected"
    assert POOL.outstanding == 0, (
        f"{tag}: {POOL.outstanding} packet(s) leaked ({POOL.stats()})"
    )


def test_session_with_loss_drains_to_zero():
    net = dumbbell(1, 3, LOSSY, seed=11)
    create_session(net, "h0", ["r0", "r1", "r2"], stop_at=4.0)
    net.run(until=8.0)
    _assert_drained("lossy session")


def test_session_with_ne_and_faults_drains_to_zero():
    """The hard case: NE retains for re-forwarding, fault episodes drop
    queued packets, duplication adds extra references, corruption
    replaces packets mid-flight."""
    duration = 6.0
    net = dumbbell(1, 3, LinkSpec(500_000, 0.050, queue_slots=30), seed=7)
    PgmNetworkElement(net.router("R0"))
    PgmNetworkElement(net.router("R1"))
    plan = FaultPlan(episodes=(
        *flap_link("R0", "R1", first_at=0.3 * duration,
                   down_for=0.05 * duration, up_for=0.1 * duration, cycles=2),
        BurstLoss("R0", "R1", at=0.5 * duration, duration=0.1 * duration,
                  loss_rate=0.8),
        Duplication("R0", "R1", at=0.6 * duration, duration=0.2 * duration,
                    rate=0.3),
        Corruption("R0", "R1", at=0.7 * duration, duration=0.2 * duration,
                   rate=0.1),
    ))
    create_session(net, "h0", ["r0", "r1", "r2"],
                   faults=plan, stop_at=0.8 * duration)
    net.run(until=2 * duration)
    _assert_drained("NE + faults session")


#: Fast, structurally diverse registry subset: plain fairness, TCP
#: competition, NE suppression, scripted faults, ECMP reordering and
#: bursty (Gilbert) loss.
REPRESENTATIVE = ("EXP-F3", "EXP-F4", "EXP-F6", "EXP-CHAOS",
                  "EXP-MPATH", "ABL-BURST")


@pytest.mark.parametrize("exp_id", REPRESENTATIVE)
def test_no_experiment_double_releases(exp_id):
    """Experiments stop mid-flight, so packets are still outstanding;
    what must hold is that no owner released a reference twice."""
    get_experiment(exp_id).run(0.05)
    assert POOL.double_release == 0, f"{exp_id} double-released a packet"
