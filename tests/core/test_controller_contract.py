"""Conformance suite for the congestion-controller contract.

Every backend in the registry — builtins and anything registered later
— must pass these: they are the behavioral half of the contract that
``docs/CONTROLLERS.md`` documents and that the sender engine and the
invariant checker assume.  The suite is parametrized over
:func:`repro.core.controller.controller_names`, so registering a new
backend automatically puts it under test.
"""

from __future__ import annotations

import json

import pytest

from repro.core.controller import (
    KINDS,
    Controller,
    controller_names,
    make_controller,
    register_controller,
)
from repro.core.reports import ReceiverReport
from repro.core.sender_cc import CcConfig

ALL = controller_names()


def fresh(name: str):
    return make_controller(name, CcConfig())


def report(rx="r0", lead=0):
    return ReceiverReport(rx_id=rx, rxw_lead=lead, rx_loss=0)


def drive_acks(ctl, n: int, start_seq: int = 0, now: float = 0.0,
               rtt: float = 0.1):
    """Send/ack ``n`` packets honoring the backend's pacing; returns
    (next_seq, now)."""
    seq = start_seq
    for _ in range(n):
        delay = ctl.send_delay(now)
        assert delay is not None, "ACK-clocked backend blocked while acked up"
        now += delay
        ctl.on_send(seq, now)
        now += rtt
        ctl.observe_report(report(lead=seq), rtt, now)
        ctl.on_ack(now, in_flight=1)
        seq += 1
    return seq, now


# -- structural conformance ----------------------------------------------------


@pytest.mark.parametrize("name", ALL)
def test_satisfies_protocol(name):
    ctl = fresh(name)
    assert isinstance(ctl, Controller)
    assert ctl.name == name
    assert ctl.kind in KINDS
    assert isinstance(ctl.congestion_signals, tuple) and ctl.congestion_signals


@pytest.mark.parametrize("name", ALL)
def test_window_view_surface(name):
    """The observable state telemetry samples and invariants wrap."""
    view = fresh(name)
    assert view.w >= 1.0
    assert view.tokens >= 0.0
    assert view.ignore_acks >= 0
    assert view.losses_reacted == 0
    assert view.losses_ignored == 0
    assert callable(view.on_congestion)


@pytest.mark.parametrize("name", ALL)
def test_state_is_a_serializable_document(name):
    ctl = fresh(name)
    state = ctl.state_summary()
    assert "schema" not in state  # a field of the summary, not a document
    assert state["name"] == name
    assert state["kind"] == ctl.kind
    assert json.loads(json.dumps(state, sort_keys=True)) == state


@pytest.mark.parametrize("name", ALL)
def test_fresh_backend_can_send(name):
    """A new session must be able to emit its first packet."""
    ctl = fresh(name)
    assert ctl.can_send
    assert ctl.send_delay(0.0) == 0.0


# -- behavioral conformance ----------------------------------------------------


@pytest.mark.parametrize("name", ALL)
def test_acks_grow_output_monotonically(name):
    """More clean ACKs never shrink the (equivalent) window."""
    ctl = fresh(name)
    seen = []
    seq, now = 0, 0.0
    for _ in range(8):
        seq, now = drive_acks(ctl, 5, seq, now)
        seen.append(ctl.w)
    assert all(b >= a - 1e-9 for a, b in zip(seen, seen[1:])), seen
    assert seen[-1] > seen[0]


@pytest.mark.parametrize("name", ALL)
def test_congestion_signal_reduces_output(name):
    """Each declared congestion signal must actually reduce output:
    a dupack-declared loss shrinks the window (roughly halving for the
    paper's controller), a timeout collapses it."""
    ctl = fresh(name)
    seq, now = drive_acks(ctl, 40, rtt=0.1)
    before = ctl.w
    if "dupack" in ctl.congestion_signals:
        reacted = ctl.on_congestion(seq - 2, seq - 1, int(before), now)
        assert reacted
        assert ctl.w <= before * 0.75 + 1e-9, (
            f"{name}: dupack reaction {before:.2f} -> {ctl.w:.2f}"
        )
        assert ctl.losses_reacted == 1
    else:
        # Backends that ignore dupacks must say so and not react.
        reacted = ctl.on_congestion(seq - 2, seq - 1, int(before), now)
        assert not reacted
        assert ctl.w == pytest.approx(before)
        assert ctl.losses_ignored == 1


@pytest.mark.parametrize("name", ALL)
def test_one_reaction_per_rtt(name):
    """Losses within an already-open recovery window are folded into
    the same congestion event (§3.4)."""
    ctl = fresh(name)
    if "dupack" not in ctl.congestion_signals:
        pytest.skip("timeout-only backend")
    seq, now = drive_acks(ctl, 40, rtt=0.1)
    assert ctl.on_congestion(seq - 3, seq - 1, 20, now)
    after_first = ctl.w
    # Second loss below the recorded recovery sequence: same event.
    assert not ctl.on_congestion(seq - 2, seq - 1, 20, now)
    assert ctl.w == pytest.approx(after_first)
    assert ctl.losses_ignored >= 1


@pytest.mark.parametrize("name", ALL)
def test_timeout_recovery(name):
    """A timeout collapses output, and the backend must be able to
    start sending again afterwards (possibly after a paced delay)."""
    ctl = fresh(name)
    seq, now = drive_acks(ctl, 40, rtt=0.1)
    before = ctl.w
    ctl.on_timeout(now)
    assert ctl.w <= before / 2.0 + 1e-9, (
        f"{name}: timeout {before:.2f} -> {ctl.w:.2f}"
    )
    # Recovery: sending becomes legal again within bounded time.
    ctl.kick()
    delay = ctl.send_delay(now)
    assert delay is not None and delay <= 10.0
    now += delay
    assert ctl.send_delay(now) == 0.0
    ctl.on_send(seq, now)


@pytest.mark.parametrize("name", ALL)
def test_kick_enables_send(name):
    """After a kick (dead feedback clock) one send must be possible."""
    ctl = fresh(name)
    now = 0.0
    # Exhaust send credit without any feedback.
    for seq in range(100):
        delay = ctl.send_delay(now)
        if delay != 0.0:
            break
        ctl.on_send(seq, now)
    else:
        pytest.fail("backend never exhausted its initial credit")
    assert not ctl.can_send
    ctl.kick()
    assert ctl.can_send
    assert ctl.tokens == 1.0  # exactly the one send the engine asked for
    assert ctl.send_delay(now) == 0.0


@pytest.mark.parametrize("name, w, in_flight, cc, after", [
    ("pgmcc", 16.0, 12, CcConfig(), (6.0, 6, 6.0)),  # realign, then halve
    ("pgmcc", 8.0, 1, CcConfig(), (1.0, 1, 6.0)),  # realign to one in flight
    ("aimd", 10.0, 0, CcConfig(), (7.0, 3, 6.0)),  # no realign to 0 in flight
    ("aimd", 1.2, None, CcConfig(), (1.0, 0, 6.0)),  # a cut below 2, floored
    ("aimd", 20.0, 20, CcConfig(adaptive_ssthresh=True), (14.0, 6, 14.0)),
    ("aimd", 20.0, 1, CcConfig(adaptive_ssthresh=True), (1.0, 0, 2.0)),
], ids=["pgmcc", "pgmcc-one-in-flight", "aimd-none-in-flight", "aimd-floor",
        "aimd-adaptive", "aimd-adaptive-one-in-flight"])
def test_congestion_cut_and_the_kick_that_clears_it(name, w, in_flight, cc, after):
    """A window backend's cut: ``(w, ignore_acks, ssthresh)`` after one
    reaction; a ``kick(clear_ignore=True)`` then leaves no ACK to
    ignore."""
    ctl = make_controller(name, cc)
    ctl.w = w
    assert ctl.on_congestion(1, 10, in_flight, 0.0)
    assert (ctl.w, ctl.ignore_acks, ctl.ssthresh) == pytest.approx(after)
    ctl.kick(clear_ignore=True)
    assert ctl.ignore_acks == 0
    assert ctl.can_send


def test_tfrc_state_through_a_timeout():
    """tfrc adopts the sender's smoothed RTT, counts timeouts from 0,
    keeps one token of a full bucket, reports its equivalent window
    below 2 packets, and ends a recovery window on a timeout."""
    ctl = fresh("tfrc")
    ctl.observe_report(report(), 0.4, 0.0)
    assert ctl.srtt == 0.4
    assert ctl.send_delay(10.0) == 0.0  # a long idle fills the bucket
    assert ctl.tokens == ctl.bucket_cap == 2.0
    ctl.on_timeout(10.0)
    assert ctl.timeouts == ctl.state_summary()["timeouts"] == 1
    assert ctl.tokens == 1.0
    assert ctl.w == pytest.approx(ctl.rate_pps * 0.4) == pytest.approx(1.6)
    assert ctl.on_congestion(5, 9, None, 10.0)
    ctl.on_timeout(11.0)
    assert ctl.timeouts == 2 and ctl.recovery_seq is None


@pytest.mark.parametrize("name", ALL)
def test_state_summary_tracks_events(name):
    ctl = fresh(name)
    drive_acks(ctl, 10)
    state = ctl.state_summary()
    # Every backend reports reaction counters in its state document.
    assert "losses_reacted" in state
    assert "losses_ignored" in state


# -- registry ------------------------------------------------------------------


def test_registry_has_all_builtins():
    assert set(ALL) >= {"pgmcc", "jain", "aimd", "tfrc"}


def test_unknown_name_raises_with_listing():
    with pytest.raises(KeyError, match="pgmcc"):
        make_controller("nope", CcConfig())


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_controller("pgmcc")(object)


def test_backend_params_forwarded():
    ctl = make_controller("aimd", CcConfig(), beta=0.9)
    assert ctl.beta == 0.9
    with pytest.raises(ValueError):
        make_controller("aimd", CcConfig(), beta=1.5)


@pytest.mark.parametrize("params", [
    {"bucket_cap": 0.5},  # would never hold a whole token
    {"min_rate_pps": 0.0},
    {"min_rate_pps": 10.0, "max_rate_pps": 5.0},
], ids=["bucket-below-one", "zero-floor", "ceiling-below-floor"])
def test_tfrc_rejects_each_bad_param(params):
    with pytest.raises(ValueError):
        make_controller("tfrc", CcConfig(), **params)


def test_cc_config_controller_selection():
    from repro.core.sender_cc import SenderController
    from repro.simulator.engine import Simulator

    cc = CcConfig(controller="aimd", controller_params=(("beta", 0.8),))
    ctl = SenderController(Simulator(), cc)
    assert ctl.backend.name == "aimd"
    assert ctl.backend.beta == 0.8
    assert not hasattr(ctl, "window")
