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
    """The observable view telemetry samples and invariants wrap."""
    view = fresh(name).window
    assert view.w >= 1.0
    assert view.tokens >= 0.0
    assert view.ignore_acks >= 0
    assert view.losses_reacted == 0
    assert view.losses_ignored == 0
    assert callable(view.on_loss)


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
        seen.append(ctl.window.w)
    assert all(b >= a - 1e-9 for a, b in zip(seen, seen[1:])), seen
    assert seen[-1] > seen[0]


@pytest.mark.parametrize("name", ALL)
def test_congestion_signal_reduces_output(name):
    """Each declared congestion signal must actually reduce output:
    a dupack-declared loss shrinks the window (roughly halving for the
    paper's controller), a timeout collapses it."""
    ctl = fresh(name)
    seq, now = drive_acks(ctl, 40, rtt=0.1)
    before = ctl.window.w
    if "dupack" in ctl.congestion_signals:
        reacted = ctl.on_congestion(seq - 2, seq - 1, int(before), now)
        assert reacted
        assert ctl.window.w <= before * 0.75 + 1e-9, (
            f"{name}: dupack reaction {before:.2f} -> {ctl.window.w:.2f}"
        )
        assert ctl.window.losses_reacted == 1
    else:
        # Backends that ignore dupacks must say so and not react.
        reacted = ctl.on_congestion(seq - 2, seq - 1, int(before), now)
        assert not reacted
        assert ctl.window.w == pytest.approx(before)
        assert ctl.window.losses_ignored == 1


@pytest.mark.parametrize("name", ALL)
def test_one_reaction_per_rtt(name):
    """Losses within an already-open recovery window are folded into
    the same congestion event (§3.4)."""
    ctl = fresh(name)
    if "dupack" not in ctl.congestion_signals:
        pytest.skip("timeout-only backend")
    seq, now = drive_acks(ctl, 40, rtt=0.1)
    assert ctl.on_congestion(seq - 3, seq - 1, 20, now)
    after_first = ctl.window.w
    # Second loss below the recorded recovery sequence: same event.
    assert not ctl.on_congestion(seq - 2, seq - 1, 20, now)
    assert ctl.window.w == pytest.approx(after_first)
    assert ctl.window.losses_ignored >= 1


@pytest.mark.parametrize("name", ALL)
def test_timeout_recovery(name):
    """A timeout collapses output, and the backend must be able to
    start sending again afterwards (possibly after a paced delay)."""
    ctl = fresh(name)
    seq, now = drive_acks(ctl, 40, rtt=0.1)
    before = ctl.window.w
    ctl.on_timeout(now)
    assert ctl.window.w <= before / 2.0 + 1e-9, (
        f"{name}: timeout {before:.2f} -> {ctl.window.w:.2f}"
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
    ctl.kick()
    assert ctl.can_send
    assert ctl.send_delay(now) == 0.0


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
    assert ctl.window.beta == 0.9
    with pytest.raises(ValueError):
        make_controller("aimd", CcConfig(), beta=1.5)


def test_cc_config_controller_selection():
    from repro.core.sender_cc import SenderController
    from repro.simulator.engine import Simulator

    cc = CcConfig(controller="aimd", controller_params=(("beta", 0.8),))
    ctl = SenderController(Simulator(), cc)
    assert ctl.backend.name == "aimd"
    assert ctl.backend.window.beta == 0.8
    assert ctl.window is ctl.backend.window
