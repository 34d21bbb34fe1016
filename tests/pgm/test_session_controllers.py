"""End-to-end controller selection through SessionConfig/create_session."""

from __future__ import annotations

import pytest

from repro.core.controller import controller_names
from repro.core.sender_cc import CcConfig
from repro.pgm.session import SessionConfig, create_session
from repro.simulator.topology import LinkSpec, dumbbell

LOSSY = LinkSpec(rate_bps=2_000_000, delay=0.230, queue_bytes=30_000,
                 loss_rate=0.03)


def run_session(name: str, seed: int = 7, until: float = 12.0, **cc_kwargs):
    net = dumbbell(1, 3, LOSSY, seed=seed)
    session = create_session(
        net, "h0", ["r0", "r1", "r2"],
        config=SessionConfig(cc=CcConfig(controller=name, **cc_kwargs),
                             stop_at=until - 2.0,
                             check_invariants=True, guard=True),
    )
    net.sim.run(until=until)
    summary = session.summary()
    session.close()
    return session, summary


@pytest.mark.parametrize("name", controller_names())
def test_every_backend_moves_data_under_loss(name):
    session, summary = run_session(name)
    assert summary["controller"] == name
    assert summary["odata_sent"] > 20
    # every receiver actually got data
    for rx_stats in summary["receivers"].values():
        assert rx_stats["delivered"] > 0
    # invariants held for the whole run
    assert session.invariants is not None and session.invariants.ok


@pytest.mark.parametrize("name", controller_names())
def test_summary_carries_controller_state(name):
    _, summary = run_session(name, until=6.0)
    state = summary["controller_state"]
    assert "schema" not in state
    assert state["name"] == name


def test_controller_params_flow_through_config():
    session, summary = run_session("aimd", controller_params={"beta": 0.85})
    # a mapping is stored as the sorted tuple the cache keys hash
    assert session.config.cc.controller_params == (("beta", 0.85),)
    assert session.sender.controller.backend.beta == 0.85
    assert summary["controller"] == "aimd"


def test_controller_in_cc_config_directly():
    net = dumbbell(1, 2, LOSSY, seed=11)
    session = create_session(
        net, "h0", ["r0", "r1"],
        config=SessionConfig(cc=CcConfig(controller="jain"), stop_at=4.0),
    )
    net.sim.run(until=5.0)
    assert session.sender.controller.backend.name == "jain"
    session.close()


def test_unknown_controller_raises():
    net = dumbbell(1, 2, LOSSY, seed=13)
    with pytest.raises(KeyError, match="unknown controller"):
        create_session(net, "h0", ["r0", "r1"],
                       config=SessionConfig(cc=CcConfig(controller="bogus")))


def test_default_session_still_pgmcc():
    net = dumbbell(1, 2, LOSSY, seed=14)
    session = create_session(net, "h0", ["r0", "r1"],
                             config=SessionConfig(stop_at=4.0))
    assert session.sender.controller.backend.name == "pgmcc"
    summary_keys = set(session.summary())
    assert {"controller", "controller_state"} <= summary_keys
    session.close()


@pytest.mark.parametrize("name", controller_names())
def test_telemetry_binds_for_every_backend(name):
    """The metric surface (gauges + probe series over the backend's
    w/tokens) must work for rate backends' equivalent window too."""
    session, _ = run_session(name, until=8.0)
    export = session.metrics.export()
    assert export["meta"]["controller"] == name
    gauges = export["gauges"]
    assert gauges["cc.window_w"] >= 1.0
    assert gauges["cc.tokens"] >= 0.0
    series = export["series"]
    assert series["cc.window"]["count"] > 0
    assert series["cc.window"]["points"]
    assert series["cc.tokens"]["count"] == series["cc.window"]["count"]
