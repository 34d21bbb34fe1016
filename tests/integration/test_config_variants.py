"""End-to-end runs under non-default configurations.

Each variant exercises a config path the unit tests cover only in
isolation: the Padhye election model, token caps, TFRC estimation
and time-based RTT — all driving a full session.
"""

import pytest

from repro.core.sender_cc import CcConfig
from repro.pgm import create_session
from repro.simulator import NON_LOSSY, dumbbell


class TestPadhyeModelSession:
    def test_session_runs_and_fills_link(self):
        net = dumbbell(1, 2, NON_LOSSY, seed=91)
        session = create_session(
            net, "h0", ["r0", "r1"], cc=CcConfig(model="padhye")
        )
        net.run(until=30.0)
        assert session.throughput_bps(10, 30) > 300_000
        assert session.sender.controller.election.model.name == "padhye"
        assert session.sender.current_acker in ("r0", "r1")

    def test_padhye_vs_simple_same_clean_link_behaviour(self):
        """With one receiver and congestion-only loss, both models
        must behave identically (single candidate, no election work)."""
        rates = {}
        for model in ("simple", "padhye"):
            net = dumbbell(1, 1, NON_LOSSY, seed=92)
            session = create_session(net, "h0", ["r0"], cc=CcConfig(model=model))
            net.run(until=30.0)
            rates[model] = session.throughput_bps(10, 30)
            session.close()
        assert rates["padhye"] == pytest.approx(rates["simple"], rel=0.1)


class TestTokenCap:
    def test_capped_tokens_limit_bursts(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=93)
        session = create_session(net, "h0", ["r0"], cc=CcConfig(max_tokens=2.0))
        net.run(until=30.0)
        # the session still works; tokens never exceed the cap
        assert session.throughput_bps(10, 30) > 200_000
        assert session.sender.controller.window.tokens <= 2.0


class TestTimeRttSession:
    def test_echo_timestamps_end_to_end(self):
        net = dumbbell(1, 2, NON_LOSSY, seed=94)
        session = create_session(
            net, "h0", ["r0", "r1"], cc=CcConfig(rtt_mode="time"),
            echo_timestamps=True,
        )
        net.run(until=30.0)
        assert session.throughput_bps(10, 30) > 300_000
        # the incumbent's RTT is now measured in seconds, not packets
        incumbent = session.sender.controller.election._incumbent
        assert incumbent is not None
        assert incumbent.rtt.value is not None
        assert incumbent.rtt.value < 5.0  # seconds, not tens of packets


class TestTfrcSession:
    def test_tfrc_session_competes_fairly(self):
        from repro.tcp import create_tcp_flow

        net = dumbbell(2, 2, NON_LOSSY, seed=96)
        session = create_session(net, "h0", ["r0"], estimator="tfrc")
        tcp = create_tcp_flow(net, "h1", "r1", start_at=10.0)
        net.run(until=60.0)
        pgm = session.throughput_bps(25, 60)
        t = tcp.throughput_bps(25, 60)
        assert max(pgm, t) / min(pgm, t) < 3.5
