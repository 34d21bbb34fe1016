"""Integration tests: whole-protocol behaviour over the simulator.

These are scaled-down versions of the paper's claims, kept fast enough
for CI while still exercising every component together.
"""

import pytest

from repro.analysis import jain_index, throughput_ratio
from repro.core.sender_cc import CcConfig
from repro.pgm import add_receiver, create_session, enable_network_elements
from repro.simulator import LOSSY, NON_LOSSY, LinkSpec, Network, dumbbell, star
from repro.tcp import create_tcp_flow


class TestSingleSession:
    def test_fills_clean_bottleneck(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=1)
        session = create_session(net, "h0", ["r0"])
        net.run(until=30.0)
        rate = session.throughput_bps(10, 30)
        assert rate > 0.85 * 500_000 * (1400 / 1500)  # goodput share
        assert session.sender.controller.stalls == 0

    def test_loss_determined_rate_on_lossy_link(self):
        net = dumbbell(1, 1, LOSSY, seed=2)
        session = create_session(net, "h0", ["r0"])
        net.run(until=60.0)
        rate = session.throughput_bps(20, 60)
        # must be alive but far below the 2 Mbit/s capacity
        assert 50_000 < rate < 1_000_000
        # and essentially no congestion drops at the bottleneck
        assert net.link("R0", "R1").queue_drops < 5

    def test_rate_limiter_caps_session(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=3)
        session = create_session(net, "h0", ["r0"], max_rate_bps=200_000)
        net.run(until=30.0)
        assert session.throughput_bps(10, 30) < 210_000

    def test_receiver_loss_filter_tracks_link_loss(self):
        spec = LinkSpec(rate_bps=2_000_000, delay=0.1, queue_bytes=30_000,
                        loss_rate=0.05)
        net = star(1, spec, seed=4)
        session = create_session(net, "src", ["r0"])
        net.run(until=60.0)
        assert session.receivers[0].loss_rate == pytest.approx(0.05, abs=0.03)


class TestTcpFriendliness:
    @pytest.mark.parametrize("spec,label", [(NON_LOSSY, "nonlossy"), (LOSSY, "lossy")])
    def test_no_starvation_either_way(self, spec, label):
        net = dumbbell(2, 2, spec, seed=5)
        session = create_session(net, "h0", ["r0"])
        tcp = create_tcp_flow(net, "h1", "r1", start_at=10.0)
        net.run(until=90.0)
        pgm = session.throughput_bps(30, 90)
        t = tcp.throughput_bps(30, 90)
        assert throughput_ratio(pgm, t) < 3.5

    def test_pgm_yields_and_recovers(self):
        net = dumbbell(2, 2, NON_LOSSY, seed=6)
        session = create_session(net, "h0", ["r0"])
        tcp = create_tcp_flow(net, "h1", "r1", start_at=30.0, stop_at=70.0)
        net.run(until=100.0)
        alone_before = session.throughput_bps(10, 30)
        shared = session.throughput_bps(40, 70)
        after = session.throughput_bps(80, 100)
        assert shared < 0.75 * alone_before
        assert after > 0.8 * alone_before


class TestAckerDynamics:
    def test_acker_moves_to_slower_path(self):
        """Receiver behind a slower bottleneck takes over as acker."""
        net = Network(seed=7)
        net.add_host("src")
        net.add_router("R0")
        for name, rate in (("fast", 2_000_000), ("slow", 300_000)):
            net.add_host(name)
            net.duplex_link("R0", name, LinkSpec(rate, 0.05, queue_slots=30))
        net.duplex_link("src", "R0", LinkSpec(100_000_000, 0.0005, queue_slots=1000))
        net.build_routes()
        session = create_session(net, "src", ["fast"])
        add_receiver(net, session, "slow", at=10.0)
        net.run(until=40.0)
        assert session.sender.current_acker == "slow"
        rate = session.throughput_bps(25, 40)
        assert rate < 400_000  # adapted to the slow receiver

    def test_equivalent_receivers_with_bias_do_not_flap(self):
        """c = 0.75 removes switches among co-located receivers."""
        net = dumbbell(1, 3, NON_LOSSY, seed=8)
        session = create_session(
            net, "h0", ["r0", "r1", "r2"], cc=CcConfig(c=0.75)
        )
        net.run(until=60.0)
        assert session.acker_switches <= 3  # initial election + noise

    def test_switch_is_not_congestion_signal(self):
        """Acker switches alone must not reduce throughput (§4.2)."""
        net = dumbbell(1, 3, NON_LOSSY, seed=9)
        one = create_session(net, "h0", ["r0"])
        net.run(until=30.0)
        solo_rate = one.throughput_bps(10, 30)
        one.close()

        net2 = dumbbell(1, 3, NON_LOSSY, seed=9)
        many = create_session(net2, "h0", ["r0", "r1", "r2"], cc=CcConfig(c=1.0))
        net2.run(until=30.0)
        multi_rate = many.throughput_bps(10, 30)
        assert multi_rate > 0.85 * solo_rate


class TestRobustness:
    def test_survives_reverse_path_ack_loss(self):
        """The ACK bitmap recovers lost ACKs (§3.3): heavy reverse
        loss must degrade, not kill, the session."""
        net = Network(seed=10)
        net.add_host("src")
        net.add_router("R0")
        net.add_host("rx")
        net.duplex_link("src", "R0", LinkSpec(100_000_000, 0.0005, queue_slots=1000))
        forward = LinkSpec(500_000, 0.05, queue_slots=30)
        reverse = LinkSpec(500_000, 0.05, queue_slots=30, loss_rate=0.10)
        net.duplex_link("R0", "rx", forward, reverse_spec=reverse)
        net.build_routes()
        session = create_session(net, "src", ["rx"])
        net.run(until=60.0)
        assert session.throughput_bps(20, 60) > 100_000

    def test_acker_death_recovers_via_stall(self):
        """If the acker vanishes, the stall machinery re-elects."""
        net = dumbbell(1, 2, NON_LOSSY, seed=11)
        session = create_session(net, "h0", ["r0", "r1"])
        net.run(until=15.0)
        first_acker = session.sender.current_acker
        # silence the current acker entirely
        dead = session.receiver(first_acker)
        dead.host.unregister_agent("pgm")
        dead.close()
        net.run(until=60.0)
        assert session.sender.current_acker is not None
        assert session.sender.current_acker != first_acker
        # data still flows at the end
        assert session.throughput_bps(50, 60) > 100_000

    def test_reliable_delivery_under_loss(self):
        """Every original packet is eventually delivered in order."""
        spec = LinkSpec(rate_bps=1_000_000, delay=0.02, queue_slots=30,
                        loss_rate=0.05)
        net = star(1, spec, seed=12)
        got = []
        session = create_session(net, "src", ["r0"])
        session.receivers[0].deliver = lambda s, n, p: got.append(s)
        net.run(until=30.0)
        assert len(got) > 500
        assert got == sorted(got)
        assert got[: len(got)] == list(range(got[0], got[0] + len(got)))


class TestIncrementalDeployment:
    def test_works_identically_with_and_without_nes(self):
        """§3: pgmcc operates end to end; router support is an
        optimisation, not a dependency."""
        rates = {}
        for with_ne in (False, True):
            net = dumbbell(1, 3, NON_LOSSY, seed=13)
            if with_ne:
                enable_network_elements(net)
            session = create_session(net, "h0", ["r0", "r1", "r2"])
            net.run(until=40.0)
            rates[with_ne] = session.throughput_bps(10, 40)
            session.close()
        assert rates[True] == pytest.approx(rates[False], rel=0.15)

    def test_intra_fairness_scaled(self):
        net = dumbbell(2, 3, NON_LOSSY, seed=14)
        s1 = create_session(net, "h0", ["r0", "r1"])
        s2 = create_session(net, "h1", ["r2"], start_at=20.0)
        net.run(until=80.0)
        r1 = s1.throughput_bps(40, 80)
        r2 = s2.throughput_bps(40, 80)
        assert jain_index([r1, r2]) > 0.9
