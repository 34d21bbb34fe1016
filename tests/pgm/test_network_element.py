"""Tests for PGM network elements (§3.1, §3.7)."""

from repro.core.reports import ReceiverReport
from repro.pgm import constants as C
from repro.pgm.network_element import PgmNetworkElement
from repro.pgm.packets import Nak, Ncf, OData, RData, Spm
from repro.simulator import Packet

from .conftest import Collector


def install_ne(net, router="R0", **kw):
    return PgmNetworkElement(net.router(router), **kw)


def odata(seq, tsi=1):
    return OData(tsi, seq, 0, 1400)


def nak(seq, rx="rx0", loss=0, fake=False, tsi=1):
    return Nak(tsi, seq, ReceiverReport(rx, max(seq, 0), loss), fake=fake)


def src_collector(net):
    collector = Collector()
    net.host("src").register_agent(C.PROTO, collector)
    return collector


def rx_collectors(net, names=("rx0", "rx1", "rx2")):
    out = {}
    for name in names:
        out[name] = Collector()
        net.host(name).register_agent(C.PROTO, out[name])
    return out


def learn_group(net, ne):
    """Let the NE learn the tsi->group mapping from one data packet."""
    net.host("src").send(Packet("src", "mc:t", 1500, odata(0), C.PROTO))
    net.run(until=0.1)


class TestNakSuppression:
    def test_first_nak_forwarded(self, fanout):
        ne = install_ne(fanout)
        collector = src_collector(fanout)
        rx_collectors(fanout)
        learn_group(fanout, ne)
        fanout.host("rx0").send(Packet("rx0", "src", 100, nak(5), C.PROTO))
        fanout.run(until=1.0)
        assert len(collector.payloads(Nak)) == 1
        assert ne.naks_forwarded == 1

    def test_duplicate_nak_suppressed_with_ncf(self, fanout):
        ne = install_ne(fanout)
        collector = src_collector(fanout)
        rxs = rx_collectors(fanout)
        learn_group(fanout, ne)
        fanout.host("rx0").send(Packet("rx0", "src", 100, nak(5), C.PROTO))
        fanout.run(until=0.05)
        fanout.host("rx1").send(Packet("rx1", "src", 100, nak(5, rx="rx1"), C.PROTO))
        fanout.run(until=1.0)
        assert len(collector.payloads(Nak)) == 1
        assert ne.naks_suppressed == 1
        # the suppressed branch got an NCF
        assert any(isinstance(m, Ncf) and m.seq == 5 for m in rxs["rx1"].payloads())

    def test_state_expires(self, fanout):
        ne = install_ne(fanout)
        collector = src_collector(fanout)
        rx_collectors(fanout)
        learn_group(fanout, ne)
        fanout.host("rx0").send(Packet("rx0", "src", 100, nak(5), C.PROTO))
        fanout.run(until=0.5 + C.NE_STATE_LIFETIME)  # past the lifetime
        fanout.host("rx1").send(Packet("rx1", "src", 100, nak(5, rx="rx1"), C.PROTO))
        fanout.run(until=1.0 + C.NE_STATE_LIFETIME)
        assert len(collector.payloads(Nak)) == 2

    def test_different_seqs_not_suppressed(self, fanout):
        ne = install_ne(fanout)
        collector = src_collector(fanout)
        rx_collectors(fanout)
        learn_group(fanout, ne)
        fanout.host("rx0").send(Packet("rx0", "src", 100, nak(5), C.PROTO))
        fanout.host("rx1").send(Packet("rx1", "src", 100, nak(6, rx="rx1"), C.PROTO))
        fanout.run(until=1.0)
        assert len(collector.payloads(Nak)) == 2


class TestRxLossAwareRule:
    def test_worse_report_forwarded(self, fanout):
        """§3.7: a NAK with higher rx_loss than the one already
        forwarded goes through anyway."""
        ne = install_ne(fanout, rx_loss_aware=True)
        collector = src_collector(fanout)
        rx_collectors(fanout)
        learn_group(fanout, ne)
        fanout.host("rx0").send(Packet("rx0", "src", 100, nak(5, loss=100), C.PROTO))
        fanout.run(until=0.05)
        fanout.host("rx1").send(
            Packet("rx1", "src", 100, nak(5, rx="rx1", loss=900), C.PROTO)
        )
        fanout.run(until=1.0)
        assert len(collector.payloads(Nak)) == 2
        assert ne.naks_forwarded_rx_loss == 1

    def test_equal_or_better_report_still_suppressed(self, fanout):
        ne = install_ne(fanout, rx_loss_aware=True)
        collector = src_collector(fanout)
        rx_collectors(fanout)
        learn_group(fanout, ne)
        fanout.host("rx0").send(Packet("rx0", "src", 100, nak(5, loss=500), C.PROTO))
        fanout.run(until=0.05)
        fanout.host("rx1").send(
            Packet("rx1", "src", 100, nak(5, rx="rx1", loss=400), C.PROTO)
        )
        fanout.run(until=1.0)
        assert len(collector.payloads(Nak)) == 1
        assert ne.naks_suppressed == 1

    def test_forwarded_threshold_ratchets(self, fanout):
        ne = install_ne(fanout, rx_loss_aware=True)
        collector = src_collector(fanout)
        rx_collectors(fanout)
        learn_group(fanout, ne)
        for loss, rx in ((100, "rx0"), (500, "rx1"), (400, "rx2")):
            fanout.host(rx).send(Packet(rx, "src", 100, nak(5, rx=rx, loss=loss), C.PROTO))
            fanout.run(until=fanout.sim.now + 0.05)
        # 100 forwarded (first), 500 forwarded (worse), 400 suppressed
        assert len(collector.payloads(Nak)) == 2


class TestSelectiveRepair:
    def test_rdata_only_to_naked_branches(self, fanout):
        ne = install_ne(fanout)
        src_collector(fanout)
        rxs = rx_collectors(fanout)
        learn_group(fanout, ne)
        fanout.host("rx1").send(Packet("rx1", "src", 100, nak(0, rx="rx1"), C.PROTO))
        fanout.run(until=0.2)
        fanout.host("src").send(Packet("src", "mc:t", 1500, RData(1, 0, 0, 1400), C.PROTO))
        fanout.run(until=1.0)
        assert any(isinstance(m, RData) for m in rxs["rx1"].payloads())
        assert not any(isinstance(m, RData) for m in rxs["rx0"].payloads())
        assert ne.rdata_selective == 1

    def test_rdata_without_state_floods(self, fanout):
        ne = install_ne(fanout)
        rxs = rx_collectors(fanout)
        learn_group(fanout, ne)
        fanout.host("src").send(Packet("src", "mc:t", 1500, RData(1, 7, 0, 1400), C.PROTO))
        fanout.run(until=1.0)
        assert all(
            any(isinstance(m, RData) for m in rxs[name].payloads())
            for name in rxs
        )
        assert ne.rdata_flooded == 1

    def test_straggler_nak_after_repair_suppressed(self, fanout):
        """PGM NAK elimination: the entry outlives the repair so late
        NAKs are still suppressed until it expires."""
        ne = install_ne(fanout)
        collector = src_collector(fanout)
        rx_collectors(fanout)
        learn_group(fanout, ne)
        fanout.host("rx0").send(Packet("rx0", "src", 100, nak(0), C.PROTO))
        fanout.run(until=0.1)
        fanout.host("src").send(Packet("src", "mc:t", 1500, RData(1, 0, 0, 1400), C.PROTO))
        fanout.run(until=0.2)
        fanout.host("rx2").send(Packet("rx2", "src", 100, nak(0, rx="rx2"), C.PROTO))
        fanout.run(until=1.0)
        assert len(collector.payloads(Nak)) == 1
        assert ne.naks_suppressed == 1


class TestFakeNaks:
    def test_fake_naks_deduplicated(self, fanout):
        ne = install_ne(fanout)
        collector = src_collector(fanout)
        rx_collectors(fanout)
        learn_group(fanout, ne)
        for rx in ("rx0", "rx1", "rx2"):
            fanout.host(rx).send(
                Packet(rx, "src", 100, nak(0, rx=rx, fake=True), C.PROTO)
            )
        fanout.run(until=1.0)
        assert len(collector.payloads(Nak)) == 1

    def test_fake_state_does_not_block_real_nak(self, fanout):
        """A fake NAK for a *received* packet must not suppress a real
        NAK for the same sequence from another receiver."""
        ne = install_ne(fanout)
        collector = src_collector(fanout)
        rx_collectors(fanout)
        learn_group(fanout, ne)
        fanout.host("rx0").send(Packet("rx0", "src", 100, nak(0, fake=True), C.PROTO))
        fanout.run(until=0.05)
        fanout.host("rx1").send(Packet("rx1", "src", 100, nak(0, rx="rx1"), C.PROTO))
        fanout.run(until=1.0)
        naks = collector.payloads(Nak)
        assert len(naks) == 2
        assert {n.fake for n in naks} == {True, False}


class TestSpmHandling:
    def test_spm_rewritten_and_upstream_learned(self, fanout):
        ne = install_ne(fanout)
        rxs = rx_collectors(fanout)
        fanout.host("src").send(Packet("src", "mc:t", 64, Spm(1, 0, 0, 0, path="src"), C.PROTO))
        fanout.run(until=1.0)
        assert ne.upstream[1] == "src"
        spms = [m for m in rxs["rx0"].payloads() if isinstance(m, Spm)]
        assert spms and spms[0].path == "R0"  # rewritten hop-by-hop

    def test_odata_passthrough_learns_group(self, fanout):
        ne = install_ne(fanout)
        rxs = rx_collectors(fanout)
        fanout.host("src").send(Packet("src", "mc:t", 1500, odata(0), C.PROTO))
        fanout.run(until=1.0)
        assert ne.group_of[1] == "mc:t"
        assert all(
            any(isinstance(m, OData) for m in rxs[n].payloads()) for n in rxs
        )
