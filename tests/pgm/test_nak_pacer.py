"""§3.8 NAK-storm pacing: one pacer per receiver.

The reference is the per-gap polling receiver this pacer replaced —
every waiting gap kept its own timer and, after each NAK, woke up,
found it was early and re-armed at ``last + spacing + U(0, spacing)``.
It is re-created here as ``PollingReceiver`` and run on
``TestNakStormPacing``'s storm shape beside the real receiver: the two
must agree in distribution (not draw for draw) on what the storm
sends and how long it lasts.  The joiner asks for 100 packets of
history rather than 400, so the backlog drains — through the end of
the storm — about 9 s after the join.
"""

import random
import statistics

import pytest

from repro.pgm import constants as C
from repro.pgm import create_session
from repro.pgm.packets import Nak, Ncf, OData, RData, Spm
from repro.pgm.receiver import PgmReceiver
from repro.simulator import NON_LOSSY, Packet, dumbbell

from .conftest import Collector


class PollingReceiver(PgmReceiver):
    """The per-gap re-arm: each waiting gap polls the spacing window."""

    def _nak_timer_fired(self, seq):
        state = self._nak_states.get(seq)
        if state is None:
            return
        if state.state == "CONFIRMED":
            state.state = "BACKOFF"
            state.timer.restart(self._backoff_delay(seq))
            return
        if state.attempts >= self.nak_max_retries:
            self._abandon(seq, exhausted=True)
            return
        if len(self._nak_states) > self.storm_threshold:
            wait = self._last_nak_time + self.storm_spacing - self.sim.now
            if wait > 0:
                state.timer.restart(wait + self.rng.uniform(0, self.storm_spacing))
                return
        state.attempts += 1
        self._send_nak(seq)
        state.state = "AWAIT_NCF"
        state.timer.restart(self.nak_rpt_ivl)


# -- TestNakStormPacing's shape, run until the backlog drains -------------------

JOIN, THRESHOLD, SPACING = 15.0, 16, 0.05


def storm(cls, seed):
    """A joiner NAKs 100 packets of history into a paced storm.
    Returns the joiner and its NAKs as (t, seq, pending, whether seq
    was the lowest waiting one, how many were waiting)."""
    net = dumbbell(1, 2, NON_LOSSY, seed=35)
    session = create_session(net, "h0", ["r0"])
    naks = []
    joined = []

    def join():
        session.members.append("r1")
        net.set_group(session.group, "h0", session.members)
        rx = cls(net.host("r1"), session.group, session.tsi, "h0",
                 recover_history=True, history_limit=100,
                 storm_threshold=THRESHOLD, storm_spacing=SPACING,
                 rng=random.Random(seed))
        send = rx._send_nak

        def tap(seq, fake=False):
            # waiting: due now (the one being sent, PACED ones) or within
            # the spacing window — not NCF-confirmed, not a 2 s retry
            now = net.sim.now
            waiting = [s for s, st in rx._nak_states.items()
                       if st.state != "CONFIRMED"
                       and (st.timer.expiry or now) <= now + SPACING]
            naks.append((now, seq, len(rx._nak_states),
                         seq == min(waiting), len(waiting)))
            send(seq, fake)

        rx._send_nak = tap
        session.receivers.append(rx)
        joined.append(rx)

    net.sim.schedule_at(JOIN, join)
    net.run(until=JOIN + 1.0)
    while net.sim.now < 60.0 and joined[0]._nak_states:
        net.run(until=net.sim.now + 1.0)
    return joined[0], naks


def summary(cls, seed):
    rx, naks = storm(cls, seed)
    paced = [n for n in naks if n[2] > THRESHOLD]
    times = [t for t, *_ in paced]
    gaps = [b - a for a, b in zip(times, times[1:])]
    return {
        "naks": len(paced),
        "gap_q": statistics.quantiles(gaps, n=4),
        "abandoned": rx.repairs_abandoned,
        "unrecoverable": rx.unrecoverable_data_loss,
        "drain": naks[-1][0] - JOIN,
        "left": len(rx._nak_states),
        "lowest": sum(n[3] for n in paced),
        "lowest_expected": sum(1 / n[4] for n in paced),
    }


SEEDS = range(101, 121)


@pytest.fixture(scope="module")
def both():
    return ([summary(PollingReceiver, s) for s in SEEDS],
            [summary(PgmReceiver, s) for s in SEEDS])


def median(rows, key, index=None):
    values = [r[key] if index is None else r[key][index] for r in rows]
    return statistics.median(values)


class TestSameBehaviourInDistribution:
    """20 receiver seeds each; bands are stated per quantity."""

    def test_backlog_drains_without_loss(self, both):
        for rows in both:
            assert all(r["left"] == 0 for r in rows)
            assert all(r["abandoned"] == r["unrecoverable"] == 0 for r in rows)

    def test_naks_sent_in_the_storm_agree_within_2pct(self, both):
        ref, new = (median(rows, "naks") for rows in both)
        assert abs(new - ref) <= 0.02 * ref

    @pytest.mark.parametrize("quartile", [0, 1, 2])
    def test_inter_nak_gap_quartiles_agree_within_20pct_of_the_jitter(
            self, both, quartile):
        """Every gap is the spacing plus a jitter; the jitter part of
        each quartile agrees within 20 %."""
        ref, new = (median(rows, "gap_q", quartile) - SPACING for rows in both)
        assert ref > 0
        assert abs(new - ref) <= 0.2 * ref

    def test_backlog_drains_in_the_same_time_within_5pct(self, both):
        ref, new = (median(rows, "drain") for rows in both)
        assert abs(new - ref) <= 0.05 * ref

    def test_the_winner_is_uniform_among_the_waiting_gaps(self, both):
        """The lowest waiting seq wins about 1/k of the paced NAKs (a
        lowest-seq-first pacer would win all of them)."""
        for rows in both:
            hits = sum(r["lowest"] for r in rows)
            expected = sum(r["lowest_expected"] for r in rows)
            assert expected > 20
            assert abs(hits - expected) <= 4 * expected ** 0.5 + 3


# -- lifecycle of a pending storm -------------------------------------------------


def make_storm(net, gaps=10):
    """A receiver with ``gaps`` repairs pending past a threshold of 4:
    the first due NAK leaves, the rest wait on the pacer."""
    collector = Collector()
    net.host("src").register_agent(C.PROTO, collector)
    rx = PgmReceiver(net.host("rx"), "mc:t", tsi=1, source_addr="src",
                     nak_bo_ivl=0.01, storm_threshold=4, storm_spacing=0.05)
    send(net, OData(1, 0, 0, 1400))
    send(net, OData(1, gaps + 1, 0, 1400))
    net.run(until=0.04)
    assert len(rx._nak_states) == gaps
    assert len(rx._paced) == gaps - 1 and rx._pacer.armed
    return rx, collector


def send(net, msg, size=100):
    net.host("src").send(Packet("src", "mc:t", size, msg, C.PROTO))


def naks(collector):
    return [m.seq for m in collector.payloads(Nak)]


class TestPendingStorm:
    def test_paced_gaps_have_no_timer_of_their_own(self, wire):
        rx, _ = make_storm(wire)
        assert rx.naks_sent == 1
        for seq in rx._paced:
            state = rx._nak_states[seq]
            assert state.state == "PACED" and not state.timer.armed

    def test_an_ncf_confirms_a_paced_seq(self, wire):
        rx, _ = make_storm(wire)
        seq = next(iter(rx._paced))
        send(wire, Ncf(1, seq))
        wire.run(until=wire.sim.now + 0.021)
        state = rx._nak_states[seq]
        assert state.state == "CONFIRMED" and state.timer.armed
        assert seq not in rx._paced
        assert rx.naks_suppressed_by_ncf == 1

    def test_a_repaired_winner_is_skipped(self, wire):
        rx, collector = make_storm(wire)
        winner, tick = rx._pace_winner, rx._pacer.expiry
        send(wire, RData(1, winner, 0, 1400))
        wire.run(until=wire.sim.now + 0.021)
        assert winner not in rx._nak_states
        assert wire.sim.now < tick
        wire.run(until=tick + 0.021)
        sent = naks(collector)
        assert len(sent) == 2 and winner not in sent
        wire.run(until=5.0)
        assert winner not in naks(collector)

    def test_the_pacer_sends_one_nak_per_tick_at_least_spacing_apart(self, wire):
        rx, collector = make_storm(wire, gaps=20)
        times = []
        send_nak = rx._send_nak

        def tap(seq, fake=False):
            times.append(wire.sim.now)
            send_nak(seq, fake)

        rx._send_nak = tap
        wire.run(until=2.0)  # before the first retry; nothing is repaired
        assert len(times) == 19 and min(b - a for a, b in zip(times, times[1:])) >= 0.05
        assert sorted(naks(collector)) == list(range(1, 21))
        assert not rx._pacer.armed

    @pytest.mark.parametrize("end", ["resync", "spm-trail", "close"])
    def test_ending_the_storm_leaves_no_pacer_event(self, wire, end):
        rx, _ = make_storm(wire)
        assert wire.sim.pending() > 0
        if end == "resync":
            send(wire, Spm(1, 0, 20, 25, path="src"))
        elif end == "spm-trail":
            send(wire, Spm(1, 0, 11, 11, path="src"))
        else:
            rx.close()
        wire.run(until=wire.sim.now + 0.021)
        assert not rx._paced and not rx._pacer.armed
        assert wire.sim.pending() == 0
