"""``read_log`` against the ledgers it replaced.

The sender and its watchdog used to keep a second account of every
protocol edge beside the log: a span tracker, a stall-duration tally,
and the watchdog's transition list, degraded-time and time-to-recover
accumulators.  :class:`SpanTracker` and :class:`Ledgers` below are
those accounts, kept verbatim as the reference; a hypothesis-drawn run
of edges is replayed into them and, as the records the sender and
watchdog now write, into a log, and every snapshot must agree bit for
bit.
"""

from typing import Any, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pgm.liveness import DEGRADED, NORMAL, SUSPECT, LivenessWatchdog
from repro.pgm.telemetry import read_log
from repro.simulator.trace import FlowTrace
from repro.telemetry import Histogram


class SpanTracker:
    """Named interval timing on an external (simulated) clock.

    ``begin``/``end`` take the current time explicitly so the tracker
    works with any clock source and stays trivially deterministic.
    ``begin`` on an open span restarts it; ``end`` without a matching
    ``begin`` is a no-op — protocol phase edges (slow start ending,
    recovery re-entered) are naturally idempotent that way.
    """

    __slots__ = ("_open", "_stats")

    def __init__(self) -> None:
        self._open: dict[str, float] = {}
        #: name -> [count, total, max]
        self._stats: dict[str, list[float]] = {}

    def begin(self, name: str, now: float) -> None:
        self._open[name] = now

    def end(self, name: str, now: float) -> None:
        started = self._open.pop(name, None)
        if started is None:
            return
        elapsed = now - started
        stats = self._stats.get(name)
        if stats is None:
            self._stats[name] = [1, elapsed, elapsed]
        else:
            stats[0] += 1
            stats[1] += elapsed
            if elapsed > stats[2]:
                stats[2] = elapsed

    def close_all(self, now: float) -> None:
        """End every open span (session teardown)."""
        for name in list(self._open):
            self.end(name, now)

    @property
    def open(self) -> list[str]:
        return sorted(self._open)

    def stats(self, name: str) -> Optional[dict[str, float]]:
        stats = self._stats.get(name)
        if stats is None:
            return None
        count, total, peak = stats
        return {"count": int(count), "total_s": total,
                "mean_s": total / count, "max_s": peak}

    def snapshot(self) -> dict[str, Any]:
        return {
            "stats": {name: self.stats(name) for name in sorted(self._stats)},
            "open": self.open,
        }


class Ledgers:
    """What the sender and the watchdog did at each edge beside
    logging it: the spans, the stall tally, the watchdog's audit."""

    def __init__(self) -> None:
        self.spans = SpanTracker()
        self.stall_hist = Histogram("stall.duration_s")
        self.stall_began: Optional[float] = None
        self.state = NORMAL
        self.suspect_since: Optional[float] = None
        self.degraded_since: Optional[float] = None
        self.degraded_accum = 0.0
        self.ttr_samples: list[float] = []
        self.transitions: list[tuple[float, str, str, str]] = []

    # the sender
    def start(self, now):
        self.spans.begin("slow_start", now)

    def ack(self, now, newly_acked, reacted):
        if reacted:
            self.spans.end("slow_start", now)
            self.spans.begin("loss_recovery", now)
        elif newly_acked:
            self.spans.end("loss_recovery", now)
            self.spans.end("stall", now)
            if self.stall_began is not None:
                self.stall_hist.observe(now - self.stall_began)
                self.stall_began = None

    def stall(self, now):
        self.spans.begin("stall", now)
        if self.stall_began is None:
            self.stall_began = now

    def acker_switch(self, now):
        self.spans.end("acker_reign", now)
        self.spans.begin("acker_reign", now)

    def close(self, now):
        self._accumulate(now)  # the watchdog's close()
        self.spans.close_all(now)

    # the watchdog
    def _transition(self, now, new, reason):
        old, self.state = self.state, new
        self.transitions.append((now, old, new, reason))

    def _accumulate(self, now):
        if self.degraded_since is not None:
            self.degraded_accum += now - self.degraded_since
            self.degraded_since = None

    def _leave_degraded(self, now):
        self._accumulate(now)
        self.spans.end("degraded", now)

    def ack_timeout(self, now):  # normal -> suspect
        self.suspect_since = now
        self._transition(now, SUSPECT, "ack-timeout")

    def demotions_exhausted(self, now):  # suspect -> degraded
        self._transition(now, DEGRADED, "demotions-exhausted")
        self.degraded_since = now
        self.spans.begin("degraded", now)

    def nak(self, now):  # degraded -> suspect
        self._leave_degraded(now)
        self._transition(now, SUSPECT, "nak")

    def recovered(self, now):  # suspect / degraded -> normal
        if self.suspect_since is not None:
            self.ttr_samples.append(now - self.suspect_since)
        if self.state == DEGRADED:
            self._leave_degraded(now)
        self._transition(now, NORMAL, "ack")
        self.suspect_since = None

    def degraded_time_s(self, now):
        total = self.degraded_accum
        if self.degraded_since is not None:
            total += now - self.degraded_since
        return total


#: edge -> (watchdog states it may fire in, or None for any; the
#: records the sender and watchdog write for it)
EDGES = {
    "start": (None, [("start", 0)]),
    "clean-ack": (None, [("ack", 1)]),
    "unclean-ack": (None, [("ack", 0)]),
    "cc-loss": (None, [("ack", 0), ("window", 250), ("cc-loss", 0)]),
    "stall": (None, [("stall", 0)]),
    "acker-switch": (None, [("nak", 0), ("acker-switch", 0)]),
    "data": (None, [("data", 1400), ("rdata", 1400), ("acker-evict", 0)]),
    "ack-timeout": ((NORMAL,), [("liveness-suspect", 0)]),
    "demotions-exhausted": ((SUSPECT,), [("liveness-degraded", 0)]),
    "nak": ((DEGRADED,), [("liveness-suspect", 0)]),
    "recovered": ((SUSPECT, DEGRADED), [("liveness-normal", 0)]),
    "close": (None, [("close", 0)]),
}


def apply(ledgers: Ledgers, edge: str, now: float) -> None:
    if edge == "start":
        ledgers.start(now)
    elif edge == "clean-ack":
        ledgers.ack(now, [1], False)
    elif edge == "unclean-ack":
        ledgers.ack(now, [], False)
    elif edge == "cc-loss":
        ledgers.ack(now, [1], True)
    elif edge == "stall":
        ledgers.stall(now)
    elif edge == "acker-switch":
        ledgers.acker_switch(now)
    elif edge == "close":
        ledgers.close(now)
    elif edge != "data":
        getattr(ledgers, edge.replace("-", "_"))(now)


steps = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0))


@st.composite
def runs(draw):
    """(time, edge) pairs with non-decreasing times, ties included,
    that the watchdog's state machine allows, maybe closed at the end;
    then the time of the last snapshot."""
    t = draw(st.floats(min_value=0.0, max_value=100.0))
    edges = st.sampled_from(sorted(set(EDGES) - {"close"}))
    size = draw(st.integers(min_value=0, max_value=40))
    drawn = draw(st.lists(st.tuples(steps, edges), min_size=size,
                          max_size=size))
    if draw(st.booleans()):
        drawn.append((draw(steps), "close"))
    state, run = NORMAL, []
    for step, edge in drawn:
        allowed, records = EDGES[edge]
        if allowed is not None and state not in allowed:
            continue
        t += step
        run.append((t, edge))
        for kind, _ in records:
            if kind.startswith("liveness-"):
                state = kind[len("liveness-"):]
    return run, t + draw(steps)


def reference(ledgers: Ledgers, now: float) -> dict:
    spans = ledgers.spans.snapshot()
    return {
        "phases": spans["stats"],
        "open": spans["open"],
        "stall": ledgers.stall_hist.snapshot(),
        "degraded_time_s": ledgers.degraded_time_s(now),
        "ttr_samples": ledgers.ttr_samples,
        "transitions": ledgers.transitions,
    }


def view(trace: FlowTrace, now: float) -> dict:
    log = read_log(trace, now)
    return {
        "phases": log.phases,
        "open": log.open,
        "stall": log.stall.snapshot(),
        "degraded_time_s": log.degraded_time_s,
        "ttr_samples": log.ttr_samples,
        "transitions": log.transitions,
    }


class TestAgainstTheLedgers:
    @settings(max_examples=60, deadline=None)
    @given(runs())
    def test_every_snapshot_is_bit_equal(self, drawn):
        run, end = drawn
        ledgers, trace = Ledgers(), FlowTrace()
        for i, (t, edge) in enumerate(run):
            apply(ledgers, edge, t)
            for kind, nbytes in EDGES[edge][1]:
                trace.log(t, kind, i, nbytes)
            # a snapshot between this edge and the next (mid-run), and
            # one at the end (after close when the run closed)
            now = run[i + 1][0] if i + 1 < len(run) else end
            assert view(trace, now) == reference(ledgers, now), run[:i + 1]

    def test_stall_streak_is_timed_from_its_first_stall(self):
        ledgers, trace = Ledgers(), FlowTrace()
        for t, edge in ((1.0, "stall"), (3.0, "stall"), (7.0, "clean-ack"),
                        (8.0, "stall"), (8.5, "clean-ack")):
            apply(ledgers, edge, t)
            for kind, nbytes in EDGES[edge][1]:
                trace.log(t, kind, 0, nbytes)
        assert view(trace, 9.0) == reference(ledgers, 9.0)
        assert read_log(trace, 9.0).stall.snapshot()["total"] == 6.0 + 0.5

    def test_close_ends_a_live_degraded_span(self):
        ledgers, trace = Ledgers(), FlowTrace()
        for t, edge in ((1.0, "ack-timeout"), (2.0, "demotions-exhausted"),
                        (5.0, "close")):
            apply(ledgers, edge, t)
            for kind, nbytes in EDGES[edge][1]:
                trace.log(t, kind, 0, nbytes)
        log = read_log(trace, 50.0)
        assert view(trace, 50.0) == reference(ledgers, 50.0)
        assert log.degraded_time_s == 3.0
        assert log.open == []


class TestStandaloneWatchdog:
    def test_writes_its_transitions_into_a_private_log(self):
        class _Sim:
            now = 4.0

            def schedule(self, delay, fn, *args):
                return [self.now + delay, 0, fn, args]

        class _Ctl:
            closed = False
            rto = None
            last_tx_seq = 41

        watchdog = LivenessWatchdog(_Sim(), _Ctl())
        watchdog._transition(SUSPECT)
        assert [(r.time, r.kind, r.seq) for r in watchdog.trace] == [
            (4.0, "liveness-suspect", 42)]
        assert read_log(watchdog.trace, 4.0).transitions == [
            (4.0, NORMAL, SUSPECT, "ack-timeout")]
