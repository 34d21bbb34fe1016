"""The columnar ``FlowTrace`` against the list-of-records log it
replaced: same answers, ordered times, and the per-event footprint."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.trace import FlowTrace, TraceRecord


class ListTrace:
    """Oracle: one ``TraceRecord`` per event in a plain list."""

    def __init__(self, rows=None):
        self.rows = rows if rows is not None else []

    def log(self, time, kind, seq, nbytes=0):
        self.rows.append(TraceRecord(time, kind, seq, nbytes))

    def of_kind(self, *kinds):
        return [r for r in self.rows if r.kind in set(kinds)]

    def count(self, kind):
        return sum(1 for r in self.rows if r.kind == kind)

    def times(self, kind):
        return [r.time for r in self.rows if r.kind == kind]

    def between(self, t0, t1):
        return ListTrace([r for r in self.rows if t0 <= r.time < t1])

    def time_seq(self, kind="data"):
        return [(r.time, r.seq) for r in self.rows if r.kind == kind]

    def bytes_sent(self, kind="data"):
        return sum(r.nbytes for r in self.rows if r.kind == kind)

    def throughput_bps(self, t0, t1, kind="data"):
        if t1 <= t0:
            return 0.0
        return self.between(t0, t1).bytes_sent(kind) * 8.0 / (t1 - t0)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


KINDS = ("data", "rdata", "ack", "nak", "window", "cc-loss",
         "acker-switch", "stall", "timeout", "rate-update")
kinds = st.one_of(
    st.sampled_from(KINDS),
    # a kind built at run time, like the sender's liveness transitions
    st.integers(min_value=0, max_value=3).map(lambda n: f"liveness-{n}"),
)
seqs = st.integers(min_value=-2**63, max_value=2**63 - 1)
nbytes = st.integers(min_value=0, max_value=65535)
steps = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0))


@st.composite
def logs(draw):
    """Log calls with non-decreasing times (ties included)."""
    t = draw(st.floats(min_value=-10.0, max_value=10.0))
    calls = []
    for step, kind, seq, n in draw(st.lists(st.tuples(steps, kinds, seqs, nbytes),
                                            max_size=60)):
        t += step
        calls.append((t, kind, seq, n))
    return calls


def filled(calls):
    columns, oracle = FlowTrace(), ListTrace()
    for call in calls:
        columns.log(*call)
        oracle.log(*call)
    return columns, oracle


class TestAgainstListTrace:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_reader_agrees(self, data):
        calls = data.draw(logs())
        columns, oracle = filled(calls)
        assert len(columns) == len(oracle)
        assert list(columns) == list(oracle)
        for kind in {c[1] for c in calls} | {"data", "absent"}:
            assert columns.count(kind) == oracle.count(kind)
            assert columns.times(kind) == oracle.times(kind)
            assert columns.time_seq(kind) == oracle.time_seq(kind)
            assert columns.bytes_sent(kind) == oracle.bytes_sent(kind)
        wanted = data.draw(st.lists(kinds, max_size=3))
        assert columns.of_kind(*wanted) == oracle.of_kind(*wanted)

        logged = [c[0] for c in calls] or [0.0]
        edges = st.one_of(st.sampled_from(logged),
                          st.floats(min_value=-20.0, max_value=400.0))
        for _ in range(4):
            t0, t1 = data.draw(edges), data.draw(edges)
            for a, b in ((t0, t1), (t0, t0)):
                sub, ref = columns.between(a, b), oracle.between(a, b)
                assert list(sub) == list(ref) and len(sub) == len(ref)
                assert sub.time_seq("data") == ref.time_seq("data")
                assert (columns.throughput_bps(a, b)
                        == oracle.throughput_bps(a, b))


class TestLogContract:
    def test_earlier_time_raises_and_leaves_the_trace_unchanged(self):
        trace, _ = filled([(1.0, "data", 0, 1400), (2.0, "ack", 0, 0)])
        before = list(trace)
        with pytest.raises(ValueError):
            trace.log(1.5, "data", 1, 1400)
        assert list(trace) == before and len(trace) == 2
        trace.log(2.0, "data", 1, 1400)  # a tie is not earlier
        assert len(trace) == 3

    def test_non_int_field_raises_and_leaves_the_trace_unchanged(self):
        trace, _ = filled([(1.0, "data", 0, 1400)])
        with pytest.raises(TypeError):
            trace.log(2.0, "data", 1.5, 1400)
        with pytest.raises(TypeError):
            trace.log(2.0, "data", 1, "1400")
        assert list(trace) == [TraceRecord(1.0, "data", 0, 1400)]

    def test_footprint_per_event(self):
        """100k logged events hold at most 48 B each (four columns,
        ≈32 B): no per-event object, and no float or int kept alive."""
        n = 100_000
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trace = FlowTrace()
            for i in range(n):
                trace.log(i * 0.001, "data", 1000 + i, 1400)
            per_event = (tracemalloc.get_traced_memory()[0] - base) / n
        finally:
            tracemalloc.stop()
        assert len(trace) == n
        assert per_event <= 48, f"{per_event:.1f} B per event"
