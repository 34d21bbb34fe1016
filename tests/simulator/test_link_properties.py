"""Property-based differential test: ``Link`` vs the reference link.

Hypothesis generates arrival scripts — packet sizes, gaps, bursts that
overflow a 1-3 slot or byte-limited queue, arrivals at exactly the
instant the wire frees, ``down``/``up`` mid-burst, ``rate_bps`` and
``delay`` assigned while packets wait, a loss model set and cleared
mid-run, one link or two fed the same packets back to back (their
arrivals share heap entries) — and
``assert_matches_reference`` (see ``test_link.py``) requires
:class:`Link` to behave exactly like the two-events-per-packet
:class:`ReferenceLink`: the same (time, packet) delivery sequence, the
same accept/drop answers and queue counters, conservation at every
step, and exactly one event per delivered packet.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from .test_link import assert_matches_reference  # noqa: E402

SIZES = st.sampled_from([40, 100, 576, 1500])

#: 0.0 makes bursts, "tx" lands exactly on the end of the last
#: serialisation, the float ranges straddle one 100 B transmission time
#: at the slowest rate (0.1 s) from both sides.
GAPS = st.one_of(
    st.just(0.0),
    st.just("tx"),
    st.floats(min_value=0.0, max_value=0.05),
    st.floats(min_value=0.05, max_value=2.0),
)

SEND = st.tuples(GAPS, st.just("send"), SIZES)
#: three sends for every control op, so bursts actually build up
OPS = st.one_of(
    SEND, SEND, SEND,
    st.one_of(
        st.tuples(GAPS, st.sampled_from(["down", "up"]), st.none()),
        st.tuples(GAPS, st.just("rate"),
                  st.sampled_from([2000.0, 8000.0, 500_000.0, 2_000_000.0])),
        st.tuples(GAPS, st.just("delay"), st.sampled_from([0.0, 0.0005, 0.23])),
        st.tuples(GAPS, st.just("loss"),
                  st.one_of(st.none(),
                            st.frozensets(st.integers(1, 6), max_size=3))),
    ),
)

QUEUES = st.one_of(
    st.fixed_dictionaries({"queue_slots": st.integers(1, 3)}),
    st.fixed_dictionaries({"queue_bytes": st.sampled_from([100, 1500, 3000])}),
    st.fixed_dictionaries({"queue_slots": st.integers(1, 3),
                           "queue_bytes": st.sampled_from([600, 2000])}),
)


@settings(max_examples=300, deadline=None)
@given(
    script=st.lists(OPS, min_size=1, max_size=40),
    rate=st.sampled_from([8000.0, 500_000.0, 2_000_000.0]),
    delay=st.sampled_from([0.0, 0.0005, 0.23]),
    limits=QUEUES,
    fanout=st.sampled_from([1, 2]),
)
def test_link_matches_reference(script, rate, delay, limits, fanout):
    assert_matches_reference(script, rate=rate, delay=delay, fanout=fanout,
                             **limits)


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(SIZES, min_size=1, max_size=30),
    slack=st.lists(st.sampled_from([0.0, 1e-9, 0.01]), min_size=30, max_size=30),
    delay=st.sampled_from([0.0, 0.0005, 0.23]),
)
def test_one_event_per_packet_when_nothing_waits(sizes, slack, delay):
    """Arrivals paced at or beyond the wire's free instant never queue,
    so the link spends exactly one event per delivered packet."""
    script = [(0.0, "send", sizes[0])]
    for size, extra in zip(sizes[1:], slack):
        # "up" on an up link is a no-op: it only moves the clock to the
        # end of the previous serialisation, ``extra`` then adds slack
        script += [("tx", "up", None), (extra, "send", size)]
    got = assert_matches_reference(script, rate=500_000.0, delay=delay)
    assert got.enqueues == 0
    assert got.events == got.delivered == len(sizes)
