"""Property-based differential test: the engine vs a naive reference.

Hypothesis drives :class:`Simulator` and the test-local
:class:`NaiveSimulator` (a flat list re-sorted on every pop, sharing no
code with ``engine.py``) through identical randomized workloads —
schedules from callbacks, zero delays, same-tick ties, far-future
events, back-to-back posts for one instant interleaved with schedules,
cancellation of single members of a shared entry, and chunked runs
whose event budget stops inside an entry — and requires the exact same
dispatch sequence, clock, processed count and pending count.  The
reference has no shared entries: a post is a plain schedule.  The
dispatch sequence is the total (time, insertion-order) order, so any
bug in the heap's tie-break numbering, its lazy cancellation, the
joining of posts or the resumption of a chunked run shows up as a
counterexample.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.simulator.engine import Simulator  # noqa: E402


class NaiveSimulator:
    """Reference queue: eager insertion numbers, full sort per pop."""

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._queue = []
        self._inserted = 0

    def schedule(self, delay, fn, *args):
        return self.post_at(self.now + delay, fn, *args)

    def post_at(self, time, fn, *args):
        entry = (time, self._inserted, fn, args)
        self._inserted += 1
        self._queue.append(entry)
        return entry

    def cancel(self, entry):
        if entry in self._queue:
            self._queue.remove(entry)

    def pending(self):
        return len(self._queue)

    def run(self, until=None, max_events=None):
        fired = 0
        while self._queue and (max_events is None or fired < max_events):
            self._queue.sort(key=lambda entry: entry[:2])
            if until is not None and self._queue[0][0] > until:
                break
            self.now, _, fn, args = self._queue.pop(0)
            fn(*args)
            fired += 1
        self.events_processed += fired
        if until is not None and self.now < until:
            self.now = until


DELAYS = st.one_of(
    st.just(0.0),
    st.just(0.5),
    st.floats(min_value=0.0, max_value=0.02),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=1e5, max_value=1e6),
)

#: One scripted action per scheduled event: which follow-ups to make
#: (empty: leaf event) — ``schedule`` one event or ``post`` ``copies``
#: back to back, ``delay`` from now — and which earlier handle to
#: cancel (None: no cancellation).  Delays include 0.0 (same-tick ties;
#: a post due now never joins) and huge values (far-future events
#: parked deep in the heap).  Successive ``post``s with equal delays
#: share an entry unless a ``schedule`` comes between them.
ACTIONS = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.sampled_from(["schedule", "post"]), DELAYS,
                      st.integers(min_value=1, max_value=4)),
            max_size=3,
        ),
        st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
    ),
    min_size=1,
    max_size=60,
)

RUN_PLANS = st.lists(
    st.tuples(
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=2e6)),
        st.one_of(st.none(), st.integers(min_value=1, max_value=5),
                  st.integers(min_value=1, max_value=300)),
    ),
    min_size=1,
    max_size=4,
)


def execute(sim, actions, run_plan):
    """Replay the scripted workload on ``sim``; return the full trace."""
    log = []
    handles = []
    cursor = [0]

    def fire(tag):
        log.append((sim.now, tag))
        follow_ups, cancel_idx = actions[cursor[0] % len(actions)]
        cursor[0] += 1
        for kind, delay, copies in follow_ups:
            if kind == "schedule":
                handles.append(sim.schedule(delay, fire, len(handles)))
                continue
            time = sim.now + delay
            for _ in range(copies):
                handles.append(sim.post_at(time, fire, len(handles)))
        if cancel_idx is not None and handles:
            sim.cancel(handles[cancel_idx % len(handles)])

    for i, _ in enumerate(actions):
        handles.append(sim.schedule(i * 0.37 % 5.0, fire, 1000 + i))
    for until, max_events in run_plan:
        # Budgeted/bounded chunks exercise resume with a same-tick
        # tail left undispatched behind the advanced clock.  Every
        # chunk gets an event budget: a feedback workload can schedule
        # forever inside any time horizon.
        budget = 400 if max_events is None else min(max_events, 400)
        sim.run(until=until, max_events=budget)
        # posts made between runs, as a test script or a driver would
        for _ in range(2):
            handles.append(sim.post_at(sim.now + 0.5, fire, len(handles)))
    return log, sim.now, sim.events_processed, sim.pending()


@settings(max_examples=200, deadline=None)
@given(actions=ACTIONS, run_plan=RUN_PLANS)
def test_heap_matches_reference_total_order(actions, run_plan):
    ref = execute(NaiveSimulator(), actions, run_plan)
    heap = execute(Simulator(), actions, run_plan)
    assert heap[0] == ref[0], "dispatch (time, order) sequence diverged"
    assert heap[1] == ref[1], "final clock diverged"
    assert heap[2] == ref[2], "events_processed diverged"
    assert heap[3] == ref[3], "pending count diverged"


@settings(max_examples=100, deadline=None)
@given(
    times=st.lists(st.floats(min_value=0.0, max_value=100.0),
                   min_size=1, max_size=80),
    cancel=st.sets(st.integers(min_value=0, max_value=79)),
)
def test_static_schedule_identical_order(times, cancel):
    """Pure insert/cancel/drain — no feedback from callbacks."""
    def run(sim):
        log = []
        handles = [sim.schedule(t, log.append, (t, i))
                   for i, t in enumerate(times)]
        for idx in cancel:
            if idx < len(handles):
                sim.cancel(handles[idx])
        sim.run()
        return log, sim.now, sim.events_processed

    assert run(Simulator()) == run(NaiveSimulator())


@settings(max_examples=50, deadline=None)
@given(times=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75]),
                      min_size=2, max_size=40))
def test_same_tick_ties_preserve_insertion_order(times):
    """Heavily tied timestamps must drain in insertion order per tick."""
    def run(sim):
        log = []
        for i, t in enumerate(times):
            sim.schedule(t, log.append, (t, i))
        sim.run()
        return log

    order = run(Simulator())
    assert order == run(NaiveSimulator())
    # Within each tick, the insertion index must be increasing.
    for tick in set(times):
        idxs = [i for t, i in order if t == tick]
        assert idxs == sorted(idxs)


def test_cancellation_is_lazy_and_excluded():
    """Cancelled events neither fire nor advance the clock, on both."""
    for make in (Simulator, NaiveSimulator):
        sim = make()
        log = []
        keep = sim.schedule(1.0, log.append, "keep")
        drop = sim.schedule(2.0, log.append, "drop")
        sim.cancel(drop)
        assert sim.pending() == 1
        sim.run()
        assert log == ["keep"]
        assert sim.now == 1.0, f"{make.__name__} advanced on a ghost"
        assert keep[2] is not None
