"""Discrete-event simulation engine.

This is the substrate that plays the role of ns-2 in the paper's
simulations and of the dummynet testbed in its experiments: an event
loop with deterministic tie-breaking, plus a small restartable
:class:`Timer` helper used by the protocol agents.

There is one scheduler, :class:`Simulator`: a binary heap of events
dispatched in (time, insertion-order) total order (see DESIGN.md,
"Event engine"); ``tests/simulator/test_engine_properties.py`` checks
that order against an independent naive reference queue.

Event handles
-------------

For speed, a scheduled event is a plain ``[time, seq, fn, args]``
list — the heap entry *is* the handle.  Cancel through the
simulator (``sim.cancel(handle)``) or the module-level
:func:`cancel_event`; cancellation is lazy (the entry stays queued and
is discarded when reached).  :func:`describe_event` renders a handle
for debugging.

Shared entries
--------------

:meth:`Simulator.post_at` schedules like ``schedule_at`` but may share
a heap entry: a post for the same future time as the previous post,
with nothing scheduled in between, joins that post's entry instead of
pushing its own.  Separate entries would have had consecutive sequence
numbers at one instant, so nothing could run between them, and the
members dispatch in post order: the dispatch order is the one separate
events would give.  Each post still returns its own handle, a
``[time, seq, fn, args]`` *member*; ``cancel``, :func:`cancel_event`,
:func:`describe_event`, ``pending()``, ``events_processed`` and the
``max_events`` budget all count or name members, never entries.  The
first post's handle is the entry itself; once a second post joins it,
the entry holds the members (``fn`` is the private ``_SHARED`` marker)
and cancelling or describing it acts on its first member.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

__all__ = [
    "Event",
    "Simulator",
    "Timer",
    "cancel_event",
    "describe_event",
]

#: Event handles are plain lists (see module docstring).  The name is
#: kept so ``from repro.simulator import Event`` and
#: ``isinstance(handle, Event)`` continue to work.
Event = list

_INF = float("inf")

#: ``fn`` of a heap entry two or more posts share: ``[time, seq,
#: _SHARED, members]`` dispatches the live members in order.
_SHARED = object()

#: What ``Simulator._post`` holds while no post can be joined.
_NO_POST = (-_INF, -1, None, ())


def cancel_event(ev: list) -> None:
    """Cancel a scheduled event handle.  Safe to call repeatedly.

    Cancellation is lazy: the entry stays in the queue and is skipped
    when its turn comes.  Clearing ``args`` drops any references the
    event held (packets, agents) immediately.
    """
    if ev[2] is _SHARED:
        ev = ev[3][0]
    ev[2] = None
    ev[3] = ()


def describe_event(ev: list) -> str:
    """Debug string for an event handle.

    Cancelled events render without their (cleared) arguments, live
    ones with each argument's own ``__repr__``.
    """
    if ev[2] is _SHARED:
        ev = ev[3][0]
    t, fn = ev[0], ev[2]
    if fn is None:
        return f"<event t={t:.6f} cancelled>"
    name = (getattr(fn, "__qualname__", None)
            or getattr(fn, "__name__", None) or repr(fn))
    args = ev[3]
    body = f" args={args!r}" if args else ""
    return f"<event t={t:.6f} fn={name}{body}>"


class Simulator:
    """A discrete-event simulator with a monotonically advancing clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, hello)
        sim.run(until=10.0)

    The queue is a binary heap of ``[time, seq, fn, args]`` entries.
    ``seq`` counts scheduled entries, so entries compare on
    ``(time, seq)`` alone and same-time events dispatch in the order
    they were scheduled.  Posts (:meth:`post_at`) may share an entry.
    """

    __slots__ = ("now", "_heap", "_seq", "_running", "events_processed",
                 "_post")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[list] = []
        self._seq = 0
        self._running = False
        self.events_processed = 0
        #: the entry of the latest post, while another may join it
        self._post = _NO_POST

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> list:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        ev = [self.now + delay, self._seq, fn, args]
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> list:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule at {time:.6f}, clock already at {self.now:.6f}"
            )
        ev = [time, self._seq, fn, args]
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def post_at(self, time: float, fn: Callable, *args: Any) -> list:
        """Schedule ``fn(*args)`` at ``time`` like :meth:`schedule_at`,
        joining the previous post's heap entry when it is for the same
        future time and nothing has been scheduled since (module
        docstring).  Returns the member's own handle."""
        ev = self._post
        seq = self._seq
        if ev[0] == time and ev[1] == seq - 1 and time > self.now:
            member = [time, ev[1], fn, args]
            if ev[2] is _SHARED:
                ev[3].append(member)
            else:
                ev[3] = [[time, ev[1], ev[2], ev[3]], member]
                ev[2] = _SHARED
            return member
        # a new entry, as ``schedule_at`` makes it (written out: one
        # call less on every arrival that does not join)
        if not time >= self.now:
            raise ValueError(
                f"cannot schedule at {time:.6f}, clock already at {self.now:.6f}"
            )
        self._post = ev = [time, seq, fn, args]
        self._seq = seq + 1
        heapq.heappush(self._heap, ev)
        return ev

    def cancel(self, ev: list) -> None:
        """Cancel a handle returned by :meth:`schedule`, :meth:`schedule_at`
        or :meth:`post_at`."""
        if ev[2] is _SHARED:
            ev = ev[3][0]
        ev[2] = None
        ev[3] = ()

    # -- execution -----------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Process events in time order.

        Stops when the queue is exhausted, when the next event lies
        past ``until`` (the clock is then advanced to ``until``) or
        when ``max_events`` have been processed.  A run the budget
        stops while a live event at or before ``until`` is still queued
        leaves the clock at the last event it ran, so the next run
        never moves it backwards.  Every member of a shared entry is
        one event: the budget can stop inside an entry, and the next
        run resumes there.  Calling ``run()`` from inside a callback
        is an error: a nested loop could carry the clock past the
        outer ``until``.
        """
        if self._running:
            raise RuntimeError("run() is not re-entrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        limit = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        processed = 0
        try:
            while heap and processed < budget and heap[0][0] <= limit:
                ev = pop(heap)
                fn = ev[2]
                if fn is None:
                    continue
                if fn is _SHARED:
                    members = ev[3]
                    i, n = 0, len(members)
                    try:
                        while i < n and processed < budget:
                            member = members[i]
                            i += 1
                            fn = member[2]
                            if fn is not None:
                                self.now = ev[0]
                                fn(*member[3])
                                processed += 1
                    finally:
                        if i < n:
                            # stopped or raised inside: the members
                            # run so far are spent, the rest stays
                            # queued and still heads its instant
                            for member in members[:i]:
                                member[2] = None
                                member[3] = ()
                            heapq.heappush(heap, ev)
                    continue
                self.now = ev[0]
                fn(*ev[3])
                processed += 1
        finally:
            self._running = False
            self.events_processed += processed
            # an entry the loop discarded may still be the latest post
            self._post = _NO_POST
        if until is not None and self.now < until and not (
                processed >= budget and self._live_due(until)):
            self.now = until

    def _live_due(self, until: float) -> bool:
        """Is a not-yet-cancelled event at or before ``until`` queued?"""
        for ev in self._heap:
            if ev[0] <= until and ev[2] is not None and (
                    ev[2] is not _SHARED
                    or any(member[2] is not None for member in ev[3])):
                return True
        return False

    def pending(self) -> int:
        """Number of not-yet-cancelled events (members) in the queue."""
        count = 0
        for ev in self._heap:
            fn = ev[2]
            if fn is _SHARED:
                count += sum(1 for member in ev[3] if member[2] is not None)
            elif fn is not None:
                count += 1
        return count


class Timer:
    """A restartable one-shot timer bound to a simulator.

    Protocols use this for retransmission timeouts, NAK backoffs and
    stall detection.  ``restart`` supersedes any pending expiry.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        self._event: Optional[list] = None

    @property
    def armed(self) -> bool:
        ev = self._event
        return ev is not None and ev[2] is not None

    @property
    def expiry(self) -> Optional[float]:
        """Absolute time at which the timer will fire, or ``None``."""
        ev = self._event
        return ev[0] if ev is not None and ev[2] is not None else None

    def start(self, delay: float) -> None:
        """Arm the timer.  Raises if already armed."""
        if self.armed:
            raise RuntimeError("timer already armed; use restart()")
        self._event = self._sim.schedule(delay, self._fire)

    def restart(self, delay: float) -> None:
        """Arm the timer, cancelling any pending expiry first."""
        self.cancel()
        self._event = self._sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        ev = self._event
        if ev is not None:
            ev[2] = None
            ev[3] = ()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()
