"""Discrete-event simulation engine.

This is the substrate that plays the role of ns-2 in the paper's
simulations and of the dummynet testbed in its experiments: an event
loop with deterministic tie-breaking, plus a small restartable
:class:`Timer` helper used by the protocol agents.

There is one scheduler, :class:`Simulator`: a binary heap with a
cached front slot, so chains of schedule-one/fire-one events (the
protocol hot path) never touch the heap at all.  Events dispatch in
(time, insertion-order) total order (see DESIGN.md, "Event engine and
the packet pool"); ``tests/simulator/test_engine_properties.py``
checks that order against an independent naive reference queue.

Event handles
-------------

For speed, a scheduled event is a plain ``[time, seq, fn, args]``
list — the heap entry *is* the handle.  Cancel through the
simulator (``sim.cancel(handle)``) or the module-level
:func:`cancel_event`; cancellation is lazy (the entry stays queued and
is discarded when reached).  :func:`describe_event` renders a handle
for debugging without resurrecting released pooled packets: it leans
on ``Packet.__repr__``'s released-state guard rather than touching
payload fields itself.
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


def cancel_event(ev: list) -> None:
    """Cancel a scheduled event handle.  Safe to call repeatedly.

    Cancellation is lazy: the entry stays in the queue and is skipped
    when its turn comes.  Clearing ``args`` drops any references the
    event held (packets, agents) immediately.
    """
    ev[2] = None
    ev[3] = ()


def describe_event(ev: list) -> str:
    """Debug string for an event handle.

    Never reaches into stale state: cancelled events render without
    their (cleared) arguments, and live arguments are rendered via
    their own ``__repr__`` — released pooled packets guard theirs.
    """
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

    The queue is a binary heap of
    ``[time, seq, fn, args]`` entries with the earliest event cached
    in a front slot (``_next``) outside the heap.  The invariant is
    that the slot always holds the global minimum (or ``None`` exactly
    when nothing is pending), so the fire-one/schedule-one pattern the
    protocol agents produce runs entirely slot-to-slot with no heap
    traffic.

    Sequence numbers break ties by insertion order.  They are assigned
    lazily: an event that goes straight to the slot gets its number
    only if it is later displaced into the heap or tied by a same-time
    arrival — sound because a slot entry without a number implies the
    queue was empty when it was scheduled, so no earlier same-time
    entry can exist anywhere.
    """

    __slots__ = ("now", "_heap", "_next", "_seq", "_running", "_stopped",
                 "events_processed")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[list] = []
        self._next: Optional[list] = None
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_processed = 0

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any,
                 _push=heapq.heappush) -> list:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        t = self.now + delay
        ev = [t, None, fn, args]
        nxt = self._next
        if nxt is None:
            self._next = ev
        elif t < nxt[0]:
            if nxt[1] is None:
                nxt[1] = self._seq
                self._seq += 1
            _push(self._heap, nxt)
            self._next = ev
        else:
            if nxt[1] is None and t == nxt[0]:
                # Materialise the slot's tie-break number first so the
                # earlier arrival keeps the earlier number.
                nxt[1] = self._seq
                self._seq += 1
            ev[1] = self._seq
            self._seq += 1
            _push(self._heap, ev)
        return ev

    def schedule_at(self, time: float, fn: Callable, *args: Any,
                    _push=heapq.heappush) -> list:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time:.6f}, clock already at {self.now:.6f}"
            )
        ev = [time, None, fn, args]
        nxt = self._next
        if nxt is None:
            self._next = ev
        elif time < nxt[0]:
            if nxt[1] is None:
                nxt[1] = self._seq
                self._seq += 1
            _push(self._heap, nxt)
            self._next = ev
        else:
            if nxt[1] is None and time == nxt[0]:
                nxt[1] = self._seq
                self._seq += 1
            ev[1] = self._seq
            self._seq += 1
            _push(self._heap, ev)
        return ev

    def cancel(self, ev: list) -> None:
        """Cancel a handle returned by :meth:`schedule`/:meth:`schedule_at`."""
        ev[2] = None
        ev[3] = ()

    # -- execution -----------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Process events in time order.

        Stops when the queue is exhausted, when the next event lies
        past ``until`` (the clock is then advanced to ``until``), when
        ``max_events`` have been processed, or when :meth:`stop` is
        called from inside a callback.  Calling ``run()`` from inside a
        callback is an error: a nested loop would clear a pending
        :meth:`stop` and could carry the clock past the outer ``until``.
        """
        if self._running:
            raise RuntimeError("run() is not re-entrant")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            if until is None and max_events is None:
                # Specialised tight loop for the unbounded case (the
                # benchmark workload and run-to-exhaustion callers).
                while True:
                    ev = self._next
                    if ev is None:
                        break
                    self._next = pop(heap) if heap else None
                    fn = ev[2]
                    if fn is None:
                        continue
                    self.now = ev[0]
                    fn(*ev[3])
                    processed += 1
                    if self._stopped:
                        break
            else:
                limit = _INF if until is None else until
                budget = _INF if max_events is None else max_events
                while processed < budget:
                    ev = self._next
                    if ev is None:
                        break
                    t = ev[0]
                    if t > limit:
                        break
                    self._next = pop(heap) if heap else None
                    fn = ev[2]
                    if fn is None:
                        continue
                    self.now = t
                    fn(*ev[3])
                    processed += 1
                    if self._stopped:
                        break
                    # Same-tick drain: everything else scheduled at t
                    # fires without re-checking the time limit.
                    while processed < budget:
                        ev = self._next
                        if ev is None or ev[0] != t:
                            break
                        self._next = pop(heap) if heap else None
                        fn = ev[2]
                        if fn is None:
                            continue
                        fn(*ev[3])
                        processed += 1
                        if self._stopped:
                            break
                    if self._stopped:
                        break
        finally:
            self._running = False
            self.events_processed += processed
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def stop(self) -> None:
        """Stop the run loop after the current callback returns."""
        self._stopped = True

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        count = sum(1 for ev in self._heap if ev[2] is not None)
        nxt = self._next
        if nxt is not None and nxt[2] is not None:
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
