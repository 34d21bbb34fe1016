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

    Cancelled events render without their (cleared) arguments, live
    ones with each argument's own ``__repr__``.
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

    The queue is a binary heap of ``[time, seq, fn, args]`` entries.
    ``seq`` counts scheduled events, so entries compare on
    ``(time, seq)`` alone and same-time events dispatch in the order
    they were scheduled.
    """

    __slots__ = ("now", "_heap", "_seq", "_running", "events_processed")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[list] = []
        self._seq = 0
        self._running = False
        self.events_processed = 0

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> list:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        ev = [self.now + delay, self._seq, fn, args]
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> list:
        """Schedule ``fn(*args)`` at an absolute simulation time."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time:.6f}, clock already at {self.now:.6f}"
            )
        ev = [time, self._seq, fn, args]
        self._seq += 1
        heapq.heappush(self._heap, ev)
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
        past ``until`` (the clock is then advanced to ``until``) or
        when ``max_events`` have been processed.  Calling ``run()``
        from inside a callback is an error: a nested loop could carry
        the clock past the outer ``until``.
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
                self.now = ev[0]
                fn(*ev[3])
                processed += 1
        finally:
            self._running = False
            self.events_processed += processed
        if until is not None and self.now < until:
            self.now = until

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue."""
        return sum(1 for ev in self._heap if ev[2] is not None)


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
