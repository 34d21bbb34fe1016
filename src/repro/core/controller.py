"""The congestion-controller contract and backend registry.

pgmcc's window/token machine is one possible discipline for pacing a
single-rate multicast source off its representative's feedback.  This
module extracts the *contract* between the sender engine
(:class:`~repro.core.sender_cc.SenderController`) and that discipline,
so alternative controllers — Jain's timeout-based window scheme, a
TFRC-equation rate controller, tunable AIMD variants — can drive the
identical session machinery and be compared head-to-head
(``EXP-ARENA``, see ``docs/CONTROLLERS.md`` for the full contract).

A *backend* is a small object consuming the sender's digested feedback
events and answering one question: *may a packet be sent now, and if
not, when?*  The surrounding engine keeps everything protocol-shaped —
the acker election, the ACK tracker, the stall timer, time-RTT — and
calls in here:

``on_send(seq, now)``
    one ODATA left the source (window backends consume a token).
``on_ack(now, in_flight)``
    one *newly acknowledged* packet (never duplicates), the clock tick.
``on_congestion(loss_seq, last_tx_seq, in_flight, now) -> bool``
    a dupack-declared loss; returns whether the backend reacted
    (backends that only react to timeouts return False).
``on_timeout(now)``
    the engine's stall/RTO timer fired with data outstanding.
``observe_report(report, srtt, now)``
    every accepted ACK's receiver report plus the current smoothed
    time-RTT (rate backends read loss/RTT state from here).
``kick(clear_ignore=False)``
    the engine restarts a dead feedback clock (initial election,
    acker eviction, drained window): make one send possible *now*.
``send_delay(now)``
    ``0.0`` = send now, a positive float = rate-paced (call again in
    that many seconds), ``None`` = blocked until feedback arrives.
``state_summary()``
    the JSON-serializable state the session summary embeds as
    ``controller_state``.

Every backend also exposes ``window`` — a
:class:`~repro.core.window.WindowController` or a view with the same
observable surface (``w``, ``tokens``, ``ignore_acks``,
``recovery_seq``, ``losses_reacted``, ``on_loss``) — which is what the
telemetry bindings sample and the
:class:`~repro.pgm.invariants.InvariantChecker` wraps.  Rate backends
synthesize ``w`` as the equivalent packets-in-flight (``rate · RTT``).

Backends register by name::

    @register_controller("mycc")
    class MyController: ...

    make_controller("mycc", CcConfig(), **params)

and sessions select one with ``cc=CcConfig(controller="mycc")``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol, runtime_checkable

from .window import WindowController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .reports import ReceiverReport
    from .sender_cc import CcConfig

#: the valid ``Controller.kind`` values
KINDS = ("window", "rate")


@runtime_checkable
class Controller(Protocol):
    """The pluggable congestion-controller contract (see module doc).

    Structural protocol: any object with this surface can be driven by
    :class:`~repro.core.sender_cc.SenderController`.  The conformance
    suite (``tests/core/test_controller_contract.py``) runs every
    registered backend through the behavioral half of the contract.
    """

    name: str
    kind: str  # "window" or "rate"
    window: Any  # WindowController-compatible observable view

    @property
    def can_send(self) -> bool:  # pragma: no cover - protocol
        ...

    def send_delay(self, now: float) -> Optional[float]:  # pragma: no cover
        ...

    def on_send(self, seq: int, now: float) -> None:  # pragma: no cover
        ...

    def on_ack(self, now: float, in_flight: Optional[int] = None) -> None:  # pragma: no cover
        ...

    def on_congestion(self, loss_seq: int, last_tx_seq: int,
                      in_flight: Optional[int], now: float) -> bool:  # pragma: no cover
        ...

    def on_timeout(self, now: float) -> None:  # pragma: no cover
        ...

    def observe_report(self, report: "ReceiverReport",
                       srtt: Optional[float], now: float) -> None:  # pragma: no cover
        ...

    def kick(self, clear_ignore: bool = False) -> None:  # pragma: no cover
        ...

    def state_summary(self) -> dict:  # pragma: no cover - protocol
        ...


class WindowBackend:
    """Shared implementation for window/token backends.

    Subclasses provide ``name``, the congestion-signal declaration and
    a :class:`WindowController` (or subclass); the event plumbing here
    is common.  ``send_delay`` is binary for a window backend: either a
    token is available now, or the ACK clock must reopen the window
    (``None`` — there is no time at which sending becomes legal without
    feedback).
    """

    name = "window-base"
    kind = "window"
    #: which signals this backend reduces its output on; the
    #: conformance suite checks each declared signal.
    congestion_signals: tuple[str, ...] = ("dupack", "timeout")

    def __init__(self, window: WindowController):
        self.window = window

    # -- contract ----------------------------------------------------------

    @property
    def can_send(self) -> bool:
        return self.window.can_send

    def send_delay(self, now: float) -> Optional[float]:
        return 0.0 if self.window.can_send else None

    def on_send(self, seq: int, now: float) -> None:
        self.window.on_transmit()

    def on_ack(self, now: float, in_flight: Optional[int] = None) -> None:
        self.window.on_ack()

    def on_congestion(self, loss_seq: int, last_tx_seq: int,
                      in_flight: Optional[int], now: float) -> bool:
        return self.window.on_loss(loss_seq, last_tx_seq, in_flight=in_flight)

    def on_timeout(self, now: float) -> None:
        self.window.on_restart()

    def observe_report(self, report: "ReceiverReport",
                       srtt: Optional[float], now: float) -> None:
        pass  # window backends are clocked purely by ACK arrivals

    def kick(self, clear_ignore: bool = False) -> None:
        self.window.tokens = max(self.window.tokens, 1.0)
        if clear_ignore:
            self.window.ignore_acks = 0

    def state_summary(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "w": self.window.w,
            "tokens": self.window.tokens,
            "ignore_acks": self.window.ignore_acks,
            "recovery_seq": self.window.recovery_seq,
            "acks_processed": self.window.acks_processed,
            "losses_reacted": self.window.losses_reacted,
            "losses_ignored": self.window.losses_ignored,
            "restarts": self.window.restarts,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.window!r}>"


class PgmccController(WindowBackend):
    """The paper's controller (§3.4), behind the generic contract.

    A thin adapter over :class:`WindowController` — the update rules
    (``W += 1/W``, ``T += 1 + 1/W``, realign-then-halve, ignore ``W/2``
    ACKs) live there, verbatim from the paper.
    """

    name = "pgmcc"
    congestion_signals = ("dupack", "timeout")

    def __init__(self, cc: "CcConfig"):
        super().__init__(WindowController(
            ssthresh=cc.ssthresh,
            max_tokens=cc.max_tokens,
            adaptive_ssthresh=cc.adaptive_ssthresh,
        ))


# -- registry -----------------------------------------------------------------

_REGISTRY: dict[str, Callable[..., Controller]] = {}


def register_controller(name: str):
    """Class decorator (or plain call with a factory) registering a
    controller backend under ``name``.

    The factory signature is ``factory(cc: CcConfig, **params)``.
    Re-registering a name raises — backends are process-global and a
    silent overwrite would poison digest stability.
    """

    def _register(factory: Callable[..., Controller]):
        if name in _REGISTRY:
            raise ValueError(f"controller {name!r} already registered")
        _REGISTRY[name] = factory
        return factory

    return _register


register_controller("pgmcc")(PgmccController)
# The alternative backends register on import; importing them here,
# after the registry exists, puts them in it before anyone can read it.
from . import controllers  # noqa: E402,F401


def controller_names() -> tuple[str, ...]:
    """Every registered backend name, sorted (registry order is not
    meaningful; sorted output keeps arena tables digest-stable)."""
    return tuple(sorted(_REGISTRY))


def make_controller(name: str, cc: "CcConfig", **params: Any) -> Controller:
    """Instantiate the backend registered under ``name``.

    ``cc`` supplies the shared pgmcc tunables (ssthresh and friends);
    ``params`` are backend-specific (e.g. ``beta`` for ``aimd``).
    Unknown names raise ``KeyError`` listing the registry.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown controller {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None
    return factory(cc, **params)
