"""Session wiring helpers.

Gluing a PGM/pgmcc session onto a simulated :class:`Network` takes a
few coordinated steps (multicast tree, agents, staggered starts);
:func:`create_session` does them all, and :func:`add_receiver` supports
mid-session joins (Fig. 7's 90 late receivers).

Session options live in :class:`SessionConfig`; the preferred call is::

    cfg = SessionConfig(cc=CcConfig(...), stop_at=30.0)
    session = create_session(net, "src", ["r1", "r2"], config=cfg)

Passing the same options as loose keyword arguments
(``create_session(net, "src", rxs, stop_at=30.0)``) still works — the
kwargs are folded into the config via :func:`dataclasses.replace` and
override any ``config`` fields.  New code should construct a
:class:`SessionConfig`; the kwargs form is kept for compatibility.

Every session owns a telemetry registry (``session.metrics``,
:mod:`repro.telemetry`): pull-bindings over the protocol counters, a
sim-clock sampling probe and a view over the sender's log (its phase
spans, stall histogram and liveness gauges), exported as a
``pgmcc.session-metrics/v1`` document.  :meth:`PgmSession.summary`
renders one snapshot of it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..core.loss_filter import DEFAULT_W
from ..core.sender_cc import CcConfig
from ..simulator.routing import NoPath
from ..simulator.topology import Network
from ..simulator.trace import FlowTrace
from ..telemetry import MetricsRegistry
from . import constants as C
from .receiver import PgmReceiver
from .sender import DataSource, PgmSender
from .telemetry import LogView, bind_session_metrics, render_snapshot

if TYPE_CHECKING:  # pragma: no cover - loaded by the sessions that build them
    from .guard import FeedbackGuard
    from .invariants import InvariantChecker
    from .network_element import PgmNetworkElement


@dataclass
class SessionConfig:
    """Everything :func:`create_session` needs beyond the topology.

    Grouping the options makes sweeps composable::

        base = SessionConfig(cc=CcConfig(), stop_at=60.0)
        for w in (2, 8, 32):
            run(dataclasses.replace(base, filter_w=w))
    """

    #: transport session id (default: allocated by the network)
    tsi: Optional[int] = None
    #: multicast group address (default: derived from the tsi)
    group: Optional[str] = None
    #: pgmcc configuration: ``CcConfig(enabled=False)`` gives plain PGM,
    #: ``CcConfig(controller=..., liveness=...)`` picks the controller
    #: backend and the acker-liveness watchdog
    cc: Optional[CcConfig] = None
    #: application data source (default: infinite bulk)
    source: Optional[DataSource] = None
    #: §3.9 unreliable mode when False (reports, no repairs)
    reliable: bool = True
    #: PGM rate-limiter cap (required when cc is disabled)
    max_rate_bps: Optional[float] = None
    payload_size: int = C.DEFAULT_PAYLOAD
    #: sender start/stop times (absolute sim seconds)
    start_at: float = 0.0
    stop_at: Optional[float] = None
    #: include corrected timestamp echoes in reports (RTT ablation)
    echo_timestamps: bool = False
    #: application feedback hook, called at each transmission (§3.9)
    on_token: Optional[Callable[[float], None]] = None
    #: loss-filter window (paper default when None)
    filter_w: Optional[int] = None
    #: "filter" (paper) or "tfrc" loss measurement
    estimator: str = "filter"
    #: a :class:`~repro.simulator.faults.FaultPlan` to compile in
    faults: Optional[Any] = None
    #: attach a runtime :class:`InvariantChecker`
    check_invariants: bool = False
    #: raise on violation (False: collect only)
    strict_invariants: bool = True
    #: sender-side feedback guard (repro.pgm.guard)
    guard: bool = False
    #: hybrid-fidelity aggregate mode (repro.pgm.aggregate): requires a
    #: network built by ``dumbbell_subtrees(..., members="virtual")``
    aggregate: bool = False


@dataclass
class PgmSession:
    """Handles for one wired-up session."""

    network: Network
    sender: PgmSender
    receivers: list[PgmReceiver]
    group: str
    tsi: int
    #: every host (by name) currently subscribed
    members: list[str] = field(default_factory=list)
    #: fault injector compiled from ``SessionConfig.faults``
    fault_injector: Optional[object] = None
    #: runtime invariant checker from ``SessionConfig.check_invariants``
    invariants: Optional[InvariantChecker] = None
    #: the session's telemetry registry
    metrics: MetricsRegistry = field(
        default_factory=MetricsRegistry, repr=False
    )
    #: hybrid-fidelity manager (``SessionConfig.aggregate``), else None
    aggregate: Optional[object] = None
    #: the options the session was created with; late joiners and
    #: promoted aggregate members are built from it
    config: SessionConfig = field(default_factory=SessionConfig, repr=False)
    #: the sender's log as the latest ``metrics.snapshot()`` read it
    log: Optional[LogView] = field(default=None, repr=False, compare=False)
    #: rx_id -> receiver index backing :meth:`receiver`
    _rx_index: dict[str, PgmReceiver] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def trace(self) -> FlowTrace:
        return self.sender.trace

    @property
    def guard(self) -> Optional[FeedbackGuard]:
        return self.sender.guard

    @property
    def acker_switches(self) -> int:
        return self.sender.acker_switches

    def receiver(self, rx_id: str) -> PgmReceiver:
        """Look up a receiver by its report identity (O(1))."""
        # The index tracks self.receivers; code that appends to the
        # list directly (rather than via add_receiver) is still served
        # by rebuilding on the size mismatch.
        if len(self._rx_index) != len(self.receivers):
            self._rx_index = {rx.rx_id: rx for rx in self.receivers}
        try:
            return self._rx_index[rx_id]
        except KeyError:
            raise KeyError(rx_id) from None

    def _register_receiver(self, rx: PgmReceiver) -> PgmReceiver:
        self.receivers.append(rx)
        self._rx_index[rx.rx_id] = rx
        return rx

    def throughput_bps(self, t0: float, t1: float) -> float:
        """Sender goodput (original data payload bits/s) over [t0, t1)."""
        return self.trace.throughput_bps(t0, t1)

    def close(self) -> None:
        self.sender.close()
        if self.aggregate is not None:
            self.aggregate.close()
        for rx in self.receivers:
            rx.close()
        if self.invariants is not None:
            self.invariants.detach()
        self.metrics.close()

    def summary(self) -> dict:
        """One-call session statistics: a rendering of one
        ``self.metrics.snapshot()``.

        Each value the registry carries is read off that snapshot under
        its metric name (:data:`~repro.pgm.telemetry.SUMMARY_LEAVES`),
        so a summary agrees with a simultaneous ``metrics.export()`` by
        construction and the sender's log is walked once.  The rest —
        identities, the controller's and the guard's state, the
        watchdog's state and probe counters, TTR samples and the
        per-receiver rows — is read where it lives.  The key set is
        fixed (docs/API.md), watchdog and aggregate mode or not.
        """
        sender = self.sender
        controller = sender.controller
        doc = render_snapshot(self.metrics.snapshot())
        recovery = doc["recovery"]
        recovery.update(watchdog=sender.watchdog is not None, state=C.NORMAL,
                        probes_sent=0, repairs_blocked=0,
                        ttr_samples=self.log.ttr_samples)
        if sender.watchdog is not None:
            recovery.update(sender.watchdog.summary())
        doc["aggregate"].update(
            self.aggregate.summary() if self.aggregate is not None else
            {"enabled": False, "subtrees": 0, "sampled": 0,
             "modes": {"mirror": 0, "analytic": 0}})
        return {
            "tsi": self.tsi,
            "group": self.group,
            **doc,
            "ncfs_sent": sender.ncfs_sent,
            "nak_origins": dict(sender.nak_origins),
            "acker": sender.current_acker,
            "controller": controller.backend.name,
            "controller_state": controller.backend.state_summary(),
            "guard": self.guard.summary() if self.guard is not None else None,
            "receivers": {
                rx.rx_id: {
                    "odata_received": rx.odata_received,
                    "rdata_received": rx.rdata_received,
                    "loss_rate": rx.loss_rate,
                    "delivered": rx.delivered,
                    "acks_sent": rx.acks_sent,
                    "naks_sent": rx.naks_sent,
                    "malformed_dropped": rx.malformed_dropped,
                    "unrecoverable_data_loss": rx.unrecoverable_data_loss,
                    "resyncs": rx.resyncs,
                }
                for rx in self.receivers
            },
        }


def create_session(
    net: Network,
    sender_host: str,
    receiver_hosts: list[str],
    config: Optional[SessionConfig] = None,
    **kwargs: Any,
) -> PgmSession:
    """Create and schedule a full PGM/pgmcc session on ``net``.

    Options come in a :class:`SessionConfig`; individual keyword
    arguments (the pre-config calling convention) are still accepted
    and override the corresponding config fields.  An unknown keyword
    raises ``TypeError`` exactly as the old signature did.

    ``faults`` takes a :class:`~repro.simulator.faults.FaultPlan` and
    compiles it onto the network with this session resolving the
    :data:`~repro.simulator.faults.ACKER` sentinel and the receivers
    of its :mod:`~repro.pgm.misbehavior` episodes (``ValueError`` for
    an episode naming a host that is not one of this session's
    receivers); ``check_invariants=True`` attaches a
    runtime :class:`~repro.pgm.invariants.InvariantChecker`
    (``strict_invariants=False`` collects violations instead of
    raising).  ``guard`` enables the sender-side
    :class:`~repro.pgm.guard.FeedbackGuard` when ``True``; its
    loss-range rule is configured from ``filter_w``/``estimator``.  All
    handles live on the returned session, including the telemetry
    registry (``session.metrics``).

    A receiver with no unicast route back to ``sender_host`` (its NAKs
    and ACKs would all be dropped) raises ``routing.NoPath`` before
    anything is installed.
    """
    cfg = config if config is not None else SessionConfig()
    if kwargs:
        try:
            cfg = dataclasses.replace(cfg, **kwargs)
        except TypeError as exc:
            raise TypeError(f"create_session: {exc}") from None
    if not isinstance(cfg.guard, bool):
        raise TypeError(f"create_session: guard must be a bool, not {cfg.guard!r}")

    plan = None
    if cfg.aggregate:
        plan = getattr(net, "subtree_plan", None)
        if plan is None:
            raise ValueError(
                "SessionConfig.aggregate requires a network built by "
                "dumbbell_subtrees(..., members='virtual')"
            )
        if plan.members != "virtual":
            raise ValueError(
                "aggregate sessions need dumbbell_subtrees "
                "members='virtual' (got members='real')"
            )
        if not receiver_hosts:
            receiver_hosts = plan.session_hosts()
    for host_name in receiver_hosts:  # NAKs and ACKs go back by unicast
        net.require_route(host_name, sender_host)

    tsi = cfg.tsi if cfg.tsi is not None else net.next_tsi()
    group = cfg.group if cfg.group is not None else f"mc:pgm{tsi}"
    net.set_group(group, sender_host, receiver_hosts)

    guard_obj: Optional[FeedbackGuard] = None
    if cfg.guard:  # the loss-range rule matches the session's estimator
        from .guard import FeedbackGuard

        guard_obj = FeedbackGuard(
            net.sim,
            cfg.filter_w if cfg.filter_w is not None else DEFAULT_W,
            check_loss_range=(cfg.estimator == "filter"),
        )

    registry = MetricsRegistry()
    sender = PgmSender(
        net.host(sender_host),
        group,
        tsi,
        cc=cfg.cc,
        source=cfg.source,
        max_rate_bps=cfg.max_rate_bps,
        reliable=cfg.reliable,
        on_token=cfg.on_token,
        payload_size=cfg.payload_size,
        guard=guard_obj,
    )
    session = PgmSession(net, sender, [], group, tsi,
                         members=list(receiver_hosts), metrics=registry,
                         config=cfg)
    if cfg.aggregate:
        from .aggregate import AggregateManager

        session.aggregate = AggregateManager(
            net, session, plan, _receiver_kwargs(session))
        session.aggregate.setup()
    else:
        for host_name in receiver_hosts:
            session._register_receiver(_make_receiver(net, session, host_name))
    if cfg.check_invariants:
        from .invariants import InvariantChecker

        session.invariants = InvariantChecker(
            session, strict=cfg.strict_invariants
        ).attach()
    if cfg.faults is not None:
        from ..simulator.faults import ACKER, ReceiverEpisode

        def _receiver_lookup(name: str):
            for rx in session.receivers:
                if rx.rx_id == name or rx.host.name == name:
                    return rx
            return None

        for ep in cfg.faults.episodes:
            if (isinstance(ep, ReceiverEpisode) and ep.receiver != ACKER
                    and _receiver_lookup(ep.receiver) is None):
                raise ValueError(
                    f"{ep.receiver!r} is not a receiver of this session: {ep!r}")
        session.fault_injector = net.install_faults(
            cfg.faults,
            acker_lookup=lambda: sender.current_acker,
            receiver_lookup=_receiver_lookup,
        )
    bind_session_metrics(session)
    if session.aggregate is not None:
        session.aggregate.bind_metrics(registry)
    if cfg.start_at <= 0:
        # Schedule rather than call so construction order never matters.
        net.sim.schedule(0.0, sender.start)
    else:
        net.sim.schedule_at(cfg.start_at, sender.start)
    if cfg.stop_at is not None:
        net.sim.schedule_at(cfg.stop_at, sender.close)
    return session


def _receiver_kwargs(session: PgmSession) -> dict[str, Any]:
    """What every receiver of ``session`` is built with, whether it is
    there from the start, joins late or is promoted out of an
    aggregate tail."""
    cfg = session.config
    return {
        "group": session.group,
        "tsi": session.tsi,
        "source_addr": session.sender.host.name,
        "reliable": cfg.reliable,
        "filter_w": cfg.filter_w if cfg.filter_w is not None else DEFAULT_W,
        "echo_timestamps": cfg.echo_timestamps,
        "estimator": cfg.estimator,
        "telemetry": session.metrics,
    }


def _make_receiver(
    net: Network,
    session: PgmSession,
    host_name: str,
    recover_history: bool = False,
) -> PgmReceiver:
    return PgmReceiver(
        net.host(host_name),
        rng=net.rng.stream(f"rx:{session.tsi}:{host_name}"),
        recover_history=recover_history,
        **_receiver_kwargs(session),
    )


def add_receiver(
    net: Network,
    session: PgmSession,
    host_name: str,
    at: Optional[float] = None,
    recover_history: bool = False,
) -> None:
    """Join ``host_name`` to the session, now or at time ``at``.

    The joiner is built with the session's own options
    (``session.config``).  The multicast tree is re-installed for the
    expanded member set — the simulator analogue of the IGMP join +
    tree graft a real network performs.

    A name that is not a host of ``net`` (``KeyError``; ``TypeError``
    for a router), is already a member (``ValueError``), that the
    source cannot reach, or that has no unicast route back to the
    source — e.g. a host wired after the last ``build_routes()``
    (``routing.NoPath``) — is rejected here, at the call, whatever
    ``at`` says, and a join that fails leaves the member list, the tree
    and the host untouched.
    """
    source = session.sender.host.name

    def _check() -> None:
        net.host(host_name)  # KeyError: no such node; TypeError: a router
        if host_name in session.members:
            raise ValueError(
                f"{host_name} is already a member of {session.group}"
            )
        if host_name not in net.source_paths(source):
            raise NoPath(f"no path to {host_name} from {source}")
        net.require_route(host_name, source)

    def _join() -> None:
        _check()  # the member list may have changed since the call
        # the constructor registers the agent last, so a host that
        # cannot take one raises before anything below has happened
        rx = _make_receiver(net, session, host_name, recover_history)
        session.members.append(host_name)
        net.set_group(session.group, source, session.members)
        session._register_receiver(rx)

    _check()
    if at is None or at <= net.sim.now:
        _join()
    else:
        net.sim.schedule_at(at, _join)


def enable_network_elements(
    net: Network,
    router_names: Optional[list[str]] = None,
    rx_loss_aware: bool = False,
    telemetry: Optional[MetricsRegistry] = None,
) -> dict[str, PgmNetworkElement]:
    """Install PGM network elements on the given (default: all) routers.

    Pass a session's registry as ``telemetry`` to bind each element's
    counters under ``ne.<router>.*``.
    """
    from ..simulator.node import Router
    from .network_element import PgmNetworkElement

    if router_names is None:
        router_names = [
            name for name, node in net.nodes.items() if isinstance(node, Router)
        ]
    elements = {}
    for name in router_names:
        elements[name] = PgmNetworkElement(
            net.router(name), rx_loss_aware=rx_loss_aware
        )
    if telemetry is not None:
        for name, element in elements.items():
            for key in ("naks_seen", "naks_forwarded", "naks_suppressed",
                        "naks_aggregated", "rdata_selective",
                        "rdata_flooded", "ncfs_sent"):
                telemetry.bind(f"ne.{name}.{key}",
                               (lambda e=element, k=key: e.metrics()[k]))
    return elements
