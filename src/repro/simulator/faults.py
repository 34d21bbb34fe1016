"""Deterministic, seed-reproducible fault injection.

The paper's robustness claims — reordering tolerance through the ACK
bitmap (§3.3), acker loss handled as a *move* rather than a congestion
signal (§3.5–§3.6), stall recovery at ``W = T = 1`` (§3.2) — are all
statements about behaviour *under faults*.  This module provides the
scriptable chaos layer that exercises them: a :class:`FaultPlan` is a
declarative schedule of timed fault episodes, and a
:class:`FaultInjector` compiles it onto the existing
:class:`~repro.simulator.engine.Simulator` event heap, driving the
hook points built into :class:`~repro.simulator.link.Link` and
:class:`~repro.simulator.node.Node`.

Episode catalogue::

    LinkDown(a, b, at, duration)        ingress blackout (link_down/link_up)
    LinkImpairment(a, b, at, duration,  transient bandwidth / delay /
                   rate_bps, delay,     random-loss change
                   loss_rate)
    BurstLoss(a, b, at, duration)       loss_rate=1.0 burst episode
    Duplication(a, b, at, duration)     per-packet duplication stage
    Corruption(a, b, at, duration)      per-packet corruption stage
    Partition(side_a, side_b, at,       bisect the topology: every link
              duration)                 crossing the cut goes down both
                                        ways, then heals together
    ControlBlackhole(a, b, at,          asymmetric control-plane loss:
                     duration, kinds)   drop ACK/NAK/NCF/SPM on the link
                                        while data still flows
    NodePause(node, at, duration)       freeze a node's data plane
    NodeCrash(node, at)                 permanent kill (node may be ACKER)
    ReceiverEpisode(receiver, at,       base of the protocol-defined
                    duration)           receiver behaviours

Determinism: every random decision (duplication, corruption, episode
loss models, receiver-episode decisions) draws from named
:class:`~repro.simulator.rng.RngRegistry` streams keyed by link or
receiver name, so the same ``(seed, plan)`` pair yields byte-identical
traces run after run — the property the chaos test suite is built on.

Overlap semantics: overlapping episodes touching the same knob stack;
the most recently started active episode wins, and when it ends the
next one down (or the base value) is restored.  ``LinkDown`` episodes
are reference-counted, so nested outages compose.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, ClassVar, Optional

from .link import Link
from .loss_models import BernoulliLoss

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .topology import Network

#: Sentinel node name: resolved at fire time to the session's current
#: acker (requires an ``acker_lookup`` on the injector).
ACKER = "@acker"


def _check_at(at: float) -> None:
    if not 0 <= at < math.inf:
        raise ValueError(f"episode time must be finite and >= 0, got {at}")


def _check_duration(duration: Optional[float]) -> None:
    if duration is not None and not 0 < duration < math.inf:
        raise ValueError(
            f"episode duration must be finite and > 0, got {duration}")


def check_positive(name: str, value: float) -> None:
    """Raise unless ``value > 0`` (NaN fails the comparison too)."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")


def check_rate(name: str, rate: float) -> None:
    """Raise unless ``rate`` is a probability in [0, 1] (NaN fails)."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {rate}")


@dataclass(frozen=True)
class LinkDown:
    """Take the ``a -> b`` link down at ``at`` (both directions by
    default); bring it back after ``duration`` (``None`` = forever)."""

    a: str
    b: str
    at: float
    duration: Optional[float] = None
    both: bool = True

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration(self.duration)


@dataclass(frozen=True)
class LinkImpairment:
    """Transient bandwidth / propagation-delay / random-loss change."""

    a: str
    b: str
    at: float
    duration: float
    rate_bps: Optional[float] = None
    delay: Optional[float] = None
    loss_rate: Optional[float] = None
    both: bool = True

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration(self.duration)
        if self.rate_bps is None and self.delay is None and self.loss_rate is None:
            raise ValueError("LinkImpairment must change at least one knob")
        if self.rate_bps is not None and not self.rate_bps > 0:
            raise ValueError(f"rate_bps must be positive, got {self.rate_bps}")
        if self.delay is not None and not self.delay >= 0:
            raise ValueError(f"delay cannot be negative, got {self.delay}")
        if self.loss_rate is not None:
            check_rate("loss_rate", self.loss_rate)


@dataclass(frozen=True)
class BurstLoss:
    """A burst-loss episode: ``loss_rate`` (default: drop everything)
    applied to the link for ``duration`` seconds."""

    a: str
    b: str
    at: float
    duration: float
    loss_rate: float = 1.0
    both: bool = False

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration(self.duration)
        check_rate("loss_rate", self.loss_rate)


@dataclass(frozen=True)
class Duplication:
    """Duplicate each packet with probability ``rate`` during the episode."""

    a: str
    b: str
    at: float
    duration: float
    rate: float = 0.1
    both: bool = False

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration(self.duration)
        check_rate("rate", self.rate)


@dataclass(frozen=True)
class Corruption:
    """Corrupt each packet with probability ``rate``.

    ``mode="drop"`` (default) models a checksum failure at the
    receiving interface: the packet is silently discarded.
    ``mode="mangle"`` delivers the packet with its encoded bytes
    bit-flipped instead, exercising every ingress ``decode()`` path
    (payload objects without a byte codec still fall back to drop).
    """

    a: str
    b: str
    at: float
    duration: float
    rate: float = 0.1
    both: bool = False
    mode: str = "drop"

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration(self.duration)
        check_rate("rate", self.rate)
        if self.mode not in ("drop", "mangle"):
            raise ValueError(f"mode must be 'drop' or 'mangle', got {self.mode!r}")


@dataclass(frozen=True)
class Partition:
    """Bisect the topology at ``at``: every link with one endpoint in
    ``side_a`` and the other in ``side_b`` goes down (both directions),
    then the whole cut heals together after ``duration`` (``None`` =
    never).  Nodes named on neither side are untouched — partial cuts
    compose by listing only the halves that matter.  Outages share the
    reference-counted :class:`LinkDown` machinery, so overlapping
    partitions (or a partition overlapping a ``LinkDown``) nest."""

    side_a: tuple[str, ...]
    side_b: tuple[str, ...]
    at: float
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "side_a", tuple(self.side_a))
        object.__setattr__(self, "side_b", tuple(self.side_b))
        _check_at(self.at)
        _check_duration(self.duration)
        if not self.side_a or not self.side_b:
            raise ValueError("both partition sides must be non-empty")
        overlap = set(self.side_a) & set(self.side_b)
        if overlap:
            raise ValueError(f"partition sides overlap: {sorted(overlap)}")


@dataclass(frozen=True)
class ControlBlackhole:
    """Asymmetric control-plane loss on the ``a -> b`` link: packets
    whose payload class name is in ``kinds`` are dropped at ingress
    while everything else (data) flows — the nastiest case for an
    ACK-clocked protocol, whose feedback dies while transmissions keep
    arriving.  Defaults to the full PGM control plane (ACK, NAK, NCF
    and SPM).  Overlapping blackholes on one link drop the union of
    their kinds."""

    a: str
    b: str
    at: float
    duration: Optional[float] = None
    kinds: tuple[str, ...] = ("Ack", "Nak", "Ncf", "Spm")
    both: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(self.kinds))
        _check_at(self.at)
        _check_duration(self.duration)
        if not self.kinds:
            raise ValueError("ControlBlackhole needs at least one kind")


@dataclass(frozen=True)
class NodePause:
    """Freeze ``node``'s data plane at ``at``; auto-resume after
    ``duration`` (``None`` = for the rest of the run)."""

    node: str
    at: float
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration(self.duration)


@dataclass(frozen=True)
class NodeCrash:
    """Permanently kill ``node`` at ``at``.  ``node`` may be the
    :data:`ACKER` sentinel, resolved at fire time to the session's
    current acker."""

    node: str
    at: float

    def __post_init__(self) -> None:
        _check_at(self.at)


@dataclass(frozen=True)
class ReceiverEpisode:
    """Base of the receiver episodes: from ``at``, for ``duration``
    seconds (``None`` = for the rest of the run), ``receiver`` behaves
    as a subclass defines.  ``receiver`` may be the :data:`ACKER`
    sentinel.

    This module only schedules the episode: the injector resolves
    ``receiver`` to an agent through its ``receiver_lookup`` and calls
    :meth:`start` and :meth:`stop` on it.  A subclass names its
    behaviour in ``kind``, which prefixes the audit actions
    (``<kind>-start`` / ``-stop`` / ``-skipped``), and implements both
    methods.  An episode is a frozen value a plan may compile more
    than once, so whatever one start creates lives on the agent.
    """

    receiver: str
    at: float
    duration: Optional[float] = None

    kind: ClassVar[str] = ""

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration(self.duration)

    def start(self, agent, now: float, rng: random.Random) -> None:
        """Switch the behaviour on; ``rng`` is the receiver's named
        ``fault-rx:<name>`` stream."""
        raise NotImplementedError

    def stop(self, agent) -> None:
        """Switch the behaviour off again."""
        raise NotImplementedError


_LINK_EPISODES = (LinkDown, LinkImpairment, BurstLoss, Duplication, Corruption,
                  ControlBlackhole)
_EPISODE_TYPES = _LINK_EPISODES + (Partition, NodePause, NodeCrash,
                                   ReceiverEpisode)


def flap_link(
    a: str,
    b: str,
    first_at: float,
    down_for: float,
    up_for: float,
    cycles: int,
    both: bool = True,
) -> tuple[LinkDown, ...]:
    """Convenience: ``cycles`` down/up flaps of the ``a<->b`` link."""
    if cycles < 1:
        raise ValueError("cycles must be >= 1")
    if not (down_for > 0 and up_for > 0):
        raise ValueError("down_for and up_for must be positive")
    episodes = []
    t = first_at
    for _ in range(cycles):
        episodes.append(LinkDown(a, b, at=t, duration=down_for, both=both))
        t += down_for + up_for
    return tuple(episodes)


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, composable schedule of fault episodes.

    Plans are immutable values: they can be composed with ``+``,
    time-scaled with :meth:`scaled`, validated against a topology, and
    compiled any number of times (each compilation is independent).
    """

    episodes: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "episodes", tuple(self.episodes))
        for ep in self.episodes:
            if not isinstance(ep, _EPISODE_TYPES):
                raise TypeError(f"not a fault episode: {ep!r}")

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        if not isinstance(other, FaultPlan):
            return NotImplemented
        return FaultPlan(self.episodes + other.episodes)

    def __len__(self) -> int:
        return len(self.episodes)

    def scaled(self, factor: float) -> "FaultPlan":
        """Scale every episode's ``at`` (and ``duration``) by ``factor``
        — the chaos analogue of the experiments' ``scale`` knob."""
        if not 0 < factor < math.inf:
            raise ValueError(f"scale factor must be finite and > 0, got {factor}")
        scaled = []
        for ep in self.episodes:
            changes = {"at": ep.at * factor}
            duration = getattr(ep, "duration", None)
            if duration is not None:
                changes["duration"] = duration * factor
            scaled.append(replace(ep, **changes))
        return FaultPlan(tuple(scaled))

    @property
    def horizon(self) -> float:
        """Time of the last scheduled state change."""
        horizon = 0.0
        for ep in self.episodes:
            end = ep.at + (getattr(ep, "duration", None) or 0.0)
            horizon = max(horizon, end)
        return horizon

    def validate_against(self, net: "Network") -> None:
        """Raise if the plan references links or nodes ``net`` lacks."""
        for ep in self.episodes:
            if isinstance(ep, _LINK_EPISODES):
                src = net.nodes.get(ep.a)
                if src is None or ep.b not in src.links:
                    raise ValueError(f"no link {ep.a}->{ep.b} for {ep!r}")
                if ep.both and ep.a not in net.nodes[ep.b].links:
                    raise ValueError(f"no reverse link {ep.b}->{ep.a} for {ep!r}")
            elif isinstance(ep, Partition):
                for name in ep.side_a + ep.side_b:
                    if name not in net.nodes:
                        raise ValueError(f"unknown node {name!r} in {ep!r}")
                if not _cut_links(net, ep):
                    raise ValueError(f"no links cross the cut in {ep!r}")
            elif isinstance(ep, (NodePause, NodeCrash)):
                if ep.node != ACKER and ep.node not in net.nodes:
                    raise ValueError(f"unknown node {ep.node!r} in {ep!r}")
            elif isinstance(ep, ReceiverEpisode):
                if ep.receiver != ACKER and ep.receiver not in net.nodes:
                    raise ValueError(f"unknown receiver {ep.receiver!r} in {ep!r}")


def _knobs(ep) -> list[tuple[str, object]]:
    """The ``(knob, value)`` pairs a link episode pushes, in order."""
    if isinstance(ep, BurstLoss):
        return [("loss", ep.loss_rate)]
    if isinstance(ep, Duplication):
        return [("dup", ep.rate)]
    if isinstance(ep, Corruption):
        return [("corrupt", (ep.rate, ep.mode))]
    if isinstance(ep, ControlBlackhole):
        return [("filter", frozenset(ep.kinds))]
    return [(knob, value) for knob, value in (
        ("rate_bps", ep.rate_bps), ("delay", ep.delay), ("loss", ep.loss_rate))
        if value is not None]


def _cut_links(net: "Network", ep: Partition) -> list[Link]:
    """Every directed link crossing the ``side_a``/``side_b`` cut, in
    deterministic (sorted endpoint) order."""
    links = []
    side_a, side_b = set(ep.side_a), set(ep.side_b)
    for src, dst in sorted(
            (a, b) for a in side_a | side_b
            for b in net.nodes[a].links
            if (a in side_a and b in side_b) or (a in side_b and b in side_a)):
        links.append(net.nodes[src].links[dst])
    return links


@dataclass(frozen=True)
class FaultRecord:
    """One applied fault action (the injector's audit log)."""

    time: float
    action: str
    target: str


class _LinkOverrides:
    """Per-link stacked override state (base values + active episodes)."""

    def __init__(self, link: Link, stage_rng, loss_rng):
        self.link = link
        self.stage_rng = stage_rng
        self.loss_rng = loss_rng
        self.base_rate = link.rate_bps
        self.base_delay = link.delay
        self.base_loss = link.loss
        self.down_count = 0
        self._stacks: dict[str, list[tuple[int, object]]] = {
            "rate_bps": [],
            "delay": [],
            "loss": [],
            "dup": [],
            "corrupt": [],
            "filter": [],
        }

    def down(self) -> None:
        self.down_count += 1
        self.link.set_down()

    def up(self) -> None:
        self.down_count -= 1
        if self.down_count <= 0:
            self.down_count = 0
            self.link.set_up()

    def push(self, knob: str, token: int, value) -> None:
        self._stacks[knob].append((token, value))
        self._apply(knob)

    def pop(self, knob: str, token: int) -> None:
        stack = self._stacks[knob]
        self._stacks[knob] = [entry for entry in stack if entry[0] != token]
        self._apply(knob)

    def _top(self, knob: str):
        stack = self._stacks[knob]
        return stack[-1][1] if stack else None

    def _apply(self, knob: str) -> None:
        top = self._top(knob)
        if knob == "rate_bps":
            self.link.rate_bps = self.base_rate if top is None else top
        elif knob == "delay":
            self.link.delay = self.base_delay if top is None else top
        elif knob == "loss":
            self.link.loss = self.base_loss if top is None else top
        elif knob == "filter":
            # overlapping blackholes compose: drop the union of kinds
            kinds: set[str] = set()
            for _token, value in self._stacks["filter"]:
                kinds.update(value)
            self.link.set_control_filter(kinds)
        else:  # dup / corrupt share one configuration call
            dup = self._top("dup") or 0.0
            corrupt = self._top("corrupt") or (0.0, "drop")
            corrupt_rate, corrupt_mode = corrupt
            self.link.set_fault_stages(dup, corrupt_rate, self.stage_rng,
                                       corrupt_mode=corrupt_mode)


class FaultInjector:
    """Compiles a :class:`FaultPlan` onto a network's event heap.

    Args:
        net: the target :class:`~repro.simulator.topology.Network`.
        plan: the fault schedule.
        acker_lookup: zero-argument callable returning the current
            acker's host name (or ``None``); required for plans using
            the :data:`ACKER` sentinel to do anything.
        receiver_lookup: callable mapping a receiver/host name to the
            agent a :class:`ReceiverEpisode` starts and stops on (or
            ``None``); without it, receiver episodes are recorded as
            ``<kind>-skipped`` and do nothing.

    The plan is checked against the topology up front
    (:meth:`FaultPlan.validate_against`).

    All state changes are applied from simulator callbacks, so a
    compiled injector is fully deterministic with respect to the
    ``(seed, plan)`` pair.  Applied actions are recorded in
    :attr:`log` for tests and experiment reports.
    """

    def __init__(
        self,
        net: "Network",
        plan: FaultPlan,
        acker_lookup: Optional[Callable[[], Optional[str]]] = None,
        receiver_lookup: Optional[Callable[[str], object]] = None,
    ):
        self.net = net
        self.plan = plan
        self.acker_lookup = acker_lookup
        self.receiver_lookup = receiver_lookup
        self.log: list[FaultRecord] = []
        self._overrides: dict[str, _LinkOverrides] = {}
        self._tokens = itertools.count(1)
        plan.validate_against(net)
        for episode in plan.episodes:
            self._compile(episode)

    # -- public introspection ---------------------------------------------

    @property
    def actions_applied(self) -> int:
        return len(self.log)

    def actions(self, action: str) -> list[FaultRecord]:
        return [r for r in self.log if r.action == action]

    # -- compilation -------------------------------------------------------

    def _at(self, time: float, fn, *args) -> None:
        self.net.sim.schedule_at(max(time, self.net.sim.now), fn, *args)

    def _record(self, action: str, target: str) -> None:
        self.log.append(FaultRecord(self.net.sim.now, action, target))

    def _links_for(self, a: str, b: str, both: bool) -> list[Link]:
        links = [self.net.nodes[a].links[b]]
        if both:
            reverse = self.net.nodes[b].links.get(a)
            if reverse is not None:
                links.append(reverse)
        return links

    def _override_state(self, link: Link) -> _LinkOverrides:
        state = self._overrides.get(link.name)
        if state is None:
            state = _LinkOverrides(
                link,
                stage_rng=self.net.rng.stream(f"fault-stage:{link.name}"),
                loss_rng=self.net.rng.stream(f"fault-loss:{link.name}"),
            )
            self._overrides[link.name] = state
        return state

    def _compile(self, ep) -> None:
        duration = getattr(ep, "duration", None)
        end = None if duration is None else ep.at + duration
        if isinstance(ep, ReceiverEpisode):
            self._at(ep.at, self._receiver_action, ep, True)
            if end is not None:
                self._at(end, self._receiver_action, ep, False)
        elif isinstance(ep, (NodePause, NodeCrash)):
            action = "pause" if isinstance(ep, NodePause) else "crash"
            self._at(ep.at, self._node_action, ep.node, action)
            if end is not None:
                self._at(end, self._node_action, ep.node, "resume")
        elif isinstance(ep, (LinkDown, Partition)):
            links = (_cut_links(self.net, ep) if isinstance(ep, Partition)
                     else self._links_for(ep.a, ep.b, ep.both))
            for link in links:
                state = self._override_state(link)
                self._at(ep.at, self._link_down, state)
                if end is not None:
                    self._at(end, self._link_up, state)
        else:
            for link in self._links_for(ep.a, ep.b, ep.both):
                state = self._override_state(link)
                for knob, value in _knobs(ep):
                    if knob == "loss":
                        value = BernoulliLoss(value, state.loss_rng)
                    token = next(self._tokens)
                    self._at(ep.at, self._push, state, knob, token, value)
                    if end is not None:
                        self._at(end, self._pop, state, knob, token)

    # -- fire-time actions -------------------------------------------------

    def _link_down(self, state: _LinkOverrides) -> None:
        state.down()
        self._record("link-down", state.link.name)

    def _link_up(self, state: _LinkOverrides) -> None:
        state.up()
        self._record("link-up", state.link.name)

    def _push(self, state: _LinkOverrides, knob: str, token: int, value) -> None:
        state.push(knob, token, value)
        self._record(f"{knob}-set", state.link.name)

    def _pop(self, state: _LinkOverrides, knob: str, token: int) -> None:
        state.pop(knob, token)
        self._record(f"{knob}-restore", state.link.name)

    def _node_action(self, name: str, action: str) -> None:
        node = self.net.nodes.get(self._resolve(name))
        if node is None:
            self._record(f"{action}-skipped", name)
            return
        getattr(node, action)()
        self._record(action, node.name)

    def _resolve(self, name: str) -> Optional[str]:
        """``name``, or the current acker's for the :data:`ACKER`
        sentinel (``None`` when there is none to ask or no acker)."""
        if name != ACKER:
            return name
        return self.acker_lookup() if self.acker_lookup is not None else None

    def _receiver_action(self, ep: ReceiverEpisode, start: bool) -> None:
        name = self._resolve(ep.receiver)
        agent = None
        if name is not None and self.receiver_lookup is not None:
            agent = self.receiver_lookup(name)
        if agent is None:
            self._record(f"{ep.kind}-skipped", name or ep.receiver)
            return
        if start:
            ep.start(agent, self.net.sim.now,
                     self.net.rng.stream(f"fault-rx:{name}"))
            self._record(f"{ep.kind}-start", name)
        else:
            ep.stop(agent)
            self._record(f"{ep.kind}-stop", name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultInjector episodes={len(self.plan)} "
            f"applied={self.actions_applied}>"
        )
