"""Discrete-event network simulator (the ns-2 / dummynet substitute).

Public surface::

    from repro.simulator import (
        Simulator, Timer, Network, LinkSpec, Link, Packet,
        NON_LOSSY, LOSSY, ACCESS, dumbbell, star, two_bottleneck, ...
    )

Fault injection is optional and lives in :mod:`repro.simulator.faults`
(``FaultPlan``, ``FaultInjector``, the episodes ``LinkDown``,
``NodeCrash``, ``Partition``, ... and the ``ACKER`` sentinel); it is
loaded by a session that is given a plan, not by this package.
"""

from .engine import (
    Event,
    Simulator,
    Timer,
    cancel_event,
    describe_event,
)
from .link import Link
from .loss_models import (
    BernoulliLoss,
    DeterministicLoss,
    GilbertElliottLoss,
    PeriodicLoss,
)
from .node import EcmpRouter, Host, Node, Router
from .packet import (
    MULTICAST_PREFIX,
    POOL,
    Address,
    Packet,
    is_multicast,
)
from .rng import RngRegistry
from .topology import (
    ACCESS,
    LOSSY,
    NON_LOSSY,
    LinkSpec,
    Network,
    SubtreePlan,
    dumbbell,
    dumbbell_subtrees,
    star,
    two_bottleneck,
)
from .trace import FlowTrace, TraceRecord

__all__ = [
    "Event",
    "Simulator",
    "Timer",
    "cancel_event",
    "describe_event",
    "Link",
    "BernoulliLoss",
    "DeterministicLoss",
    "GilbertElliottLoss",
    "PeriodicLoss",
    "EcmpRouter",
    "Host",
    "Node",
    "Router",
    "MULTICAST_PREFIX",
    "POOL",
    "Address",
    "Packet",
    "is_multicast",
    "RngRegistry",
    "ACCESS",
    "LOSSY",
    "NON_LOSSY",
    "LinkSpec",
    "Network",
    "SubtreePlan",
    "dumbbell",
    "dumbbell_subtrees",
    "star",
    "two_bottleneck",
    "FlowTrace",
    "TraceRecord",
]
