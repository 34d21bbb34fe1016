"""Discrete-event network simulator (the ns-2 / dummynet substitute).

Public surface::

    from repro.simulator import (
        Simulator, Timer, Network, LinkSpec, Link, Packet,
        NON_LOSSY, LOSSY, ACCESS, dumbbell, star, two_bottleneck,
        FaultPlan, FaultInjector, LinkDown, NodeCrash, ACKER, ...,
    )
"""

from .engine import (
    Event,
    Simulator,
    Timer,
    cancel_event,
    describe_event,
)
from .faults import (
    ACKER,
    BurstLoss,
    ControlBlackhole,
    Corruption,
    Duplication,
    FaultInjector,
    FaultPlan,
    FaultRecord,
    LinkDown,
    LinkImpairment,
    NodeCrash,
    NodePause,
    Partition,
    ReceiverEpisode,
    flap_link,
)
from .link import Link
from .loss_models import (
    BernoulliLoss,
    DeterministicLoss,
    GilbertElliottLoss,
    NoLoss,
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
from .queues import DropTailQueue
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
    "ACKER",
    "BurstLoss",
    "ControlBlackhole",
    "Corruption",
    "Duplication",
    "FaultInjector",
    "FaultPlan",
    "FaultRecord",
    "LinkDown",
    "LinkImpairment",
    "NodeCrash",
    "NodePause",
    "Partition",
    "ReceiverEpisode",
    "flap_link",
    "Link",
    "BernoulliLoss",
    "DeterministicLoss",
    "GilbertElliottLoss",
    "NoLoss",
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
    "DropTailQueue",
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
