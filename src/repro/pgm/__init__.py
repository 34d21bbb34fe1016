"""PGM protocol substrate with pgmcc congestion control.

Public surface::

    from repro.pgm import (
        PgmSender, PgmReceiver, PgmNetworkElement, PgmSession,
        SessionConfig, create_session, add_receiver,
        enable_network_elements, BulkSource, FiniteSource,
    )
"""

from . import constants
from .aggregate import (
    AggregateManager,
    MirrorBank,
    AnalyticBank,
    TailProxy,
)
from .fec import FecAssembler, FecPayload, FecSource, attach_fec_receiver
from .guard import FeedbackGuard, GuardConfig, GuardVerdict
from .invariants import InvariantChecker, InvariantViolation, Violation
from .liveness import LivenessConfig, LivenessWatchdog
from .misbehavior import (
    AckReplay,
    GreedyAcker,
    Misbehavior,
    NakStorm,
    SilentJoiner,
    Throttler,
)
from .network_element import PgmNetworkElement
from .packets import Ack, Nak, Ncf, OData, PgmMessage, RData, Spm, decode
from .rate_limiter import TokenBucket
from .receiver import PgmReceiver
from .sender import BulkSource, DataSource, FiniteSource, PgmSender
from .session import (
    PgmSession,
    SessionConfig,
    add_receiver,
    create_session,
    enable_network_elements,
)

__all__ = [
    "constants",
    "AggregateManager",
    "MirrorBank",
    "AnalyticBank",
    "TailProxy",
    "FeedbackGuard",
    "GuardConfig",
    "GuardVerdict",
    "AckReplay",
    "GreedyAcker",
    "Misbehavior",
    "NakStorm",
    "SilentJoiner",
    "Throttler",
    "InvariantChecker",
    "InvariantViolation",
    "Violation",
    "LivenessConfig",
    "LivenessWatchdog",
    "FecAssembler",
    "FecPayload",
    "FecSource",
    "attach_fec_receiver",
    "PgmNetworkElement",
    "Ack",
    "Nak",
    "Ncf",
    "OData",
    "PgmMessage",
    "RData",
    "Spm",
    "decode",
    "TokenBucket",
    "PgmReceiver",
    "BulkSource",
    "DataSource",
    "FiniteSource",
    "PgmSender",
    "PgmSession",
    "SessionConfig",
    "add_receiver",
    "create_session",
    "enable_network_elements",
]
