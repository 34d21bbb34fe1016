"""PGM protocol substrate with pgmcc congestion control.

Public surface — what a default session builds::

    from repro.pgm import (
        PgmSender, PgmReceiver, PgmSession, SessionConfig,
        create_session, add_receiver, enable_network_elements,
        BulkSource, FiniteSource,
    )

The optional subsystems are imported from their own modules, and only
a session that builds one loads it:

* :mod:`repro.pgm.network_element` — ``PgmNetworkElement``;
* :mod:`repro.pgm.aggregate` — ``AggregateManager``, ``MirrorBank``,
  ``AnalyticBank``, ``TailProxy``;
* :mod:`repro.pgm.fec` — ``FecSource``, ``FecAssembler``,
  ``FecPayload``, ``attach_fec_receiver``;
* :mod:`repro.pgm.guard` — ``FeedbackGuard``, ``GuardVerdict``;
* :mod:`repro.pgm.invariants` — ``InvariantChecker``,
  ``InvariantViolation``, ``Violation``;
* :mod:`repro.pgm.liveness` — ``LivenessWatchdog``;
* :mod:`repro.pgm.misbehavior` — the receiver attacks
  (``GreedyAcker``, ``Throttler``, ``NakStorm``, ``AckReplay``,
  ``SilentJoiner``) and their base ``Misbehavior``.

The guard, the watchdog, the network elements and the invariant
checker have no config classes: their fixed values are module
constants read at use (``guard.REPLAY_TTL``, ``liveness.MAX_DEMOTIONS``,
``constants.NE_STATE_LIFETIME``, ``invariants.CHECK_INTERVAL``), so a
probe that needs another value patches the constant.
"""

from . import constants
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
