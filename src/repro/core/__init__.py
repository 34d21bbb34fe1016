"""pgmcc — the paper's contribution.

The core package is transport-facing but protocol-agnostic: the PGM
implementation in :mod:`repro.pgm` (or any other single-source
multicast transport) drives these state machines.

Public surface::

    from repro.core import (
        LossRateFilter, ReceiverReport, ReceiverController,
        WindowController, AckTracker, AckerElection,
        SenderController, CcConfig,
        Controller, register_controller, make_controller, controller_names,
    )

The §3.9 application-feedback helpers (``TokenRateEstimator``,
``AdaptiveSource``, ``QualityLevel``) live in :mod:`repro.core.feedback`.
"""

from .acker import DEFAULT_C, AckerElection, AckerSwitch, throughput_metric
from .controller import (
    Controller,
    controller_names,
    make_controller,
    register_controller,
)
from .acktrack import (
    BITMAP_BITS,
    AckOutcome,
    AckTracker,
    bitmap_contains,
    bitmap_covers,
    build_bitmap,
)
from .loss_filter import DEFAULT_W, FRACTION_BITS, SCALE, LossRateFilter, to_fixed, to_float
from .receiver_cc import DataOutcome, ReceiverController
from .reports import ReceiverReport
from .rtt import RttSampler, SmoothedRtt, packet_rtt
from .sender_cc import AckDigest, CcConfig, SenderController
from .tfrc_loss import LossIntervalEstimator
from .throughput_models import PadhyeModel, SimpleModel, make_model
from .window import (
    DEFAULT_DUPACK_THRESHOLD,
    DEFAULT_SSTHRESH,
    WindowController,
)

__all__ = [
    "Controller",
    "controller_names",
    "make_controller",
    "register_controller",
    "DEFAULT_C",
    "AckerElection",
    "AckerSwitch",
    "throughput_metric",
    "BITMAP_BITS",
    "AckOutcome",
    "AckTracker",
    "bitmap_contains",
    "bitmap_covers",
    "build_bitmap",
    "DEFAULT_W",
    "FRACTION_BITS",
    "SCALE",
    "LossRateFilter",
    "to_fixed",
    "to_float",
    "DataOutcome",
    "ReceiverController",
    "ReceiverReport",
    "RttSampler",
    "SmoothedRtt",
    "packet_rtt",
    "AckDigest",
    "CcConfig",
    "SenderController",
    "DEFAULT_DUPACK_THRESHOLD",
    "DEFAULT_SSTHRESH",
    "WindowController",
    "LossIntervalEstimator",
    "PadhyeModel",
    "SimpleModel",
    "make_model",
]
