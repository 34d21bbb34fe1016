"""Experiment runners: one per figure of the paper's §4, plus
ablations over the design knobs.

Each module exposes ``run(scale=1.0, ...) -> ExperimentResult``;
``scale`` shrinks durations for quick runs.  ``registry`` names them
as ``ExperimentSpec`` entries; ``python -m repro.runner`` runs them.
"""

from . import (
    ablations,
    drop_to_zero,
    fairness_sweep,
    fec_scaling,
    robustness,
    scalability,
    fig2_loss_filter,
    fig3_intra_fairness,
    fig4_inter_fairness,
    fig5_acker_selection,
    fig6_heterogeneous_rtt,
    fig7_uncorrelated_loss,
    unreliable_mode,
)
from .common import ExperimentResult, kbps

__all__ = [
    "ablations",
    "drop_to_zero",
    "fairness_sweep",
    "fec_scaling",
    "robustness",
    "scalability",
    "fig2_loss_filter",
    "fig3_intra_fairness",
    "fig4_inter_fairness",
    "fig5_acker_selection",
    "fig6_heterogeneous_rtt",
    "fig7_uncorrelated_loss",
    "unreliable_mode",
    "ExperimentResult",
    "kbps",
]
