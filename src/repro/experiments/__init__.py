"""Experiment runners: one per figure of the paper's §4, plus
ablations over the design knobs.

Each module exposes ``run(scale=1.0, ...) -> ExperimentResult`` or,
for an entry that compares cases of one scenario, the cell function a
registered study runs once per case; ``scale`` shrinks durations for
quick runs.  ``registry`` names them as ``ExperimentSpec`` entries and
the studies as ``SweepSpec`` entries; ``python -m repro.runner`` runs
them.
Importing this package loads none of them.
"""

from .common import ExperimentResult, kbps

__all__ = ["ExperimentResult", "kbps"]
