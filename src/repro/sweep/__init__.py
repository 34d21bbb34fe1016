"""Declarative sweep/ablation DSL over the experiment orchestrator.

A sweep is plain data — a :class:`SweepSpec` built in Python, from a
dict, or loaded from a TOML/JSON file — naming one registered
experiment, the parameter axes to vary, and an expansion mode
(``grid`` / ``zip`` / ``ablate``).  Expansion produces ordinary
orchestrator tasks (cached, isolated, retried); aggregation produces
per-axis deltas, a ranked table and optional experiment-specific
tables.  A run writes one document, the run manifest: those tables
sit in the study's block of its ``studies`` object, and
``render_markdown(manifest)`` is the printed report.  A registered
study and a spec file take the same path (:mod:`repro.sweep.run`).

Library use::

    from repro.sweep import sweep
    run = sweep("examples/sweeps/ci_smoke.toml", jobs=2)
    print(run.manifest["studies"]["ci-smoke"]["ranked"])

The command line is the runner's: a spec file in place of experiment
ids runs it, ``--list`` prints its expanded tasks::

    python -m repro.runner examples/sweeps/ci_smoke.toml -j auto
"""

from .aggregate import SweepCell, axis_deltas, ranked_rows
from .expand import SweepTask, expand
from .report import render_markdown, report_digest
from .run import SweepRun, expand_entries, run_entries, sweep
from .spec import SweepSpec, load_spec, spec_from_dict
from .validate import SweepValidationError, spec_errors, validate_spec

__all__ = [
    "SweepCell",
    "SweepRun",
    "SweepSpec",
    "SweepTask",
    "SweepValidationError",
    "axis_deltas",
    "expand",
    "expand_entries",
    "load_spec",
    "ranked_rows",
    "render_markdown",
    "report_digest",
    "run_entries",
    "spec_errors",
    "spec_from_dict",
    "sweep",
    "validate_spec",
]
