"""One run path for experiments and studies, and ``sweep()`` on it.

A run's entries are experiments (:class:`ExperimentSpec`) and studies
(:class:`SweepSpec`).  :func:`expand_entries` turns them into one task
list — an experiment is one task, a study each cell it expands to — and
one :class:`~repro.runner.orchestrator.Orchestrator` runs that list
(cache, worker isolation, retries included).  :func:`run_entries` then
gives each study its block in the manifest's ``studies`` object: the
study's spec, each task's axes and the sections aggregated from its
cells (``metrics``, ``axis_deltas``, ``ranked`` and, when the spec
names a hook, ``aggregate``).  The manifest is the run's one document,
and :func:`~repro.sweep.report.render_markdown` renders every block
of it.

A study's ``scale`` is a factor on the runner's scale, as an
experiment's ``scale_factor`` is.  :func:`sweep` is the one-entry
case: the spec's own scale (or ``scale=``) is the runner's, and the
spec adds a factor of 1.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Union

from ..experiments.common import ExperimentSpec, canonical_json
from ..runner.cache import DEFAULT_CACHE_DIR, ResultCache
from ..runner.orchestrator import Orchestrator
from .aggregate import (
    SweepCell,
    axis_deltas,
    collect_cells,
    ranked_rows,
    run_custom_aggregate,
    shared_numeric_metrics,
)
from .expand import SweepTask, expand
from .spec import SweepSpec, load_spec, spec_from_dict

__all__ = ["SweepRun", "expand_entries", "run_entries", "sweep"]

#: a study with its expanded tasks, at the scale its cells run at
Study = tuple[SweepSpec, list[SweepTask]]


def expand_entries(entries: list[Union[ExperimentSpec, SweepSpec]],
                   scale: float) -> tuple[list[ExperimentSpec], list[Study]]:
    """The task list ``entries`` run at runner scale ``scale``, in
    entry order, and each study among them with its tasks.

    A study's cells carry its ``scale`` in their ``scale_factor``; the
    study comes back at the scale they run at (``scale`` times its
    own), validated against it.  Raises
    :class:`~repro.sweep.validate.SweepValidationError` on an invalid
    study.
    """
    specs: list[ExperimentSpec] = []
    studies: list[Study] = []
    for entry in entries:
        if not isinstance(entry, SweepSpec):
            specs.append(entry)
            continue
        study = dataclasses.replace(entry, scale=scale * entry.scale)
        tasks = expand(study)
        cells = [task.spec for task in tasks]
        if entry.scale != 1:
            # a factor of 1 changes no cell, and copying 24 cells is
            # 1.5 % of a cached 24-cell replay (2-CPU x86, CPython 3.11)
            cells = [dataclasses.replace(
                cell, scale_factor=entry.scale * cell.scale_factor)
                for cell in cells]
        specs += cells
        studies.append((study, tasks))
    return specs, studies


def _block(study: SweepSpec, tasks: list[SweepTask],
           cells: list[SweepCell]) -> dict[str, Any]:
    metrics = shared_numeric_metrics(cells, study.metrics)
    sections = {"metrics": metrics,
                "axis_deltas": axis_deltas(study, cells, metrics),
                "ranked": ranked_rows(study, cells)}
    aggregate = run_custom_aggregate(study, cells)
    if aggregate is not None:
        sections["aggregate"] = aggregate
    return {"spec": study.to_dict(),
            "tasks": {task.id: task.axes_dict for task in tasks},
            **json.loads(canonical_json(sections))}


def run_entries(orch: Orchestrator, studies: list[Study]
                ) -> tuple[dict[str, Any], list[list[SweepCell]]]:
    """Run the orchestrator's tasks; the manifest, with one block per
    study in ``studies`` (from :func:`expand_entries`), and each
    study's cells."""
    manifest = orch.run()
    cells = [collect_cells(tasks, orch.outcomes) for _, tasks in studies]
    for (study, tasks), joined in zip(studies, cells):
        manifest["studies"][study.name] = _block(study, tasks, joined)
    return manifest, cells


@dataclass
class SweepRun:
    """Everything one sweep produced."""

    spec: SweepSpec
    tasks: list[SweepTask]
    cells: list[SweepCell]
    manifest: dict[str, Any]

    #: ``benchmarks/perf/child.py`` still reads ``run.report``: a name
    #: for the manifest until the harness moves (ROADMAP item 2)
    report = property(lambda self: self.manifest)

    @property
    def ok(self) -> bool:
        """Every cell succeeded."""
        return self.manifest["totals"]["failed"] == 0

    @property
    def results(self) -> dict[str, Any]:
        """task id -> :class:`ExperimentResult` for the ok cells."""
        return {c.task.id: c.result for c in self.cells if c.ok}


def _coerce_spec(spec: Union[SweepSpec, dict, str, Path]) -> SweepSpec:
    if isinstance(spec, SweepSpec):
        return spec
    if isinstance(spec, dict):
        return spec_from_dict(spec)
    return load_spec(spec)


def sweep(spec: Union[SweepSpec, dict, str, Path], *,
          jobs: int = 1,
          scale: Optional[float] = None,
          cache_dir: Union[str, Path, None] = DEFAULT_CACHE_DIR,
          baseline: None = None,
          timeout: Optional[float] = None,
          retries: int = 1,
          on_event: Optional[Callable] = None,
          extra_sys_path: tuple = ()) -> SweepRun:
    """Run a declarative sweep end to end; returns a :class:`SweepRun`.

    ``scale`` overrides the spec's own scale (handy for smoke runs of a
    committed spec).  ``cache_dir=None`` disables the result cache.
    ``baseline`` is a name only: ``benchmarks/perf/child.py`` still
    spells ``baseline=None``, so ``None`` stays legal until the harness
    drops the keyword (DESIGN.md §6, switch audit).
    """
    if baseline is not None:
        raise TypeError(
            "sweep() takes no baseline: the performance gate is "
            "benchmarks/perf/run.py compare")
    spec = _coerce_spec(spec)
    scale = spec.scale if scale is None else scale
    specs, [(spec, tasks)] = expand_entries(
        [dataclasses.replace(spec, scale=1.0)], scale)
    orch = Orchestrator(
        specs, scale=scale, jobs=jobs,
        cache=None if cache_dir is None else ResultCache(cache_dir),
        timeout=timeout, retries=retries, on_event=on_event,
        extra_sys_path=extra_sys_path)
    manifest, [cells] = run_entries(orch, [(spec, tasks)])
    return SweepRun(spec=spec, tasks=tasks, cells=cells, manifest=manifest)
