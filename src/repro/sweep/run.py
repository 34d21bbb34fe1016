"""The ``sweep()`` library entry point.

One call takes a spec (a :class:`SweepSpec`, a plain dict, or a path
to a ``.toml``/``.json`` file), expands it, runs the cells through the
:class:`~repro.runner.orchestrator.Orchestrator` (cache, worker
isolation, retries included), and returns a :class:`SweepRun` bundling
the manifest, the joined cells and the typed report.  The manifest's
``sweep`` block holds the report's deterministic sections, so the
manifest alone records what the sweep computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Union

from ..runner.cache import DEFAULT_CACHE_DIR, ResultCache
from ..runner.orchestrator import Orchestrator
from .aggregate import SweepCell, collect_cells
from .expand import SweepTask, expand
from .report import build_report
from .spec import SweepSpec, load_spec, spec_from_dict

__all__ = ["SweepRun", "sweep"]

#: the report's deterministic sections the manifest's ``sweep`` block
#: carries next to the spec and the task axes (``aggregate`` only when
#: the spec names a hook)
MANIFEST_SECTIONS = ("metrics", "axis_deltas", "ranked", "aggregate")


@dataclass
class SweepRun:
    """Everything one sweep produced."""

    spec: SweepSpec
    tasks: list[SweepTask]
    cells: list[SweepCell]
    manifest: dict[str, Any]
    report: dict[str, Any]

    @property
    def ok(self) -> bool:
        """Every cell succeeded."""
        return self.report["totals"]["failed"] == 0

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
    import dataclasses

    if baseline is not None:
        raise TypeError(
            "sweep() takes no baseline: the performance gate is "
            "benchmarks/perf/run.py compare")
    spec = _coerce_spec(spec)
    if scale is not None:
        spec = dataclasses.replace(spec, scale=scale)
    tasks = expand(spec)

    cache = None if cache_dir is None else ResultCache(cache_dir)
    orch = Orchestrator(
        [task.spec for task in tasks], scale=spec.scale, jobs=jobs,
        cache=cache, timeout=timeout, retries=retries, on_event=on_event,
        extra_sys_path=extra_sys_path)
    manifest = orch.run(
        sweep={"spec": spec.to_dict(),
               "tasks": {task.id: task.axes_dict for task in tasks}})
    cells = collect_cells(tasks, orch.outcomes)
    report = build_report(spec, cells, manifest)
    manifest["sweep"].update(
        (key, report[key]) for key in MANIFEST_SECTIONS if key in report)
    return SweepRun(spec=spec, tasks=tasks, cells=cells,
                    manifest=manifest, report=report)
