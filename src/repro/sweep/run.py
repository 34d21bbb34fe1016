"""The ``sweep()`` library entry point.

One call takes a spec (a :class:`SweepSpec`, a plain dict, or a path
to a ``.toml``/``.json`` file), expands it, runs the cells through the
:class:`~repro.runner.orchestrator.Orchestrator` (cache, worker
isolation, retries included), and returns a :class:`SweepRun` bundling
the manifest, the joined cells and the typed report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Union

from ..runner.cache import DEFAULT_CACHE_DIR, ResultCache
from ..runner.orchestrator import Orchestrator
from .aggregate import SweepCell, collect_cells, regression_section
from .expand import SweepTask, expand
from .report import build_report
from .spec import SweepSpec, load_spec, spec_from_dict

__all__ = ["SweepRun", "sweep"]

#: default committed perf-trajectory artifact to gate against
DEFAULT_BASELINE = Path("results") / "BENCH_RESULTS.json"


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
        """Every cell succeeded and no regression was detected."""
        regression = self.report.get("regression") or {}
        return (self.report["totals"]["failed"] == 0
                and regression.get("status") != "fail")

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
          baseline: Union[str, Path, None] = DEFAULT_BASELINE,
          timeout: Optional[float] = None,
          retries: int = 1,
          run_id: Optional[str] = None,
          on_event: Optional[Callable] = None,
          extra_sys_path: tuple = ()) -> SweepRun:
    """Run a declarative sweep end to end; returns a :class:`SweepRun`.

    ``scale`` overrides the spec's own scale (handy for smoke runs of a
    committed spec).  ``cache_dir=None`` disables the result cache.
    ``baseline`` names the committed ``BENCH_RESULTS.json`` whose scale
    series the sweep's own is gated against (``None`` — or a missing
    file — skips regression detection).
    """
    import dataclasses

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
        run_id=run_id or time.strftime("sweep-%Y%m%d-%H%M%S"),
        sweep={"spec": spec.to_dict(),
               "tasks": {task.id: task.axes_dict for task in tasks}})
    cells = collect_cells(tasks, orch.outcomes)

    regression = None
    if baseline is not None and Path(baseline).exists():
        from ..runner.bench import scale_series_from_manifest

        regression = regression_section(
            str(baseline),
            scale_series=scale_series_from_manifest(manifest))

    report = build_report(spec, cells, manifest, regression=regression)
    return SweepRun(spec=spec, tasks=tasks, cells=cells,
                    manifest=manifest, report=report)
