"""Spec -> orchestrator tasks: deterministic matrix expansion.

Each expanded task is a plain
:class:`~repro.experiments.common.ExperimentSpec` (the orchestrator's
native unit), so a sweep inherits everything PR 4 built — worker
isolation, retries, manifests, and the content-addressed result cache.
A sweep task's cache key is the same as any other task's for the same
``module:func`` + kwargs + schema, so sweeps and plain runner runs
share results.

Task ids are deterministic and human-readable::

    arena-matrix/controller=pgmcc,scenario=fault
    resilience-matrix/base                       (ablate baseline)
    resilience-matrix/liveness=False,seed=31

so two expansions of the same spec produce identical id/kwargs lists
regardless of host, hash seed, or parallelism — the foundation of the
digest-stable sweep report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from ..experiments.common import ExperimentSpec
from .spec import SweepSpec
from .validate import validate_spec

__all__ = ["SweepTask", "expand"]


@dataclass(frozen=True)
class SweepTask:
    """One expanded cell: its axis assignment plus the runnable spec."""

    id: str
    #: the varied parameters only (base parameters are in the spec's
    #: kwargs but not part of the cell's identity)
    axes: tuple[tuple[str, Any], ...]
    spec: ExperimentSpec

    @property
    def axes_dict(self) -> dict[str, Any]:
        return dict(self.axes)


def _fmt_value(value: Any) -> str:
    if isinstance(value, (tuple, list)):
        return "+".join(_fmt_value(v) for v in value)
    return str(value)


def _assignments(spec: SweepSpec) -> list[tuple[tuple[str, Any], ...]]:
    """Per-mode axis assignments, in deterministic declaration order."""
    axes = list(spec.axes)
    if spec.mode == "grid":
        names = [name for name, _ in axes]
        combos = itertools.product(*(values for _, values in axes))
        out = [tuple(zip(names, combo)) for combo in combos]
    elif spec.mode == "zip":
        out = [tuple((name, values[i]) for name, values in axes)
               for i in range(len(axes[0][1]) if axes else 0)]
    elif spec.mode == "ablate":
        out = [()]  # the baseline: base parameters only
        out += [((name, value),)
                for name, values in axes for value in values]
    else:  # pragma: no cover - caught by validate_spec
        raise ValueError(f"unknown mode {spec.mode!r}")
    if spec.seeds:
        out = [assignment + (("seed", seed),)
               for assignment in out for seed in spec.seeds]
    return out


def expand(spec: SweepSpec) -> list[SweepTask]:
    """Expand ``spec`` into orchestrator tasks (validates first).

    Raises :class:`~repro.sweep.validate.SweepValidationError` on an
    invalid spec and ``ValueError`` on a task-id collision (two cells
    whose assignments render identically).  The orchestrator checks
    each task's call before it runs anything.
    """
    from ..experiments.registry import get_experiment

    validate_spec(spec)
    experiment = get_experiment(spec.experiment)
    base = spec.base_dict

    tasks: list[SweepTask] = []
    seen: set[str] = set()
    for assignment in _assignments(spec):
        label = ",".join(f"{n}={_fmt_value(v)}" for n, v in assignment)
        task_id = f"{spec.name}/{label or 'base'}"
        if task_id in seen:
            raise ValueError(f"duplicate sweep task id {task_id!r} "
                             "(axes values render identically)")
        seen.add(task_id)
        kwargs = {**base, **dict(assignment)}
        cell = ExperimentSpec(
            id=task_id,
            module=experiment.module,
            func=experiment.func,
            scale_factor=experiment.scale_factor,
            kwargs=tuple(sorted(kwargs.items())),
            description=(f"{spec.experiment} cell of sweep "
                         f"{spec.name!r}"),
            params=experiment.params,
        )
        tasks.append(SweepTask(id=task_id, axes=assignment, spec=cell))
    return tasks
