"""Up-front spec validation against the experiment registry.

Everything that can be wrong *before* a worker starts is collected
here and raised as one :class:`SweepValidationError` listing every
problem — an unknown experiment id, a typo'd axis, a value outside
the declared :class:`~repro.experiments.common.ParamSpec` bounds, a
``zip`` length mismatch, an aggregate hook that does not resolve.
Per-value type/range checking reuses the experiment's own schema, so
the sweep DSL and the orchestrator agree on what is legal.
"""

from __future__ import annotations

import importlib
import math
from typing import Any

from ..experiments.common import ExperimentSpec
from .spec import MODES, SweepSpec

__all__ = ["SweepValidationError", "validate_spec", "spec_errors"]


class SweepValidationError(ValueError):
    """A sweep spec failed validation; ``errors`` lists every problem."""

    def __init__(self, spec_name: str, errors: list[str]):
        self.errors = list(errors)
        lines = "\n".join(f"  - {e}" for e in self.errors)
        super().__init__(
            f"sweep spec {spec_name!r}: {len(self.errors)} problem(s):\n"
            f"{lines}")


def _experiment(spec: SweepSpec) -> ExperimentSpec | None:
    from ..experiments.registry import get_experiment

    try:
        return get_experiment(spec.experiment)
    except KeyError:
        return None


def spec_errors(spec: SweepSpec) -> list[str]:
    """Every validation problem of ``spec``, as human-readable strings
    (empty = valid)."""
    errors: list[str] = []
    if not spec.name:
        errors.append("empty sweep name")
    if spec.mode not in MODES:
        errors.append(f"unknown mode {spec.mode!r} "
                      f"(one of {', '.join(MODES)})")
    if not 0 < spec.scale < math.inf:
        errors.append(f"scale must be a finite number > 0, got {spec.scale!r}")
    if spec.aggregate:
        errors.extend(_hook_errors(spec.aggregate))

    experiment = _experiment(spec)
    if experiment is None:
        from ..experiments.registry import experiment_ids

        errors.append(f"unknown experiment {spec.experiment!r} "
                      f"(known: {', '.join(experiment_ids(True))})")
        return errors  # nothing else is checkable without the schema

    if not spec.axes and spec.mode != "ablate":
        errors.append("no axes declared")
    seen: set[str] = set()
    for axis, values in spec.axes:
        if axis in seen:
            errors.append(f"duplicate axis {axis!r}")
        seen.add(axis)
        if axis == "scale":
            errors.append("'scale' cannot be an axis; set the spec-wide "
                          "scale (or sweep a duration-like parameter)")
            continue
        if not values:
            errors.append(f"axis {axis!r} has no values")
        errors.extend(_check_values(experiment, axis, values))
    for name, value in spec.base:
        if name in seen and spec.mode != "ablate":
            # in ablate mode the base value IS the axis's baseline,
            # overridden one cell at a time — shadowing is the point
            errors.append(f"base parameter {name!r} shadows an axis")
        errors.extend(_check_values(experiment, name, (value,)))
    if spec.seeds:
        if "seed" in seen or any(n == "seed" for n, _ in spec.base):
            errors.append("'seeds' conflicts with an explicit seed "
                          "axis/base parameter")
        errors.extend(_check_values(experiment, "seed", spec.seeds))

    if spec.mode == "zip" and spec.axes:
        lengths = {axis: len(values) for axis, values in spec.axes}
        if len(set(lengths.values())) > 1:
            errors.append(f"zip mode needs equal-length axes, got {lengths}")
    if spec.mode == "ablate" and not spec.axes:
        errors.append("ablate mode without axes has nothing to ablate")
    return errors


def _hook_errors(hook: str) -> list[str]:
    """Resolve the ``module:function`` aggregate hook the way the sweep
    will call it, after every cell has run."""
    module, _, func = hook.partition(":")
    if not (module and func):
        return [f"aggregate hook {hook!r} must be 'module:function'"]
    try:
        fn = getattr(importlib.import_module(module), func, None)
    except ImportError as exc:
        return [f"aggregate hook {hook!r}: cannot import {module!r} "
                f"({exc})"]
    if not callable(fn):
        return [f"aggregate hook {hook!r}: {module!r} has no function "
                f"{func!r}"]
    return []


def _check_values(experiment: ExperimentSpec, name: str,
                  values: Any) -> list[str]:
    """Check candidate values the way the runner will: one
    :meth:`ExperimentSpec.validate_kwargs` call per value."""
    errors = []
    for value in values:
        try:
            experiment.validate_kwargs({name: value})
        except (TypeError, ValueError) as exc:
            errors.append(str(exc))
    return list(dict.fromkeys(errors))  # an unknown name once, not per value


def validate_spec(spec: SweepSpec) -> None:
    """Raise :class:`SweepValidationError` unless ``spec`` is valid."""
    errors = spec_errors(spec)
    if errors:
        raise SweepValidationError(spec.name or "<unnamed>", errors)
