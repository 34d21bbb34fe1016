"""Typed aggregation over expanded sweep cells.

Three first-class products, all deterministic given the cells:

* **per-axis deltas** — for every axis with more than one value,
  group the cells by that axis's value and compare the mean of every
  shared numeric metric against the axis's *first declared value* (the
  baseline).  This is the sweep-level answer to "what did changing X
  do, averaged over everything else?".
* **ranked table** — cells ordered by one metric
  (``spec.rank_by``), ascending by default (ranks are
  distances/scores more often than rewards).
* **custom aggregation** — a ``module:function`` hook named by the
  spec, for experiment-specific tables the generic machinery cannot
  know (e.g. the arena's fairness-ranked controller table).  The hook
  receives ``[(axes_dict, ExperimentResult), ...]`` and returns a dict
  with optional ``rows`` / ``metrics`` keys.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Optional

from ..experiments.common import ExperimentResult
from .expand import SweepTask
from .spec import SweepSpec

__all__ = [
    "SweepCell",
    "axis_deltas",
    "collect_cells",
    "ranked_rows",
    "run_custom_aggregate",
    "shared_numeric_metrics",
]


@dataclass
class SweepCell:
    """One task joined with its outcome."""

    task: SweepTask
    status: str
    result: Optional[ExperimentResult]

    @property
    def ok(self) -> bool:
        return self.status == "ok" and self.result is not None


def collect_cells(tasks: list[SweepTask], outcomes) -> list[SweepCell]:
    """Join expanded tasks with orchestrator outcomes, task order."""
    by_id = {o.id: o for o in outcomes}
    cells = []
    for task in tasks:
        outcome = by_id[task.id]
        cells.append(SweepCell(task=task, status=outcome.status,
                               result=outcome.result))
    return cells


def _numeric(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def shared_numeric_metrics(cells: list[SweepCell],
                           wanted: tuple[str, ...] = ()) -> list[str]:
    """Metric names carried by *every* ok cell with a numeric value.

    ``wanted`` restricts (and orders) the selection; otherwise all
    shared numeric metrics, sorted by name.
    """
    ok = [c for c in cells if c.ok]
    if not ok:
        return []
    shared: Optional[set[str]] = None
    for cell in ok:
        keys = {k for k, v in cell.result.metrics.items() if _numeric(v)}
        shared = keys if shared is None else shared & keys
    shared = shared or set()
    if wanted:
        return [name for name in wanted if name in shared]
    return sorted(shared)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def axis_deltas(spec: SweepSpec, cells: list[SweepCell]) -> list[dict]:
    """Per-axis deltas of every shared numeric metric (see module doc).

    One entry per axis with >1 distinct declared value (the implicit
    ``seeds`` axis included); each entry carries per-value group means
    and their delta against the axis's first declared value.
    """
    metrics = shared_numeric_metrics(cells, spec.metrics)
    axes: list[tuple[str, tuple[Any, ...]]] = [
        (name, values) for name, values in spec.axes if len(values) > 1]
    if len(spec.seeds) > 1:
        axes.append(("seed", spec.seeds))
    out: list[dict] = []
    for axis, declared in axes:
        groups = []
        baseline_means: dict[str, float] = {}
        for value in declared:
            members = [c for c in cells
                       if c.ok and c.task.axes_dict.get(axis) == value]
            if not members:
                continue
            means = {m: round(_mean([c.result.metrics[m] for c in members]),
                              6)
                     for m in metrics}
            group = {"value": value, "n": len(members), "means": means}
            if not groups:
                baseline_means = means
            else:
                group["deltas"] = {
                    m: round(means[m] - baseline_means[m], 6)
                    for m in metrics}
            groups.append(group)
        if groups:
            out.append({"axis": axis, "baseline": groups[0]["value"],
                        "groups": groups})
    return out


def ranked_rows(spec: SweepSpec, cells: list[SweepCell]) -> list[dict]:
    """Cells ranked by ``spec.rank_by`` (empty when unset or when no
    cell carries the metric).  Ties break on the task id."""
    if not spec.rank_by:
        return []
    scored = [(c.result.metrics[spec.rank_by], c)
              for c in cells if c.ok and spec.rank_by in c.result.metrics
              and _numeric(c.result.metrics[spec.rank_by])]
    scored.sort(key=lambda sc: ((-sc[0] if spec.rank_descending else sc[0]),
                                sc[1].task.id))
    return [
        {"rank": rank, "task": cell.task.id, **cell.task.axes_dict,
         spec.rank_by: score}
        for rank, (score, cell) in enumerate(scored, start=1)
    ]


def run_custom_aggregate(spec: SweepSpec,
                         cells: list[SweepCell]) -> Optional[dict]:
    """Resolve and run the spec's ``module:function`` hook (None when
    the spec names none; ``spec_errors`` has checked that it resolves).
    The hook sees only ok cells."""
    if not spec.aggregate:
        return None
    module, _, func = spec.aggregate.partition(":")
    fn = getattr(importlib.import_module(module), func)
    payload = [(c.task.axes_dict, c.result) for c in cells if c.ok]
    out = fn(payload)
    if not isinstance(out, dict):
        raise TypeError(f"aggregate hook {spec.aggregate!r} returned "
                        f"{type(out).__name__}, expected dict")
    unknown = sorted(set(out) - {"rows", "metrics"})
    if unknown:
        raise ValueError(f"aggregate hook {spec.aggregate!r} returned "
                         f"unknown key(s): {', '.join(unknown)}")
    return out

