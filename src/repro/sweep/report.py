"""Sweep reports: one JSON document, one markdown rendering.

The report splits, like the run manifest, into *what was computed*
(spec, expanded cells, per-cell result digests and metrics, axis
deltas, ranked table, custom aggregate) and *how this run went* (cache
hits, wall times).  ``report_digest`` covers only the first group, so
the same spec at the same scale yields a byte-identical digest whether
it ran ``-j1``, ``-jN`` or entirely from cache (``tests/sweep``
asserts that equality).  The deterministic sections also ride in the
run manifest's ``sweep`` block (see :mod:`repro.sweep.run`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..experiments.common import canonical_json
from .aggregate import (
    SweepCell,
    axis_deltas,
    ranked_rows,
    run_custom_aggregate,
    shared_numeric_metrics,
)
from .spec import SweepSpec

__all__ = ["SWEEP_REPORT_SCHEMA", "build_report", "render_markdown",
           "report_digest"]

SWEEP_REPORT_SCHEMA = "pgmcc.sweep-report/v1"

#: per-task report keys that vary run to run and are excluded from the
#: report digest (everything else in a task row is deterministic)
_VOLATILE_TASK_KEYS = ("cache_hit", "wall_s")
_VOLATILE_TOP_KEYS = ("run", "report_digest")


def report_digest(report: dict[str, Any]) -> str:
    """Digest over the deterministic sections only (see module doc)."""
    doc = {k: v for k, v in report.items() if k not in _VOLATILE_TOP_KEYS}
    doc["tasks"] = [
        {k: v for k, v in task.items() if k not in _VOLATILE_TASK_KEYS}
        for task in report["tasks"]]
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def build_report(spec: SweepSpec, cells: list[SweepCell],
                 manifest: dict[str, Any]) -> dict[str, Any]:
    """Assemble the full sweep-report document."""
    metrics = shared_numeric_metrics(cells, spec.metrics)
    tasks = []
    for cell in cells:
        row: dict[str, Any] = {
            "id": cell.task.id,
            "axes": cell.task.axes_dict,
            "status": cell.status,
            "result_digest": cell.result_digest,
            "cache_hit": cell.cache_hit,
            "wall_s": round(cell.wall_s, 3),
        }
        if cell.ok:
            row["metrics"] = {m: cell.result.metrics[m] for m in metrics}
        tasks.append(row)

    report: dict[str, Any] = {
        "schema": SWEEP_REPORT_SCHEMA,
        "spec": spec.to_dict(),
        "scale": spec.scale,
        "metrics": metrics,
        "tasks": tasks,
        "totals": {
            "tasks": len(cells),
            "ok": sum(1 for c in cells if c.ok),
            "failed": sum(1 for c in cells if c.status == "failed"),
        },
        "axis_deltas": axis_deltas(spec, cells),
        "ranked": ranked_rows(spec, cells),
        "results_digest": manifest.get("results_digest"),
    }
    aggregate = run_custom_aggregate(spec, cells)
    if aggregate is not None:
        report["aggregate"] = aggregate
    report = json.loads(canonical_json(report))

    # the volatile section last, outside the digest
    report["run"] = {
        "run_id": manifest.get("run_id"),
        "jobs": manifest.get("jobs"),
        "cache_hits": sum(1 for c in cells if c.cache_hit),
        "wall_s": manifest.get("totals", {}).get("wall_s"),
    }
    report["report_digest"] = report_digest(report)
    return report


# -- markdown rendering ---------------------------------------------------


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _table(headers: list[str], rows: list[list[Any]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines += ["| " + " | ".join(_fmt(v) for v in row) + " |"
              for row in rows]
    return lines


def render_markdown(report: dict[str, Any]) -> str:
    """Human-readable rendering of a sweep-report document."""
    spec = report["spec"]
    totals = report["totals"]
    lines = [f"# Sweep report: {spec['name']}", ""]
    if spec.get("description"):
        lines += [spec["description"], ""]
    lines += [
        f"- experiment: `{spec['experiment']}` (mode `{spec['mode']}`, "
        f"scale {_fmt(report['scale'])})",
        f"- tasks: {totals['tasks']} ({totals['ok']} ok, "
        f"{totals['failed']} failed)",
        f"- report digest: `{report['report_digest']}`",
        "",
    ]

    metrics = report["metrics"]
    axis_names = sorted({name for task in report["tasks"]
                         for name in task["axes"]})
    headers = ["task"] + axis_names + metrics + ["status"]
    rows = []
    for task in report["tasks"]:
        row: list[Any] = [f"`{task['id']}`"]
        row += [_fmt(task["axes"].get(a, "")) for a in axis_names]
        row += [_fmt(task.get("metrics", {}).get(m, "")) for m in metrics]
        row.append(task["status"] + (" (cached)" if task["cache_hit"]
                                     else ""))
        rows.append(row)
    lines += ["## Cells", ""] + _table(headers, rows) + [""]

    if report["axis_deltas"]:
        lines += ["## Per-axis deltas", "",
                  "Mean of each shared metric per axis value; deltas are "
                  "against the axis's first declared value.", ""]
        for entry in report["axis_deltas"]:
            lines += [f"### axis `{entry['axis']}` "
                      f"(baseline `{_fmt(entry['baseline'])}`)", ""]
            headers = ["value", "n"] + [f"{m}" for m in metrics] \
                + [f"Δ {m}" for m in metrics]
            rows = []
            for group in entry["groups"]:
                row = [_fmt(group["value"]), group["n"]]
                row += [_fmt(group["means"].get(m, "")) for m in metrics]
                deltas = group.get("deltas", {})
                row += [_fmt(deltas.get(m, "")) if deltas else ""
                        for m in metrics]
                rows.append(row)
            lines += _table(headers, rows) + [""]

    if report["ranked"]:
        rank_by = spec["report"]["rank_by"]
        lines += [f"## Ranked by `{rank_by}`", ""]
        rest = sorted(set(report["ranked"][0]) - {"rank", "task"})
        headers = ["rank", "task"] + rest
        rows = [[_fmt(row[h]) for h in headers] for row in report["ranked"]]
        lines += _table(headers, rows) + [""]

    aggregate = report.get("aggregate")
    if aggregate:
        lines += ["## Aggregate", ""]
        if aggregate.get("metrics"):
            rows = [[f"`{k}`", _fmt(v)]
                    for k, v in sorted(aggregate["metrics"].items())]
            lines += _table(["metric", "value"], rows) + [""]
        if aggregate.get("rows"):
            headers = sorted({k for row in aggregate["rows"] for k in row})
            rows = [[_fmt(row.get(h, "")) for h in headers]
                    for row in aggregate["rows"]]
            lines += _table(headers, rows) + [""]
        if aggregate.get("markdown"):
            lines += [str(aggregate["markdown"]), ""]
    return "\n".join(lines)
