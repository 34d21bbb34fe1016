"""The sweep report: a markdown rendering of a run manifest's studies.

A run writes one document, the run manifest.  Each block of its
``studies`` object holds what the run computed on top of one study's
cells (spec, task axes, ``metrics``, ``axis_deltas``, ``ranked``,
``aggregate``; see :mod:`repro.sweep.run`), and its ``results_digest``
is the same whether the run went ``-j1``, ``-jN`` or entirely from
cache (``tests/sweep`` asserts that equality).  :func:`render_markdown`
reads nothing but the manifest, so any saved manifest re-renders its
own report.
"""

from __future__ import annotations

from typing import Any

from .aggregate import _numeric

__all__ = ["render_markdown", "report_digest"]


# ``benchmarks/perf/child.py`` still calls ``report_digest(run.report)``:
# a name for the manifest's digest until the harness moves (ROADMAP item 2)
def report_digest(doc: dict[str, Any]) -> str:
    return doc["results_digest"]


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, dict):  # an aggregate metric per key
        return ", ".join(f"{k}={_fmt(v)}" for k, v in value.items())
    return str(value)


def _table(headers: list[str], rows: list[list[Any]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines += ["| " + " | ".join(_fmt(v) for v in row) + " |"
              for row in rows]
    return lines


def render_markdown(manifest: dict[str, Any]) -> str:
    """Human-readable rendering of every study block of a run
    manifest, in name order."""
    return "\n".join(_render_study(manifest, name)
                     for name in sorted(manifest["studies"]))


def _render_study(manifest: dict[str, Any], name: str) -> str:
    block = manifest["studies"][name]
    spec = block["spec"]
    tasks = [task for task in manifest["tasks"]
             if task["id"] in block["tasks"]]
    status = [task["status"] for task in tasks]
    lines = [f"# Sweep report: {spec['name']}", ""]
    if spec.get("description"):
        lines += [spec["description"], ""]
    lines += [
        f"- experiment: `{spec['experiment']}` (mode `{spec['mode']}`, "
        f"scale {_fmt(spec['scale'])})",
        f"- tasks: {len(tasks)} ({status.count('ok')} ok, "
        f"{status.count('failed')} failed)",
        f"- results digest: `{manifest['results_digest']}`",
        "",
    ]

    metrics = block["metrics"]  #: shared by every ok cell
    # the metrics the spec names, else any ok cell's (blank if absent)
    shown = spec["report"]["metrics"] or sorted({
        name for task in tasks if task["status"] == "ok"
        for name, value in task["result"]["metrics"].items()
        if _numeric(value)})
    axis_names = sorted({name for axes in block["tasks"].values()
                         for name in axes})
    headers = ["task"] + axis_names + shown + ["status"]
    rows = []
    for task in tasks:
        axes = block["tasks"][task["id"]]
        values = task["result"]["metrics"] if task["result"] else {}
        row: list[Any] = [f"`{task['id']}`"]
        row += [_fmt(axes.get(a, "")) for a in axis_names]
        row += [_fmt(values.get(m, "")) for m in shown]
        row.append(task["status"] + (" (cached)" if task["cache_hit"]
                                     else ""))
        rows.append(row)
    lines += ["## Cells", ""] + _table(headers, rows) + [""]

    if block["axis_deltas"]:
        lines += ["## Per-axis deltas", "",
                  "Mean of each shared metric per axis value; deltas are "
                  "against the axis's first declared value (in ablate "
                  "mode, the base cell).", ""]
        for entry in block["axis_deltas"]:
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

    if block["ranked"]:
        rank_by = spec["report"]["rank_by"]
        lines += [f"## Ranked by `{rank_by}`", ""]
        rest = sorted(set(block["ranked"][0]) - {"rank", "task"})
        headers = ["rank", "task"] + rest
        rows = [[_fmt(row[h]) for h in headers] for row in block["ranked"]]
        lines += _table(headers, rows) + [""]

    aggregate = block.get("aggregate")
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
    return "\n".join(lines)
