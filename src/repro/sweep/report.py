"""The sweep report: a markdown rendering of a sweep's run manifest.

A sweep writes one document, the run manifest.  Its ``sweep`` block
holds what the sweep computed on top of the cells (spec, task axes,
``metrics``, ``axis_deltas``, ``ranked``, ``aggregate``; see
:mod:`repro.sweep.run`), and its ``results_digest`` is the same
whether the sweep ran ``-j1``, ``-jN`` or entirely from cache
(``tests/sweep`` asserts that equality).  :func:`render_markdown`
reads nothing but the manifest, so any saved manifest re-renders its
own report.
"""

from __future__ import annotations

from typing import Any

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
    return str(value)


def _table(headers: list[str], rows: list[list[Any]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines += ["| " + " | ".join(_fmt(v) for v in row) + " |"
              for row in rows]
    return lines


def render_markdown(manifest: dict[str, Any]) -> str:
    """Human-readable rendering of a sweep's run manifest."""
    block = manifest["sweep"]
    spec = block["spec"]
    totals = manifest["totals"]
    lines = [f"# Sweep report: {spec['name']}", ""]
    if spec.get("description"):
        lines += [spec["description"], ""]
    lines += [
        f"- experiment: `{spec['experiment']}` (mode `{spec['mode']}`, "
        f"scale {_fmt(manifest['scale'])})",
        f"- tasks: {totals['tasks']} ({totals['ok']} ok, "
        f"{totals['failed']} failed)",
        f"- results digest: `{manifest['results_digest']}`",
        "",
    ]

    metrics = block["metrics"]
    axis_names = sorted({name for axes in block["tasks"].values()
                         for name in axes})
    headers = ["task"] + axis_names + metrics + ["status"]
    rows = []
    for task in manifest["tasks"]:
        axes = block["tasks"][task["id"]]
        values = task["result"]["metrics"] if task["result"] else {}
        row: list[Any] = [f"`{task['id']}`"]
        row += [_fmt(axes.get(a, "")) for a in axis_names]
        row += [_fmt(values.get(m, "")) for m in metrics]
        row.append(task["status"] + (" (cached)" if task["cache_hit"]
                                     else ""))
        rows.append(row)
    lines += ["## Cells", ""] + _table(headers, rows) + [""]

    if block["axis_deltas"]:
        lines += ["## Per-axis deltas", "",
                  "Mean of each shared metric per axis value; deltas are "
                  "against the axis's first declared value.", ""]
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
