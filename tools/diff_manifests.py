#!/usr/bin/env python
"""Diff two run manifests leaf by leaf: did a change alter any result?

``python -m repro.runner --manifest PATH`` writes one document per run;
its ``results_digest`` says *whether* two runs agree, this says *where*
they do not.  Tasks are matched by id and every leaf of each task is
compared; each block of the manifest's ``studies`` object (spec, task
axes, axis deltas, ranking, aggregate table) is compared as one more
task, named ``studies.NAME``.  Skipped is what legitimately differs
between two runs of the same simulation:

* how the run went — the per-task ``wall_s``, ``worker``, ``attempts``
  and ``cache_hit`` fields;
* ``result_digest`` — a hash of the leaves compared here, so it carries
  no information of its own once one of them is ignored;
* the keys given with ``--ignore``: a leaf is skipped when its dotted
  path below the task equals ``KEY`` or ends in ``.KEY``.

Usage::

    python tools/diff_manifests.py PARENT.json CHANGE.json \\
        --ignore telemetry.counters.net.events_processed

Prints one line per differing leaf (``task: path: parent -> change``)
and one per task that only one side has (``task: only in parent`` or
``task: only in change``), and exits 1 if there is one, 0 with no
output otherwise; 2 when a file cannot be read as a manifest.
"""

from __future__ import annotations

import argparse
import json
import sys

#: per-task fields that describe the run, not the result
RUN_FIELDS = {"wall_s", "worker", "attempts", "cache_hit", "result_digest"}


def leaves(node, path=()):
    """Yield ``(dotted_path, value)`` for every scalar under ``node``."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield ".".join(path), node
        return
    for key, value in items:
        if not path and key in RUN_FIELDS:
            continue
        yield from leaves(value, path + (str(key),))


def entries(doc: dict) -> dict:
    """Task id -> task, then ``studies.NAME`` -> each study's block."""
    out = {task["id"]: task for task in doc["tasks"]}
    for name, block in doc.get("studies", {}).items():
        out[f"studies.{name}"] = block
    return out


def diff_manifests(parent: dict, change: dict, ignore=()) -> list[str]:
    """Every differing leaf, and every task one side lacks, as a
    printable line, in task order."""
    suffixes = tuple("." + key for key in ignore)
    tasks = [entries(doc) for doc in (parent, change)]
    lines = []
    for task_id in dict.fromkeys([*tasks[0], *tasks[1]]):
        if task_id not in tasks[1]:
            lines.append(f"{task_id}: only in parent")
            continue
        if task_id not in tasks[0]:
            lines.append(f"{task_id}: only in change")
            continue
        sides = [dict(leaves(side[task_id])) for side in tasks]
        for path in dict.fromkeys([*sides[0], *sides[1]]):
            if path in ignore or path.endswith(suffixes):
                continue
            a, b = (side.get(path, "<missing>") for side in sides)
            if a != b:
                lines.append(f"{task_id}: {path}: {a!r} -> {b!r}")
    return lines


def load(name: str) -> dict:
    """The manifest at ``name``; ``ValueError`` names a file that is
    not one."""
    try:
        with open(name) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None
    if not (isinstance(doc, dict) and isinstance(doc.get("tasks"), list)):
        raise ValueError(f"{name}: not a run manifest (no 'tasks' list)")
    seen = set()
    for i, task in enumerate(doc["tasks"]):
        if not (isinstance(task, dict) and isinstance(task.get("id"), str)):
            raise ValueError(f"{name}: task {i} is not an object with a "
                             "string 'id'")
        if task["id"] in seen:
            raise ValueError(f"{name}: task id {task['id']!r} appears twice")
        seen.add(task["id"])
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--ignore", nargs="*", default=[], metavar="KEY",
                        help="dotted leaf path (or path suffix) to skip")
    args = parser.parse_args(argv)
    try:
        docs = [load(name) for name in (args.parent, args.change)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = diff_manifests(*docs, ignore=tuple(args.ignore))
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
