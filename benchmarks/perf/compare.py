"""``run.py compare A.json B.json``: is B (the change) no worse than A
(the parent)?

One row per (workload, end-to-end metric): each side's median and
quartiles, the relative worsening against the metric's bound, and a
verdict.  ``unresolved`` means the parent's own quartile spread is
wider than the bound and the two sides' samples overlap, so the runs
cannot tell.  Simulated-statistics identity (``sim_digest``, the exact
counters) is flagged per workload, and for a workload with a moved
metric the largest layer ``self_s`` and counter deltas are listed so
the movement can be traced to a layer.  Exit status: 0 nothing worse,
1 something worse, 2 the documents cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import catalog


def worsening(metric: dict, a: float, b: float) -> float:
    """Relative move of the median in the metric's bad direction."""
    delta = b - a if metric["better"] == "lower" else a - b
    if a == 0:  # failed_ratio: any increase from zero is unbounded
        return float("inf") if delta > 0 else 0.0
    return delta / abs(a)


def verdict(a: dict, b: dict) -> tuple[str, float]:
    bound = a["bound"]
    worse_by = worsening(a, a["median"], b["median"])
    spread = (a["q3"] - a["q1"]) / a["median"] if a["median"] else 0.0
    separated = b["max"] < a["min"] or b["min"] > a["max"]
    if spread > bound and not separated:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    # an improvement has to clear the parent's own run-to-run spread
    if worse_by < 0 and -worse_by > spread:
        return "better", worse_by
    return "same", worse_by


def layer_deltas(a: dict, b: dict, top: int = 8) -> list[str]:
    if "trace" not in a or "trace" not in b:
        return ["    (no traced run on both sides: rerun with --trace 1 "
                "to attribute the move)"]
    rows = []
    for layer in catalog.LAYERS:
        before = a["trace"]["layers"][layer]["self_s"]
        after = b["trace"]["layers"][layer]["self_s"]
        if before or after:
            rows.append((after - before, layer, before, after))
    rows.sort(key=lambda row: -abs(row[0]))
    return [f"    {layer + '.self_s':<32} {before:>9.4f} -> {after:>9.4f} s "
            f"({delta:+.4f})" for delta, layer, before, after in rows[:top]]


def counter_deltas(a: dict, b: dict) -> list[str]:
    return [f"    {key:<32} {a['counters'].get(key)} -> "
            f"{b['counters'].get(key)}"
            for key in catalog.COUNTERS
            if a["counters"].get(key) != b["counters"].get(key)]


def compare(a: dict, b: dict) -> int:
    any_worse = False
    print(f"A (parent) {a['host']['commit'][:12]} seed {a['host']['seed']}   "
         f"B (change) {b['host']['commit'][:12]} seed {b['host']['seed']}")
    if a["host"]["seed"] != b["host"]["seed"]:
        print("NOTE: different seeds -- sim_digest and counters will differ")
    header = (f"{'workload':<18} {'metric':<15} {'A median [q1,q3]':<34} "
              f"{'B median [q1,q3]':<34} {'worse by':>9} {'bound':>6}  verdict")
    print(header)
    for name in catalog.WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            print(f"{name:<18} missing on one side")
            continue
        moved = False
        for metric, ma in wa["end_to_end"].items():
            mb = wb["end_to_end"][metric]
            what, worse_by = verdict(ma, mb)
            moved |= what in ("better", "worse")
            any_worse |= what == "worse"

            def cell(m):
                return f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}]"

            print(f"{name:<18} {metric:<15} {cell(ma):<34} {cell(mb):<34} "
                 f"{100 * worse_by:>+8.1f}% {100 * ma['bound']:>5.0f}%  {what}")
        if wa["sim_digest"] != wb["sim_digest"]:
            print(f"  FLAG {name}: sim_digest differs "
                 f"({wa['sim_digest'][:12]} vs {wb['sim_digest'][:12]}) -- "
                 "the two sides did not simulate the same thing")
        changed = counter_deltas(wa, wb)
        if changed:
            print(f"  FLAG {name}: exact counters differ")
            for row in changed:
                print(row)
        if moved:
            print(f"  {name}: layer self_s deltas behind the move")
            for row in layer_deltas(wa, wb):
                print(row)
    return 1 if any_worse else 0


def load(path: Path) -> dict:
    doc = json.loads(path.read_text())
    if doc.get("schema") != "pgmcc.perf-bench/v1":
        raise ValueError(f"{path}: not a perf-bench result document")
    if doc.get("smoke"):
        raise ValueError(f"{path}: a --smoke run; its numbers are not "
                         "comparable")
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare",
                                     description=__doc__)
    parser.add_argument("a", type=Path, help="parent's result document")
    parser.add_argument("b", type=Path, help="the change's result document")
    args = parser.parse_args(argv)
    try:
        a, b = load(args.a), load(args.b)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"compare: {exc}\n")
        return 2
    return compare(a, b)
