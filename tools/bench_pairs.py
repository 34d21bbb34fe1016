#!/usr/bin/env python
"""Alternating parent/change pairs of one benchmark workload.

    python tools/bench_pairs.py PARENT CHANGE --workload hybrid_1e6 \\
        --pairs 10 --seed 401 --seconds 15
    python tools/bench_pairs.py . . --workload session_tcp_3rx --smoke

``PARENT`` and ``CHANGE`` are two checkouts of this repository.  Both
run from source, as a fresh checkout does: every ``__pycache__`` under
``src/`` and ``benchmarks/perf/`` is removed first, and every run starts
with ``PYTHONDONTWRITEBYTECODE=1``.  (A side that runs from ``.pyc``
files while the other runs from source reads as a ~25 % ``setup_s``
gap, and two byte-compiled sides read about 0.63x the ``setup_s`` of
fresh checkouts, which overstates any set-up gain.)  Pair ``i`` then
runs ``benchmarks/perf/run.py --workload W --seed SEED+i --seconds S
--trace 0`` in each checkout — the parent first in even pairs, the
change first in odd ones — so both sides of a pair simulate the same
seed and every pair has a fresh one.  ``--smoke`` runs ``run.py
--smoke`` instead of ``--seconds`` (a wiring check; the numbers are not
comparable).

Printed, for each end-to-end metric ``run.py`` reports to the driver:
each side's median and quartiles over the pairs, each pair's change ÷
parent ratio, how many pairs the change won (ties count for neither
side) and the verdict of the pairs rule: a **gain** (or a **loss**)
needs at least ten pairs, the change ahead (behind) in at least nine
tenths of them and the two medians further apart than the parent's
interquartile range; anything else is **unresolved**.

Exit status 1 when a run failed its output checks or the two sides of
a pair disagree on ``sim_digest`` or an exact counter (the change then
simulates something else, and its timing compares nothing); 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

#: fewest pairs a verdict other than "unresolved" rests on
MIN_PAIRS = 10
#: share of the pairs the change must win (or lose) for a verdict
WIN_SHARE = 0.9


def clear_bytecode(root: Path) -> None:
    for top in ("src", "benchmarks/perf"):
        for cache in list((root / top).rglob("__pycache__")):
            shutil.rmtree(cache)


def run_side(root: Path, args, seed: int, out: Path) -> dict:
    """One ``run.py`` invocation; returns the workload's document with
    the driver's metrics (the last stdout line) under ``"driver"``."""
    argv = [sys.executable, "benchmarks/perf/run.py",
            "--workload", args.workload, "--seed", str(seed),
            "--trace", "0", "--out", str(out)]
    argv += ["--smoke"] if args.smoke else ["--seconds", repr(args.seconds)]
    # no side writes bytecode that a later run would read
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(argv, cwd=root, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{root}: run.py exited {done.returncode} "
                           "with no output")
    doc = json.loads(out.read_text())["workloads"][args.workload]
    doc["driver"] = json.loads(lines[-1])
    return doc


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: list[float], change: list[float], higher: bool) -> dict:
    """The pairs rule over one metric's per-pair values."""
    wins = losses = 0
    for p, c in zip(parent, change):
        if c != p:
            if (c > p) == higher:
                wins += 1
            else:
                losses += 1
    n = len(parent)
    q1, q3 = quartiles(parent)
    apart = abs(statistics.median(change) - statistics.median(parent)) > q3 - q1
    if n < MIN_PAIRS:
        word = f"unresolved (fewer than {MIN_PAIRS} pairs)"
    elif apart and wins >= WIN_SHARE * n:
        word = "gain"
    elif apart and losses >= WIN_SHARE * n:
        word = "loss"
    else:
        word = "unresolved"
    return {"wins": wins, "losses": losses, "verdict": word}


def spread(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}-{q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1,
                        help="pair i runs seed SEED+i (default 1)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="run.py --seconds per run (default 15)")
    parser.add_argument("--smoke", action="store_true",
                        help="run.py --smoke instead of --seconds")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for root in sides.values():
        clear_bytecode(root)

    values: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    better: dict[str, str] = {}
    bad = False
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            docs = {side: run_side(sides[side], args, seed,
                                   Path(tmp) / f"{side}-{i}.json")
                    for side in order}
            notes = []
            for side, doc in docs.items():
                if doc["failed"]:
                    missed = [check for check, misses in doc["checks"].items()
                              if misses]
                    notes.append(f"{side} failed {doc['failed']}/"
                                 f"{doc['attempted']}: "
                                 + (", ".join(missed) or "unstable digest"))
            if docs["parent"]["sim_digest"] != docs["change"]["sim_digest"]:
                notes.append("sim_digest differs")
            counters = [key for key in docs["parent"]["counters"]
                        if docs["parent"]["counters"][key]
                        != docs["change"]["counters"].get(key)]
            if counters:
                notes.append("counters differ: " + ", ".join(counters))
            bad = bad or bool(notes)
            cells = []
            for metric, m in docs["parent"]["driver"]["metrics"].items():
                better[metric] = docs["parent"]["end_to_end"][metric]["better"]
                p = m["value"]
                c = docs["change"]["driver"]["metrics"][metric]["value"]
                values["parent"].setdefault(metric, []).append(p)
                values["change"].setdefault(metric, []).append(c)
                cells.append(f"{metric} {p:.6g} -> {c:.6g} ({c / p:.3f}x)")
            print(f"pair {i + 1} seed {seed} ({order[0]} first): "
                  + ", ".join(cells)
                  + ("; " + "; ".join(notes) if notes else
                     "; sim_digest and counters equal"), flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}")
    for metric, parent in values["parent"].items():
        change = values["change"][metric]
        ratios = [c / p for p, c in zip(parent, change)]
        result = verdict(parent, change, better[metric] == "higher")
        print(f"  {metric} ({better[metric]} is better): parent "
              f"{spread(parent)}, change {spread(change)}")
        print("    ratios " + " ".join(f"{r:.3f}" for r in ratios)
              + f", median {statistics.median(ratios):.3f}")
        print(f"    change won {result['wins']}/{args.pairs}, lost "
              f"{result['losses']}: {result['verdict']}")
    if bad:
        print("\nsome pair failed its checks or simulated differently")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
