"""Scale-series perf-regression gate.

Compares the hybrid scale ladder's ``receivers_per_sec`` series in a
freshly produced bench-results artifact (``--measured``, written by
``python -m repro.runner --bench-json``) against the committed one in
``results/BENCH_RESULTS.json``:

* **fail** (exit 1) when a cell present in both regressed more than
  ``--scale-regression`` (default 50 %) below the baseline;
* a cell the baseline lacks **seeds** it and never fails;
* **ok** otherwise.

Point ``--baseline`` at the committed trajectory point, not at a file
the same run just rewrote::

    python -m repro.runner.perf_gate --baseline results/BENCH_RESULTS.json \
        --measured /tmp/bench.json

This gates one sweep's own scale cells; the repo's speed is measured
by ``benchmarks/perf``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Optional


def evaluate_series(
    measured: dict[str, dict[str, Any]],
    baseline: dict[str, dict[str, Any]],
    regression_threshold: float = 0.50,
    key: str = "receivers_per_sec",
) -> dict[str, Any]:
    """Gate a per-cell metric series (the hybrid scale ladder).

    A series entry present in ``measured`` but missing from
    ``baseline`` — the first run of a new probe — is a **seed
    baseline**, not a regression: it gets status ``"seed"`` and never
    fails the gate.  Only cells present in *both* are compared, and a
    cell regresses when ``measured < baseline * (1 - threshold)``.
    The default threshold is loose (50 %) because scale cells run real
    protocol workloads on shared runners, not a microbenchmark.
    """
    if regression_threshold <= 0 or regression_threshold >= 1:
        raise ValueError("regression_threshold must be in (0, 1)")
    cells: dict[str, dict[str, Any]] = {}
    status = "ok"
    reasons = []
    for cell, metrics in measured.items():
        value = metrics.get(key)
        base_entry = baseline.get(cell, {})
        base = base_entry.get(key)
        if value is None:
            continue
        if base is None:
            cells[cell] = {"status": "seed", "measured": value,
                           "baseline": None}
            continue
        floor = base * (1.0 - regression_threshold)
        if value < floor:
            cells[cell] = {"status": "fail", "measured": value,
                           "baseline": base, "floor": floor}
            status = "fail"
            reasons.append(
                f"scale cell {cell}: {key} {value:,.0f} regressed more "
                f"than {regression_threshold:.0%} below the baseline "
                f"{base:,.0f} (floor {floor:,.0f})"
            )
        else:
            cells[cell] = {"status": "ok", "measured": value,
                           "baseline": base, "floor": floor}
    seeded = sum(1 for c in cells.values() if c["status"] == "seed")
    return {"status": status, "cells": cells, "seeded": seeded,
            "reasons": reasons}


def load_scale_baseline(path: str) -> dict[str, dict[str, Any]]:
    """``scale_metrics`` from a bench-results artifact.  An artifact
    that predates the field (or has no hybrid cells) yields ``{}`` —
    every measured cell then seeds the baseline instead of failing."""
    with open(path) as fh:
        doc = json.load(fh)
    series = doc.get("scale_metrics")
    return dict(series) if isinstance(series, dict) else {}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner.perf_gate",
        description="fail CI when a hybrid scale cell regresses",
    )
    parser.add_argument("--baseline", default="results/BENCH_RESULTS.json",
                        help="committed bench-results artifact to gate against")
    parser.add_argument("--measured", required=True,
                        help="freshly produced bench-results artifact; "
                             "its scale_metrics series is gated against "
                             "the baseline's (missing baseline cells "
                             "seed, they do not fail)")
    parser.add_argument("--scale-regression", type=float, default=0.50,
                        help="fatal fractional drop per scale cell "
                             "(default 0.50)")
    args = parser.parse_args(argv)

    try:
        measured_series = load_scale_baseline(args.measured)
    except FileNotFoundError:
        print(f"perf-gate: no measured artifact at {args.measured}; "
              "skipping scale-series gate")
        measured_series = {}
    try:
        baseline_series = load_scale_baseline(args.baseline)
    except FileNotFoundError:
        print(f"perf-gate: no baseline at {args.baseline}; "
              "every measured cell seeds it")
        baseline_series = {}
    series = evaluate_series(measured_series, baseline_series,
                             regression_threshold=args.scale_regression)
    for cell, info in series["cells"].items():
        tag = info["status"].upper()
        if info["status"] == "seed":
            tag = "SEED-BASELINE"
        print(f"perf-gate: scale cell {cell}: "
              f"{info['measured']:,.0f} rx/s -> {tag}")
    for reason in series["reasons"]:
        print(f"perf-gate: {reason}")
    return 1 if series["status"] == "fail" else 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
