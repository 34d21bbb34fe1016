"""``python -m repro.sweep`` — run declarative sweep/ablation specs.

Examples::

    python -m repro.sweep validate examples/sweeps/arena_matrix.toml
    python -m repro.sweep expand examples/sweeps/resilience_matrix.toml
    python -m repro.sweep run examples/sweeps/ci_smoke.toml \
        -j 2 --scale 0.05 --json report.json --report report.md

Exit status: 0 on success, 1 when any cell failed, 2 on
usage/validation errors (bad spec file, unknown experiment,
out-of-schema axis value).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from ..runner.cache import DEFAULT_CACHE_DIR
from ..runner.events import event_printer
from ..runner.manifest import save_manifest
from ..runner.orchestrator import (jobs_arg, retries_arg, scale_arg,
                                   timeout_arg)
from .expand import expand
from .report import render_markdown
from .run import sweep
from .spec import load_spec
from .validate import SweepValidationError, spec_errors

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Declarative sweep/ablation specs over the "
                    "experiment orchestrator.")
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser(
        "validate", help="check a spec against the experiment registry")
    validate.add_argument("spec", help="path to a .toml or .json sweep spec")

    show = sub.add_parser(
        "expand", help="print the expanded task matrix without running")
    show.add_argument("spec", help="path to a .toml or .json sweep spec")

    run = sub.add_parser("run", help="expand and run a spec")
    run.add_argument("spec", help="path to a .toml or .json sweep spec")
    run.add_argument("-j", "--jobs", type=jobs_arg, default=1,
                     help="worker processes, or 'auto' for one per core "
                          "(default: 1)")
    run.add_argument("--scale", type=scale_arg, default=None,
                     help="override the spec's scale (e.g. 0.05 for a "
                          "smoke run)")
    run.add_argument("--no-cache", action="store_true",
                     help="always recompute; do not touch the result cache")
    run.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                     help=f"cache location (default: {DEFAULT_CACHE_DIR})")
    run.add_argument("--manifest", default=None, metavar="PATH",
                     help="also write the run manifest (with the sweep "
                          "block) to PATH")
    run.add_argument("--json", default=None, metavar="PATH",
                     help="write the pgmcc.sweep-report/v1 JSON document")
    run.add_argument("--report", default=None, metavar="PATH",
                     help="write the markdown report (use '-' for stdout)")
    run.add_argument("--timeout", type=timeout_arg, default=1800.0,
                     help="per-cell timeout in seconds (default: 1800; "
                          "0 disables)")
    run.add_argument("--retries", type=retries_arg, default=1,
                     help="retries per failing cell (default: 1)")
    run.add_argument("--quiet", action="store_true",
                     help="suppress progress telemetry on stderr")
    return parser


def _load(path: str):
    """Spec from a path, with CLI-grade errors (None on failure)."""
    try:
        return load_spec(path)
    except (OSError, ValueError, TypeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _validate(path: str) -> int:
    spec = _load(path)
    if spec is None:
        return 2
    errors = spec_errors(spec)
    if errors:
        print(f"{path}: {len(errors)} problem(s)", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 2
    try:
        tasks = expand(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{path}: ok ({spec.name!r}: {len(tasks)} task(s) over "
          f"{spec.experiment}, mode {spec.mode})")
    return 0


def _expand(path: str) -> int:
    spec = _load(path)
    if spec is None:
        return 2
    try:
        tasks = expand(spec)
    except (SweepValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for task in tasks:
        kwargs = ", ".join(f"{k}={v!r}"
                           for k, v in task.spec.kwargs)
        print(f"{task.id:<50}  {kwargs}")
    print(f"{len(tasks)} task(s)")
    return 0


def _run(args: argparse.Namespace) -> int:
    spec = _load(args.spec)
    if spec is None:
        return 2
    errors = spec_errors(spec)
    if errors:
        print(f"{args.spec}: {len(errors)} problem(s)", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 2
    result = sweep(
        spec, jobs=args.jobs, scale=args.scale,
        cache_dir=None if args.no_cache else args.cache_dir,
        timeout=args.timeout, retries=args.retries,
        on_event=None if args.quiet else event_printer())

    if args.manifest:
        save_manifest(result.manifest, args.manifest)
    if args.json:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result.report, indent=2, sort_keys=True)
                        + "\n")
    markdown = render_markdown(result.report)
    if args.report == "-":
        print(markdown)
    elif args.report:
        path = Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(markdown + "\n")

    totals = result.report["totals"]
    print(f"{totals['ok']}/{totals['tasks']} ok, {totals['failed']} failed, "
          f"{result.report['run']['cache_hits']} cache hits")
    print(f"report digest: {result.report['report_digest']}")
    for cell in result.cells:
        if cell.status == "failed":
            print(f"--- FAILED {cell.task.id} ---", file=sys.stderr)
    return 0 if result.ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return _validate(args.spec)
    if args.command == "expand":
        return _expand(args.spec)
    return _run(args)
