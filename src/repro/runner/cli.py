"""``python -m repro.runner`` — the parallel, cached experiment sweep.

Examples::

    python -m repro.runner --list
    python -m repro.runner -j auto                 # full report, all cores
    python -m repro.runner -j 4 --scale 0.1        # smoke sweep
    python -m repro.runner EXP-F3 EXP-F4 --no-cache
    python -m repro.runner -j auto --scale 0.1 --manifest results/run.json

Exit status: 0 when every task succeeded, 1 when any task is reported
failed, 2 on usage errors (e.g. an unknown experiment id).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from ..experiments.registry import get_experiment, registered_specs
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .events import event_printer
from .manifest import save_manifest, session_metrics_from_manifest
from .orchestrator import (Orchestrator, jobs_arg, retries_arg, scale_arg,
                           timeout_arg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Parallel experiment orchestrator with "
                    "content-addressed result caching.")
    parser.add_argument("experiments", nargs="*", metavar="EXP-ID",
                        help="subset of experiment ids (default: all; "
                             "see --list); a leading 'run' token and "
                             "lowercase/underscore id spellings are accepted")
    parser.add_argument("-j", "--jobs", type=jobs_arg, default=1,
                        help="worker processes, or 'auto' for one per core "
                             "(default: 1)")
    parser.add_argument("--scale", type=scale_arg, default=1.0,
                        help="fraction of paper-faithful durations "
                             "(default: 1.0)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always recompute; do not read or write the "
                             "result cache")
    parser.add_argument("--cache-dir", default=str(DEFAULT_CACHE_DIR),
                        help=f"cache location (default: {DEFAULT_CACHE_DIR})")
    parser.add_argument("--manifest", default=None, metavar="PATH",
                        help="where to write the run manifest "
                             "(default: results/manifest-<run_id>.json)")
    parser.add_argument("--session-metrics", default=None, metavar="PATH",
                        help="also write the sweep's pgmcc.session-metrics/v1 "
                             "documents (one JSON array, task order)")
    parser.add_argument("--timeout", type=timeout_arg, default=1800.0,
                        help="per-task wall-clock timeout in seconds "
                             "(default: 1800; 0 disables)")
    parser.add_argument("--retries", type=retries_arg, default=1,
                        help="retries per failing task (default: 1)")
    parser.add_argument("--list", action="store_true",
                        help="print the experiment registry and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress telemetry on stderr")
    parser.add_argument("--no-report", action="store_true",
                        help="skip the per-experiment report tables")
    return parser


def _format_param(doc: dict) -> str:
    """One ``--list`` schema line from a ParamSpec doc."""
    text = f"{doc['name']}: {doc['type']}"
    if "default" in doc:
        text += f" = {doc['default']}"
    constraints = []
    if "choices" in doc:
        constraints.append("one of " + ", ".join(map(str, doc["choices"])))
    if "low" in doc:
        constraints.append(f">= {doc['low']}")
    if "high" in doc:
        constraints.append(f"<= {doc['high']}")
    if constraints:
        text += f"  ({'; '.join(constraints)})"
    if doc.get("help"):
        text += f"  -- {doc['help']}"
    return text


def list_registry(file=None) -> None:
    out = file or sys.stdout
    specs = registered_specs(include_hidden=True)
    width = max(len(spec.id) for spec in specs)
    for spec in specs:
        target = f"{spec.module.rsplit('.', 1)[-1]}.{spec.func}"
        tag = " [sweep-cell]" if spec.hidden else ""
        print(f"{spec.id:<{width}}  x{spec.scale_factor:<4g} "
              f"{target:<28} {spec.description}{tag}", file=out)
        for doc in spec.schema_doc():
            print(f"{'':<{width}}    {_format_param(doc)}", file=out)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        list_registry()
        return 0
    experiments = args.experiments
    if experiments and experiments[0] == "run":
        # ``python -m repro.runner run EXP-ID ...``: tolerate the
        # subcommand-style spelling (common muscle memory from other
        # runners); ids themselves are normalized in get_experiment.
        experiments = experiments[1:]
    try:
        specs = ([get_experiment(exp_id) for exp_id in experiments]
                 or registered_specs())
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    run_id = time.strftime("run-%Y%m%d-%H%M%S")

    orch = Orchestrator(
        specs, scale=args.scale, jobs=args.jobs, cache=cache,
        timeout=args.timeout, retries=args.retries,
        on_event=None if args.quiet else event_printer())
    manifest = orch.run(run_id=run_id)

    manifest_path = Path(args.manifest or
                         Path("results") / f"manifest-{run_id}.json")
    save_manifest(manifest, manifest_path)

    if args.session_metrics:
        docs = session_metrics_from_manifest(manifest)
        metrics_path = Path(args.session_metrics)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(json.dumps(docs, indent=2, sort_keys=True)
                                + "\n")
        if not docs:
            print("warning: no session-metrics documents in this sweep "
                  f"(wrote empty array to {metrics_path})", file=sys.stderr)

    if not args.no_report:
        for outcome in orch.outcomes:
            if outcome.result is not None:
                print(f"\n##### {outcome.id} (wall {outcome.wall_s:.1f}s"
                      f"{', cached' if outcome.cache_hit else ''})")
                print(outcome.result.report())

    totals = manifest["totals"]
    print(f"\n{totals['ok']}/{totals['tasks']} ok, "
          f"{totals['failed']} failed, {totals['cache_hits']} cache hits; "
          f"wall {totals['wall_s']:.1f}s, serial {totals['serial_wall_s']:.1f}s"
          f" (speedup {totals['speedup']}x)")
    print(f"manifest: {manifest_path}")
    print(f"results digest: {manifest['results_digest']}")
    for outcome in orch.outcomes:
        if outcome.status == "failed":
            print(f"\n--- FAILED {outcome.id} "
                  f"({outcome.error['type']}: {outcome.error['message']}) ---")
            if outcome.error["traceback"]:
                print(outcome.error["traceback"], end="")
    return 1 if totals["failed"] else 0
