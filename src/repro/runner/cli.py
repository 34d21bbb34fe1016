"""``python -m repro.runner`` — the parallel, cached experiment runner.

It runs registered experiments by id, or one declarative sweep spec
(a ``.toml`` or ``.json`` file; see docs/SWEEPS.md), never both.

Examples::

    python -m repro.runner --list
    python -m repro.runner -j auto                 # full report, all cores
    python -m repro.runner -j 4 --scale 0.1        # smoke sweep
    python -m repro.runner EXP-F3 EXP-F4 --no-cache
    python -m repro.runner -j auto --scale 0.1 --manifest results/run.json
    python -m repro.runner --list examples/sweeps/arena_matrix.toml
    python -m repro.runner examples/sweeps/ci_smoke.toml -j 2 --scale 0.05

A spec is validated before anything runs; ``--list SPEC`` prints its
expanded task list.  Exit status: 0 when every task succeeded, 1 when
any task is reported failed, 2 on usage errors (an unknown experiment
id; an invalid, unreadable or wrongly shaped spec; ids mixed with a
spec, or two specs).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..experiments.registry import get_experiment, registered_specs
from ..sweep import (SweepValidationError, expand, load_spec,
                     render_markdown, sweep)
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .events import event_printer
from .manifest import save_manifest, session_metrics_from_manifest
from .orchestrator import (Orchestrator, jobs_arg, retries_arg, scale_arg,
                           timeout_arg)

#: a positional with one of these suffixes names a sweep spec file
SPEC_SUFFIXES = (".toml", ".json")


class UsageError(Exception):
    """A command line that names nothing runnable: exit status 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Parallel experiment orchestrator with "
                    "content-addressed result caching.")
    parser.add_argument("experiments", nargs="*", metavar="EXP-ID|SPEC",
                        help="experiment ids (default: all; see --list; a "
                             "leading 'run' token and lowercase/underscore "
                             "id spellings are accepted) or one .toml/.json "
                             "sweep spec")
    parser.add_argument("-j", "--jobs", type=jobs_arg, default=1,
                        help="worker processes, or 'auto' for one per core "
                             "(default: 1)")
    parser.add_argument("--scale", type=scale_arg, default=None,
                        help="fraction of paper-faithful durations "
                             "(default: 1.0, or a spec's own scale)")
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
                        help="print the experiment registry, or a spec's "
                             "expanded task list, and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress telemetry on stderr")
    parser.add_argument("--no-report", action="store_true",
                        help="skip the per-experiment report tables or the "
                             "sweep report")
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


def _load_sweep(path: str):
    """The spec at ``path`` and its expanded tasks; every problem with
    it — unreadable, wrongly shaped, invalid — is a ``UsageError``."""
    try:
        spec = load_spec(path)
        return spec, expand(spec)
    except SweepValidationError as exc:
        raise UsageError("\n".join(
            [f"{path}: {len(exc.errors)} problem(s)",
             *(f"  - {error}" for error in exc.errors)])) from None
    except (OSError, ValueError, TypeError, RuntimeError) as exc:
        raise UsageError(f"error: {exc}") from None


def _list_tasks(path: str) -> None:
    spec, tasks = _load_sweep(path)
    for task in tasks:
        kwargs = ", ".join(f"{k}={v!r}" for k, v in task.spec.kwargs)
        print(f"{task.id:<50}  {kwargs}")
    print(f"{path}: {len(tasks)} task(s) over {spec.experiment}, "
          f"mode {spec.mode}")


def _run_sweep(args: argparse.Namespace, path: str) -> tuple[dict, list[str]]:
    """Run the spec at ``path``: its manifest and markdown report."""
    spec, _ = _load_sweep(path)
    run = sweep(spec, jobs=args.jobs, scale=args.scale,
                cache_dir=None if args.no_cache else args.cache_dir,
                timeout=args.timeout, retries=args.retries,
                on_event=None if args.quiet else event_printer())
    return run.manifest, [render_markdown(run.manifest)]


def _run_experiments(args: argparse.Namespace,
                     ids: list[str]) -> tuple[dict, list[str]]:
    """Run registered experiments: the manifest and one report table
    per experiment that produced a result."""
    try:
        specs = ([get_experiment(exp_id) for exp_id in ids]
                 or registered_specs())
    except KeyError as exc:
        raise UsageError(f"error: {exc.args[0]}") from None
    orch = Orchestrator(
        specs, scale=1.0 if args.scale is None else args.scale,
        jobs=args.jobs,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        timeout=args.timeout, retries=args.retries,
        on_event=None if args.quiet else event_printer())
    manifest = orch.run()
    report = []
    for outcome in orch.outcomes:
        if outcome.result is not None:
            report += [f"\n##### {outcome.id} (wall {outcome.wall_s:.1f}s"
                       f"{', cached' if outcome.cache_hit else ''})",
                       outcome.result.report()]
    return manifest, report


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    names = args.experiments
    if names and names[0] == "run":
        # ``python -m repro.runner run EXP-ID ...``: tolerate the
        # subcommand-style spelling (common muscle memory from other
        # runners); ids themselves are normalized in get_experiment.
        names = names[1:]
    try:
        if not any(name.endswith(SPEC_SUFFIXES) for name in names):
            if args.list:
                list_registry()
                return 0
            manifest, report = _run_experiments(args, names)
        elif len(names) > 1:
            raise UsageError("error: give experiment ids or one sweep spec, "
                             f"not {' '.join(names)}")
        elif args.list:
            _list_tasks(names[0])
            return 0
        else:
            manifest, report = _run_sweep(args, names[0])
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2

    manifest_path = Path(args.manifest or Path("results") /
                         f"manifest-{manifest['run_id']}.json")
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
        for text in report:
            print(text)

    totals = manifest["totals"]
    print(f"\n{totals['ok']}/{totals['tasks']} ok, "
          f"{totals['failed']} failed, {totals['cache_hits']} cache hits; "
          f"wall {totals['wall_s']:.1f}s, serial {totals['serial_wall_s']:.1f}s"
          f" (speedup {totals['speedup']}x)")
    print(f"manifest: {manifest_path}")
    print(f"results digest: {manifest['results_digest']}")
    for task in manifest["tasks"]:
        if task["status"] == "failed":
            error = task["error"]
            print(f"\n--- FAILED {task['id']} "
                  f"({error['type']}: {error['message']}) ---")
            if error["traceback"]:
                print(error["traceback"], end="")
    return 1 if totals["failed"] else 0
