"""``python -m repro.runner`` — the parallel, cached experiment runner.

It runs registered experiments and studies by id, or one declarative
sweep spec (a ``.toml`` or ``.json`` file; see docs/SWEEPS.md), never
both.  Every entry takes one path: a study's cells join the task list
and, once they have run, the study gets its block in the manifest and
its section of the printed report, whether it was named alone, among
other ids or in a spec file.

Examples::

    python -m repro.runner --list
    python -m repro.runner -j auto                 # full report, all cores
    python -m repro.runner -j 4 --scale 0.1        # smoke sweep
    python -m repro.runner EXP-F3 EXP-F4 --no-cache
    python -m repro.runner -j auto --scale 0.1 --manifest results/run.json
    python -m repro.runner --list examples/sweeps/ci_smoke.toml
    python -m repro.runner examples/sweeps/ci_smoke.toml -j 2 --scale 0.05
    python -m repro.runner --list ABL-FIG4         # a study's cells
    python -m repro.runner ABL-FIG4 --scale 0.1    # one study

A spec is validated before anything runs; ``--list NAMES`` prints the
tasks the names expand to (``--list`` alone, the registry).  At
``--scale S`` a study's cells run at ``S`` times the study's own
``scale``, while ``--scale`` replaces a spec file's.  Exit status: 0
when every task succeeded, 1 when any task is reported failed, 2 on
usage errors (an unknown experiment id; an invalid, unreadable or
wrongly shaped spec; ids mixed with a spec, or two specs; a task id
given twice).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from ..experiments.common import ExperimentResult
from ..experiments.registry import (experiment_ids, get_experiment,
                                    registered_specs, registered_studies)
from ..sweep import (SweepValidationError, expand_entries, load_spec,
                     render_markdown, run_entries)
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
                        help="experiment or study ids (default: all; see "
                             "--list; a leading 'run' token and "
                             "lowercase/underscore id spellings are "
                             "accepted) or one .toml/.json sweep spec")
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
                        help="also write the run's pgmcc.session-metrics/v1 "
                             "documents (one JSON array, task order)")
    parser.add_argument("--timeout", type=timeout_arg, default=1800.0,
                        help="per-task wall-clock timeout in seconds "
                             "(default: 1800; 0 disables)")
    parser.add_argument("--retries", type=retries_arg, default=1,
                        help="retries per failing task (default: 1)")
    parser.add_argument("--list", action="store_true",
                        help="print the experiment registry, or the tasks "
                             "the given ids or spec expand to, and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress telemetry on stderr")
    parser.add_argument("--no-report", action="store_true",
                        help="skip the per-experiment report tables and "
                             "the study reports")
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
    """The registry, one line an entry: its id, scale factor, what it
    runs and its description, each column as wide as its longest
    value; an experiment's schema follows it."""
    out = file or sys.stdout
    specs = registered_specs(include_hidden=True)
    lines = [(spec.id, spec.scale_factor,
              f"{spec.module.rsplit('.', 1)[-1]}.{spec.func}",
              spec.description + (" [sweep-cell]" if spec.hidden else ""),
              spec.schema_doc()) for spec in specs]
    lines += [(study.name, study.scale, f"{study.mode} {study.experiment}",
               f"{study.description} [study]", ())
              for study in registered_studies()]
    width = max(len(line[0]) for line in lines)
    column = max(len(line[2]) for line in lines)
    for name, factor, target, description, schema in lines:
        print(f"{name:<{width}}  x{factor:<4g} {target:<{column}} "
              f"{description}", file=out)
        for doc in schema:
            print(f"{'':<{width}}    {_format_param(doc)}", file=out)


def _entries(args: argparse.Namespace,
             names: list[str]) -> tuple[str | None, float, list]:
    """``(source, scale, entries)`` for the command line's names: the
    experiments and studies they give (every report entry by default)
    at the runner's scale, ``--scale`` or 1.0; or one spec file, a
    study whose own scale, replaced by ``--scale``, is the runner's.
    ``source`` is the spec file's path (None for ids).  A name that
    gives nothing runnable is a ``UsageError``."""
    if not any(name.endswith(SPEC_SUFFIXES) for name in names):
        try:
            entries = [get_experiment(name)
                       for name in names or experiment_ids()]
        except KeyError as exc:
            raise UsageError(f"error: {exc.args[0]}") from None
        return None, args.scale or 1.0, entries
    if len(names) > 1:
        raise UsageError("error: give experiment ids or one sweep "
                         f"spec, not {' '.join(names)}")
    try:
        spec = load_spec(names[0])
    except (OSError, ValueError, TypeError, RuntimeError) as exc:
        raise UsageError(f"error: {exc}") from None
    return (names[0], args.scale or spec.scale,
            [dataclasses.replace(spec, scale=1.0)])


def _plan(args: argparse.Namespace, names: list[str]):
    """``(source, scale, specs, studies)``: the task list the names
    expand to (:func:`repro.sweep.expand_entries`), every problem with
    a study a ``UsageError`` listing them all."""
    source, scale, entries = _entries(args, names)
    try:
        return (source, scale) + expand_entries(entries, scale)
    except SweepValidationError as exc:
        raise UsageError("\n".join(
            [f"{source or exc.spec_name}: {len(exc.errors)} problem(s)",
             *(f"  - {error}" for error in exc.errors)])) from None
    except (ValueError, TypeError) as exc:
        raise UsageError(f"error: {exc}") from None


def _list_tasks(source: str | None, specs: list, studies: list) -> None:
    for spec in specs:
        kwargs = ", ".join(f"{k}={v!r}" for k, v in spec.kwargs)
        print(f"{spec.id:<50}  {kwargs}".rstrip())
    for study, tasks in studies:
        print(f"{source or study.name}: {len(tasks)} task(s) over "
              f"{study.experiment}, mode {study.mode}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    names = args.experiments
    if names and names[0] == "run":
        # ``python -m repro.runner run EXP-ID ...``: tolerate the
        # subcommand-style spelling (common muscle memory from other
        # runners); ids themselves are normalized in get_experiment.
        names = names[1:]
    if args.list and not names:
        list_registry()
        return 0
    try:
        source, scale, specs, studies = _plan(args, names)
        if args.list:
            _list_tasks(source, specs, studies)
            return 0
        orch = Orchestrator(
            specs, scale=scale, jobs=args.jobs,
            cache=None if args.no_cache else ResultCache(args.cache_dir),
            timeout=args.timeout, retries=args.retries,
            on_event=None if args.quiet else event_printer())
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ValueError as exc:  # a task id given twice
        print(f"error: {exc}", file=sys.stderr)
        return 2

    manifest, _ = run_entries(orch, studies)
    cells = {task.id for _, tasks in studies for task in tasks}
    report = [f"\n##### {outcome.id} (wall {outcome.wall_s:.1f}s"
              f"{', cached' if outcome.cache_hit else ''})\n"
              + ExperimentResult.from_dict(outcome.result).report()
              for outcome in orch.outcomes
              if outcome.result is not None and outcome.id not in cells]
    if studies:
        report.append(render_markdown(manifest))

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
            print("warning: no session-metrics documents in this run "
                  f"(wrote empty array to {metrics_path})", file=sys.stderr)

    if not args.no_report:
        for text in report:
            print(text)

    totals = manifest["totals"]
    timing = f"wall {totals['wall_s']:.1f}s"
    if totals["speedup"] is not None:
        timing += (f", serial {totals['serial_wall_s']:.1f}s"
                   f" (speedup {totals['speedup']}x)")
    print(f"\n{totals['ok']}/{totals['tasks']} ok, "
          f"{totals['failed']} failed, {totals['cache_hits']} cache hits; "
          f"{timing}")
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
