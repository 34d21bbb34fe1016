"""The repo's benchmark: one command, every workload, every metric.

    python3 benchmarks/perf/run.py                       # all workloads
    python3 benchmarks/perf/run.py --trace 1 --out X.json
    python3 benchmarks/perf/run.py --smoke               # <30 s sanity run
    python3 benchmarks/perf/run.py compare A.json B.json
    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S \\
        --trace 0|1                                      # BENCHMARK.json form

Closed loop, one client: one child interpreter at a time, a fresh one
per timed repeat.  End-to-end numbers come only from untraced repeats;
``--trace 1`` adds one profiled repeat per workload plus the isolated
probes.  Exit status is non-zero when any output check fails.  See
README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalog
from summary import summarize

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
SCHEMA = "pgmcc.perf-bench/v1"

SMOKE_SCALE = 0.05
SMOKE_REPLAYS = 2
SMOKE_PROBE_SECONDS = 0.05


# -- children ----------------------------------------------------------


def cleared_env() -> tuple[dict[str, str], list[str]]:
    """The environment every child gets (defaults only, ``src`` on the
    path) and the names that had to be removed to get there."""
    env, removed = {}, []
    for key, value in os.environ.items():
        if (key in catalog.CLEARED_ENV
                or key.startswith(catalog.CLEARED_ENV_PREFIXES)):
            removed.append(key)
        else:
            env[key] = value
    paths = [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env, sorted(removed)


class Children:
    """Starts one child at a time and hands back its JSON result."""

    def __init__(self):
        self.env, self.removed = cleared_env()
        self._count = 0

    def run(self, script: str, *args: str) -> dict:
        self._count += 1
        scratch = OUT_DIR / "tmp" / f"{os.getpid()}-{self._count}"
        argv = [sys.executable, str(HERE / script), *args,
                "--scratch", str(scratch)]
        if script == "child.py":
            argv += ["--spawned-at", repr(time.monotonic())]
        done = subprocess.run(argv, env=self.env, cwd=REPO_ROOT, text=True,
                              stdout=subprocess.PIPE, timeout=900)
        if done.returncode != 0:
            raise RuntimeError(
                f"{script} {' '.join(args)} exited {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


# -- one workload ------------------------------------------------------


def plan_repeats(name: str, args) -> tuple[int, float | None]:
    """(minimum repeats, time budget or None) for a workload."""
    if args.smoke:
        return 1, None
    if args.seconds is not None and args.repeats is None:
        # BENCHMARK.json form: measure for --seconds, never fewer than
        # three samples under a median; a traced run only needs the
        # counters and one untraced wall to compare against
        return (1, None) if args.trace else (3, args.seconds)
    repeats = args.repeats if args.repeats is not None else 3
    if name in catalog.SWEEP_WORKLOADS:
        repeats = max(repeats, 5)  # cold/warm samples are cheap and few
    return repeats, None


def child_args(name: str, args, trace: bool) -> list[str]:
    out = ["--workload", name, "--seed", str(args.seed),
           "--scale", repr(args.scale), "--replays", str(args.replays),
           "--trace", "1" if trace else "0"]
    if args.break_check == name:
        out.append("--break-check")
    return out


def read_host_speed(repeat: dict) -> None:
    """Turn a child's calibration readings into its host-speed index
    (1.0 = the reference host, 0.6 = a host 40 % slower): the timed
    region slice by slice against the two readings next to each slice,
    set-up against the reading that follows it."""
    ref, calib = catalog.CALIBRATION_REF_S, repeat["calib_s"]
    reference_walls = [wall * ref / ((calib[i] + calib[i + 1]) / 2.0)
                       for i, wall in enumerate(repeat["slice_walls"])]
    repeat["speed"] = sum(reference_walls) / repeat["wall_s"]
    repeat["setup_speed"] = ref / calib[0]
    # state-growth slow-down: last slice over the first
    repeat["slice_slowdown"] = reference_walls[-1] / reference_walls[0]


def raw_samples(metric: str, repeat: dict) -> list[float]:
    """One child's wall-clock samples of an end-to-end metric."""
    if metric == "work_per_s":
        return [repeat["work"] / repeat["wall_s"]]
    if metric == "wall_per_sim_s":
        return [repeat["wall_s"] / repeat["sim_s"]]
    if metric == "sweep_cold_s":
        return [repeat["wall_s"]]
    if metric == "sweep_warm_s":  # every replay is a sample
        return repeat["warm_walls"]
    return [repeat[metric]]


def to_reference(metric: str, kind: str, value: float, repeat: dict) -> float:
    """A wall-clock sample in reference-host seconds."""
    speed = repeat["setup_speed" if metric == "setup_s" else "speed"]
    if kind == "time":
        return value * speed
    return value / speed if kind == "rate" else value


def run_workload(name: str, args, children: Children, log) -> dict:
    minimum, budget = plan_repeats(name, args)
    started = time.perf_counter()
    repeats: list[dict] = []
    while (len(repeats) < minimum
           or (budget is not None
               and time.perf_counter() - started < budget)):
        repeats.append(children.run("child.py",
                                    *child_args(name, args, trace=False)))
        log(f"  {name} repeat {len(repeats)}: "
            f"{repeats[-1]['wall_s']:.3f} s timed, "
            f"{repeats[-1]['failed']}/{repeats[-1]['attempted']} failed")

    digests = {r["sim_digest"] for r in repeats}
    counters_stable = all(r["counters"] == repeats[0]["counters"]
                          for r in repeats)
    attempted = sum(r["attempted"] for r in repeats) + 1
    failed = sum(r["failed"] for r in repeats)
    failed += 0 if len(digests) == 1 and counters_stable else 1

    for r in repeats:
        read_host_speed(r)

    end_to_end = {}
    for metric, (unit, better, bound, where, kind) in (
            catalog.END_TO_END.items()):
        if name not in where:
            continue
        if metric == "failed_ratio":
            pairs = [(failed / attempted,) * 2]
        else:
            pairs = [(raw, to_reference(metric, kind, raw, r))
                     for r in repeats for raw in raw_samples(metric, r)]
        end_to_end[metric] = {
            "unit": unit, "better": better, "bound": bound,
            **summarize([value for _, value in pairs]),
            "raw_median": statistics.median(raw for raw, _ in pairs)}

    measured = {
        "session.slice_slowdown": [r["slice_slowdown"] for r in repeats],
        "harness.cpu_wall_ratio": [r["cpu_wall_ratio"] for r in repeats],
        "harness.host_speed": [r["speed"] for r in repeats],
    }
    doc = {
        "why": catalog.WORKLOADS[name],
        "repeats": len(repeats),
        "sim_digest": sorted(digests)[0],
        "digest_stable": len(digests) == 1,
        "counters_stable": counters_stable,
        "attempted": attempted,
        "failed": failed,
        "checks": {check: sum(1 for r in repeats if not r["checks"][check])
                   for check in repeats[0]["checks"]},
        "end_to_end": end_to_end,
        "counters": repeats[0]["counters"],
        "measured": {key: summarize(measured[key])
                     for key in catalog.MEASURED},
    }
    if args.trace:
        traced = children.run("child.py", *child_args(name, args, trace=True))
        log(f"  {name} traced repeat: {traced['profiled_s']:.3f} s profiled")
        doc["trace"] = trace_section(name, traced, repeats)
    return doc


def trace_section(name: str, traced: dict, repeats: list[dict]) -> dict:
    untraced = statistics.median(r["wall_s"] for r in repeats)
    layer_total = sum(v["self_s"] for v in traced["layers"].values())
    extras = dict.fromkeys(catalog.TRACE_EXTRAS, 0.0)
    if name == "sweep_24cell":
        # the profiled region is the inline re-run of the cells, not
        # the orchestrated sweep, so there is no traced/untraced pair
        overhead = untraced - traced["inline_cells_s"]
        extras.update({
            "sweep.inline_cells_s": traced["inline_cells_s"],
            "orchestrator.overhead_s": overhead,
            "orchestrator.overhead_per_cell_ms":
                1e3 * overhead / catalog.SWEEP_CELLS,
        })
    else:
        extras["trace.overhead_ratio"] = traced["wall_s"] / untraced
    return {
        "layers": traced["layers"],
        "profiled_s": traced["profiled_s"],
        "self_s_coverage": layer_total / traced["profiled_s"],
        "extras": extras,
        "spans": traced["spans"],
    }


# -- reporting ---------------------------------------------------------


def host_facts(args, removed: list[str]) -> dict:
    def git(*argv: str) -> str | None:
        try:
            return subprocess.run(
                ["git", *argv], cwd=REPO_ROOT, text=True,
                capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None  # not a git checkout

    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "uncommitted_changes": bool(git("status", "--porcelain")),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "cleared_env": list(catalog.CLEARED_ENV)
        + [p + "*" for p in catalog.CLEARED_ENV_PREFIXES],
        "cleared_env_was_set": removed,
    }


def print_report(doc: dict) -> None:
    for name, wl in doc["workloads"].items():
        print(f"== {name}  (repeats={wl['repeats']}, "
             f"failed {wl['failed']}/{wl['attempted']}, "
             f"sim_digest {wl['sim_digest'][:16]}"
             f"{'' if wl['digest_stable'] else ' UNSTABLE'})")
        for metric, m in wl["end_to_end"].items():
            tail = ""
            if "tail" in m:
                tail = (f"  p{m['tail']['percentile']:.0f}="
                        f"{m['tail']['value']:.6g}")
            print(f"  {metric:<16} {m['median']:>12.6g} {m['unit']:<8} "
                 f"min={m['min']:.6g} max={m['max']:.6g} n={m['n']}{tail}")
        for check, misses in wl["checks"].items():
            if misses:
                print(f"  CHECK FAILED x{misses}: {check}")
        if "trace" in wl:
            trace = wl["trace"]
            print(f"  -- traced: {trace['profiled_s']:.3f} s profiled, "
                 f"layers cover {100 * trace['self_s_coverage']:.1f} %")
            ranked = sorted(trace["layers"].items(),
                            key=lambda kv: -kv[1]["self_s"])
            for layer, v in ranked:
                if v["self_s"] > 0:
                    share = 100 * v["self_s"] / trace["profiled_s"]
                    print(f"  {layer + '.self_s':<32} {v['self_s']:>9.4f} s "
                         f"{share:5.1f} %  calls_in={v['calls_in']}")
            for key, value in trace["extras"].items():
                if value:
                    print(f"  {key:<32} {value:>9.4f} "
                         f"{catalog.TRACE_EXTRAS[key][0]}")
        for key, value in wl["counters"].items():
            if value:
                print(f"  {key:<32} {value:>12.6g} {catalog.COUNTERS[key][0]}")
        for key, m in wl["measured"].items():
            print(f"  {key:<32} {m['median']:>12.4f} "
                 f"{catalog.MEASURED[key][0]}")
        print()
    if doc["probes"]:
        print("== probes")
        for key, value in doc["probes"].items():
            print(f"  {key:<32} {value:>12.4f} {catalog.PROBES[key]}")
        print()


def contract_line(doc: dict, name: str, trace: bool) -> dict:
    """The last stdout line BENCHMARK.json's driver reads."""
    wl = doc["workloads"][name]
    if not trace:
        metrics = {
            metric: {"value": wl["end_to_end"][metric]["median"],
                     "unit": wl["end_to_end"][metric]["unit"]}
            for metric in catalog.DRIVER_END_TO_END}
    else:
        values: dict[str, float] = {}
        for layer, v in wl["trace"]["layers"].items():
            values[f"{layer}.self_s"] = v["self_s"]
            values[f"{layer}.calls_in"] = v["calls_in"]
        values.update(dict.fromkeys(catalog.COUNTERS, 0))
        values.update(wl["counters"])
        values.update({k: m["median"] for k, m in wl["measured"].items()})
        values.update(wl["trace"]["extras"])
        values.update(doc["probes"])
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, (unit, _) in catalog.per_layer().items()}
    return {"correct": wl["failed"] == 0, "attempted": wl["attempted"],
            "failed": wl["failed"], "metrics": metrics}


# -- entry -------------------------------------------------------------


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(catalog.WORKLOADS),
                        help="run one workload and end stdout with the "
                             "BENCHMARK.json result line (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="derives every network/spec seed (default 1)")
    parser.add_argument("--repeats", type=int,
                        help="timed repeats per workload (default 3; the "
                             "sweep workloads never run fewer than 5)")
    parser.add_argument("--seconds", type=float,
                        help="instead of --repeats: keep starting repeats "
                             "until this much time has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a profiled repeat per workload and the "
                             "isolated probes")
    parser.add_argument("--smoke", action="store_true",
                        help="durations x0.05, 1 repeat, 2 warm replays, "
                             "0.05 s probes; not comparable")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "bench.json",
                        help="result document (default: %(default)s)")
    # self-test hook: make one workload's output check fail
    parser.add_argument("--break-check", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.scale = SMOKE_SCALE if args.smoke else 1.0
    args.replays = SMOKE_REPLAYS if args.smoke else catalog.WARM_REPLAYS
    if args.smoke:
        args.probe_seconds = SMOKE_PROBE_SECONDS
    elif args.seconds is not None:
        args.probe_seconds = args.seconds / 50.0
    else:
        args.probe_seconds = 1.0
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        import compare

        return compare.main(argv[1:])
    args = parse_args(argv)
    if not (REPO_ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"no program to measure: {REPO_ROOT / 'src'} "
                         "does not hold the repro package\n")
        return 2

    def log(text: str) -> None:
        sys.stderr.write(text + "\n")

    children = Children()
    doc = {
        "schema": SCHEMA,
        "smoke": args.smoke,
        "claim": None,
        "host": host_facts(args, children.removed),
        "workloads": {},
        "probes": {},
    }
    names = [args.workload] if args.workload else list(catalog.WORKLOADS)
    for name in names:
        log(f"{name}:")
        doc["workloads"][name] = run_workload(name, args, children, log)
    if args.trace:
        log("probes:")
        doc["probes"] = children.run(
            "probes.py", "--seed", str(args.seed),
            "--seconds", repr(args.probe_seconds))

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print_report(doc)
    print(f"wrote {args.out}")
    if args.workload:
        print(json.dumps(contract_line(doc, args.workload, bool(args.trace))))
    failed = any(wl["failed"] for wl in doc["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
