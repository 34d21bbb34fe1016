"""One repeat of one workload, in a fresh interpreter.

``run.py`` starts this file once per timed repeat, so set-up time and
peak RSS are per-repeat samples and repeats never share a heap.  The
result is one JSON object on the last line of stdout.

Everything measured here is measured from outside ``repro``: the
harness times its own calls into public functions, records spans
around them, reads the public counters afterwards, and (``--trace 1``
only) runs the timed calls under ``cProfile``.
"""

from __future__ import annotations

import argparse
import cProfile
import heapq
import json
import resource
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BORN = time.monotonic()


class Spans:
    """In-memory span log: id, name, start, end, parent.  Times are
    seconds since the parent process spawned this child (both read
    ``CLOCK_MONOTONIC``); span 0, ``repeat``, covers the whole child."""

    def __init__(self, origin: float):
        self.origin = origin
        self.rows: list[dict] = [{"id": 0, "name": "repeat", "parent": None,
                                  "start": 0.0, "end": None}]
        self._open: list[int] = [0]

    @contextmanager
    def __call__(self, name: str, **attrs):
        row = {"id": len(self.rows), "name": name, "parent": self._open[-1],
               "start": time.monotonic() - self.origin, "end": None, **attrs}
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            self._open.pop()
            row["end"] = time.monotonic() - self.origin

    def add(self, name: str, start: float, end: float) -> None:
        """A span that ended before the log existed (interpreter start,
        imports), given as ``time.monotonic()`` readings."""
        self.rows.append({"id": len(self.rows), "name": name, "parent": 0,
                          "start": start - self.origin,
                          "end": end - self.origin})

    def finish(self) -> list[dict]:
        self.rows[0]["end"] = time.monotonic() - self.origin
        return self.rows


class _Cell:
    __slots__ = ("total", "table")

    def __init__(self):
        self.total = 0
        self.table = {}

    def step(self, i: int) -> int:
        self.total += i & 3
        self.table[i & 1023] = self.total
        return self.table.get((i * 7) & 1023, 0)


def calibrate(rounds: int = 20_000) -> float:
    """Seconds this host needs, right now, for a fixed pure-Python
    kernel: heap pushes/pops, method calls, dict traffic -- the
    simulator's instruction mix and none of its code, so a change to
    ``repro`` cannot move it.  ``run.py`` uses the readings to express
    times in reference-host seconds (``catalog.CALIBRATION_REF_S``)."""
    cell, heap, acc = _Cell(), [], 0
    push, pop = heapq.heappush, heapq.heappop
    t0 = time.perf_counter()
    for i in range(rounds):
        push(heap, ((i * 2654435761) & 0xFFFF, i))
        acc += cell.step(i)
        if len(heap) > 2048:
            pop(heap)
    return time.perf_counter() - t0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class TimedRegion:
    """The timed part of a repeat, cut into slices, with a calibration
    reading before the first slice, between every two, and after the
    last: the host's speed changes within a second, so each slice is
    judged against the readings right next to it."""

    def __init__(self, spans: Spans, profiler):
        self.spans = spans
        self.profiler = profiler
        self.walls: list[float] = []
        self.cpu_s = 0.0
        self.calib_s = [calibrate()]

    def slice(self, span_name: str, fn, **attrs):
        with self.spans(span_name, **attrs):
            if self.profiler is not None:
                self.profiler.enable()
            cpu0, t0 = time.process_time(), time.perf_counter()
            out = fn()
            self.walls.append(time.perf_counter() - t0)
            self.cpu_s += time.process_time() - cpu0
            if self.profiler is not None:
                self.profiler.disable()
        self.calib_s.append(calibrate())
        return out

    def result(self) -> dict:
        wall_s = sum(self.walls)
        return {"wall_s": wall_s, "slice_walls": self.walls,
                "calib_s": self.calib_s, "profiled_s": wall_s,
                "cpu_wall_ratio": ratio(self.cpu_s, wall_s)}


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# -- session workloads -------------------------------------------------


def session_counters(built, summary: dict) -> dict:
    from repro.simulator import POOL

    import workloads

    links = list(workloads.all_links(built.net))
    hop = sum(link.delivered for link in links)
    sent = sum(link.sent for link in links)
    random_drops = sum(link.random_drops for link in links)
    queue_drops = sum(link.queue_drops for link in links)
    events = built.net.sim.events_processed
    pool = POOL.stats()
    ne = [element.metrics() for element in built.elements.values()]
    naks_seen = sum(m["naks_seen"] for m in ne)
    aggregate = summary["aggregate"]
    invariants = built.session.invariants
    export = built.session.metrics.export()
    receivers = summary["receivers"].values()
    return {
        "engine.events": events,
        "engine.events_per_hop_packet": ratio(events, hop),
        "link.hop_packets": hop,
        "link.random_drops": random_drops,
        "link.queue_drops": queue_drops,
        "link.drop_ratio": ratio(random_drops + queue_drops, sent),
        "packet.allocated": pool["allocated"],
        "packet.pool_reuse_ratio": ratio(
            pool["reused"], pool["allocated"] + pool["reused"]),
        "sender.odata": summary["odata_sent"],
        "sender.rdata": summary["rdata_sent"],
        "sender.repair_ratio": ratio(summary["rdata_sent"],
                                     summary["odata_sent"]),
        "sender.acks": summary["acks_received"],
        "sender.naks": summary["naks_received"],
        "sender.stalls": summary["stalls"],
        "sender.acker_switches": summary["acker_switches"],
        "receiver.naks_sent": sum(rx["naks_sent"] for rx in receivers),
        "receiver.unrecoverable": summary["unrecoverable_data_loss"],
        "ne.nak_suppressed_ratio": ratio(
            sum(m["naks_suppressed"] for m in ne), naks_seen),
        "aggregate.exact_cohort": aggregate["exact_cohort"],
        "aggregate.promotions": aggregate["promotions"],
        "aggregate.synthetic_naks": aggregate["synthetic_naks"],
        "invariants.violations": (
            len(invariants.violations) if invariants is not None else 0),
        "telemetry.export_bytes": len(json.dumps(export, default=repr)),
    }


def run_session(name: str, seed: int, scale: float, spans: Spans,
                profiler, break_check: bool) -> dict:
    import catalog
    import workloads

    build, check = workloads.SESSION_BUILDERS[name]
    built = build(seed, scale, spans)
    setup_s = time.monotonic() - spans.origin

    timed = TimedRegion(spans, profiler)
    for i in range(catalog.RUN_SLICES):
        until = built.run_until * (i + 1) / catalog.RUN_SLICES
        timed.slice("run_slice", lambda: built.net.run(until=until), index=i)
    result = timed.result()

    with spans("summary"):
        summary = built.session.summary()
        counters = session_counters(built, summary)
        checks = check(built, summary)
    if break_check:
        checks["deliberately_broken"] = False
    with spans("close"):
        built.session.close()
        for flow in built.flows:
            flow.close()

    result.update(
        setup_s=setup_s, sim_s=built.run_until,
        work=counters["link.hop_packets"], counters=counters,
        sim_digest=workloads.sim_digest(summary),
        attempted=1, failed=0 if all(checks.values()) else 1, checks=checks)
    return result


# -- sweep workloads ---------------------------------------------------


def sweep_counters(manifest: dict) -> dict:
    tasks = manifest["tasks"]
    return {
        "cache.hit_ratio": ratio(manifest["totals"]["cache_hits"],
                                 len(tasks)),
        "orchestrator.cells": len(tasks),
        "orchestrator.retries": sum(
            max(task["attempts"] - 1, 0) for task in tasks),
    }


def run_sweep(name: str, seed: int, replays: int, spans: Spans, profiler,
              break_check: bool, scratch: Path) -> dict:
    """One cold sweep into a fresh cache, then (warm workload only)
    ``replays`` fully cached replays.  ``sweep_24cell`` times the cold
    run; ``sweep_24cell_warm`` counts it as set-up and times replays."""
    with spans("import_sweep"):
        from repro.sweep import expand, report_digest, sweep

    import catalog
    import workloads

    warm = name == "sweep_24cell_warm"
    with spans("load_spec"):
        spec = workloads.sweep_spec(seed)
    with spans("expand"):
        tasks = expand(spec)
    cells = len(tasks)

    def timed_sweep():
        t0 = time.perf_counter()
        run = sweep(spec, jobs=1, cache_dir=scratch / "cache", baseline=None)
        return run, time.perf_counter() - t0

    if warm:
        with spans("sweep_cold"):  # the cache has to be filled to be read
            cold, _ = timed_sweep()
        setup_s = time.monotonic() - spans.origin
    else:
        setup_s = time.monotonic() - spans.origin
        timed = TimedRegion(spans, None)  # the work is in worker processes
        cold, _ = timed.slice("sweep_cold", timed_sweep)
    digest = report_digest(cold.report)
    cold_failed = cells - cold.report["totals"]["ok"]
    checks = {"cold_cells_ok": (cold_failed == 0
                                and cells == catalog.SWEEP_CELLS)}

    if warm:
        timed = TimedRegion(spans, profiler)
        walls, mismatches = [], []

        def replay_group(count: int):
            for _ in range(count):
                replay, wall = timed_sweep()
                walls.append(wall)
                if (replay.manifest["totals"]["cache_hits"] != cells
                        or report_digest(replay.report) != digest):
                    mismatches.append(len(walls))
            return replay

        group = catalog.WARM_REPLAYS_PER_SLICE
        for first in range(0, replays, group):
            count = min(group, replays - first)
            replay = timed.slice("sweep_warm", lambda: replay_group(count),
                                 first=first)
        checks["warm_all_hits_same_digest"] = not mismatches
        result = timed.result()
        result.update(
            warm_walls=walls, work=cells * replays, attempted=replays,
            # a replay of a failed sweep proves nothing
            failed=replays if cold_failed else len(mismatches),
            counters=sweep_counters(replay.manifest))
    else:
        result = timed.result()
        result.update(work=cells, attempted=cells, failed=cold_failed,
                      counters=sweep_counters(cold.manifest))
        if profiler is not None:
            # A cold run's work happens in worker processes this
            # profiler cannot see: call the same registered callables
            # inline (no orchestrator, no cache) -- once plain for the
            # orchestrator-overhead subtraction, once profiled for the
            # simulation layers' share.
            with spans("inline_cells"):
                t0 = time.perf_counter()
                for task in tasks:
                    task.spec.run(spec.scale)
                result["inline_cells_s"] = time.perf_counter() - t0
            with spans("inline_cells_profiled"):
                t0 = time.perf_counter()
                profiler.enable()
                for task in tasks:
                    task.spec.run(spec.scale)
                profiler.disable()
                result["profiled_s"] = time.perf_counter() - t0

    if break_check:
        checks["deliberately_broken"] = False
        result["failed"] = max(result["failed"], 1)
    result.update(setup_s=setup_s, sim_digest=digest, checks=checks)
    return result


# -- entry -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--replays", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=BORN)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--break-check", action="store_true")
    args = parser.parse_args(argv)

    spans = Spans(args.spawned_at)
    spans.add("interpreter_start", args.spawned_at, BORN)
    import_start = time.monotonic()
    import catalog
    import layers
    import workloads  # noqa: F401 - pulls in repro (the import cost)
    spans.add("import", import_start, time.monotonic())

    profiler = cProfile.Profile() if args.trace else None
    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload in catalog.SESSION_WORKLOADS:
            result = run_session(args.workload, args.seed, args.scale, spans,
                                 profiler, args.break_check)
        elif args.workload in catalog.SWEEP_WORKLOADS:
            result = run_sweep(args.workload, args.seed, args.replays, spans,
                               profiler, args.break_check, scratch)
        else:
            parser.error(f"unknown workload {args.workload!r}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result["workload"] = args.workload
    result["seed"] = args.seed
    result["peak_rss_mb"] = peak_rss_mb()
    if profiler is not None:
        result["layers"] = layers.roll_up(profiler.getstats())
        result["spans"] = spans.finish()
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
