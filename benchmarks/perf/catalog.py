"""The benchmark's vocabulary: workloads, metrics, layers, bounds.

One place names everything the harness emits, so ``run.py``,
``compare.py``, the self-tests and ``BENCHMARK.json`` cannot drift
apart.  Importing this module imports nothing from ``repro``.
"""

from __future__ import annotations

#: the three workloads that hold a ``net``/``session`` pair
SESSION_WORKLOADS = ("session_tcp_3rx", "fanout_100rx", "hybrid_1e6")
#: the two that drive ``repro.sweep.sweep`` (cache-write / cache-read)
SWEEP_WORKLOADS = ("sweep_24cell", "sweep_24cell_warm")

#: name -> one-line reason (the ``why`` of BENCHMARK.json)
WORKLOADS = {
    "session_tcp_3rx": (
        "Fig. 4 shape: 3 co-located receivers + TCP, no random loss, run "
        "past the 8192-packet transmit window; acker/ACK path, pgm.sender, "
        "core.* and tcp; work unit = hop packet"),
    "fanout_100rx": (
        "Fig. 7 shape: 100 independent 1%-loss leaves, 90 join late; "
        "per-hop packet path x100, receivers, loss models, NAK/RDATA "
        "repair; pgm.sender <5%; work unit = hop packet"),
    "hybrid_1e6": (
        "10^6 virtual receivers in 64 subtrees with NEs, aggregate banks "
        "and the invariant checker; only workload where topology build "
        "and memory are first-order; work unit = hop packet"),
    "sweep_24cell": (
        "uncached 24-cell resilience sweep through orchestrator + cache "
        "writes: worker spawn, fingerprint, put, report; faults x 4 "
        "controllers; work unit = cell"),
    "sweep_24cell_warm": (
        "fully cached replay of the same sweep: 24 cache reads + report "
        "aggregation, no simulation at all (the bypass side of the cache); "
        "work unit = cached cell"),
}

#: simulated duration at scale 1.0 (session workloads, seconds)
SIM_SECONDS = {
    "session_tcp_3rx": 600.0,
    "fanout_100rx": 60.0,
    "hybrid_1e6": 10.0,
}
#: scale handed to ``sweep()`` at harness scale 1.0 (CI's smoke scale)
SWEEP_SCALE = 0.05
SWEEP_CELLS = 24
#: warm replays per repeat at harness scale 1.0 (ISSUE 11 had 20; a
#: 1.3 s timed region per child was the noisiest number in the suite)
WARM_REPLAYS = 50
#: replays between two host-speed readings
WARM_REPLAYS_PER_SLICE = 5
#: the run phase of a session workload is cut into this many equal
#: sim-time slices (spans + slice_slowdown)
RUN_SLICES = 10

#: every environment variable that changes what a child measures; the
#: benchmark measures the defaults, so each child starts without them
CLEARED_ENV_PREFIXES = ("PGMCC_BENCH_",)
CLEARED_ENV = ("PGMCC_SIM_SCHEDULER", "PGMCC_PACKET_POOL",
               "PGMCC_LOSS_BACKEND", "PGMCC_CACHE_DIR")

# -- end-to-end metrics ------------------------------------------------

#: The host this was sized on changes speed by 25-30 % within minutes
#: and by as much within a second -- more than any bound below.  Every
#: child therefore times a fixed pure-Python kernel
#: (``child.calibrate``, ~20 ms) before, between and after the slices
#: of its timed region, and every *time* below is reported in
#: reference-host seconds: each slice's seconds x (this constant / the
#: mean of the two readings next to it); rates the other way round.
#: The constant only fixes the scale (the kernel's time on the sizing
#: host in a quiet minute); ratios between commits do not depend on it.
CALIBRATION_REF_S = 0.021

#: name -> (unit, better, bound, workloads it is defined on, kind);
#: kind says how host speed enters: a "time" is multiplied by the speed
#: index, a "rate" divided, a "plain" value left alone
END_TO_END = {
    "work_per_s": ("1/s", "higher", 0.10,
                   SESSION_WORKLOADS + SWEEP_WORKLOADS, "rate"),
    "wall_per_sim_s": ("s/sim_s", "lower", 0.10, SESSION_WORKLOADS, "time"),
    "peak_rss_mb": ("MB", "lower", 0.10,
                    SESSION_WORKLOADS + SWEEP_WORKLOADS, "plain"),
    "setup_s": ("s", "lower", 0.10,
                SESSION_WORKLOADS + SWEEP_WORKLOADS, "time"),
    "sweep_cold_s": ("s", "lower", 0.10, ("sweep_24cell",), "time"),
    "sweep_warm_s": ("s", "lower", 0.10, ("sweep_24cell_warm",), "time"),
    "failed_ratio": ("ratio", "lower", 0.0,
                     SESSION_WORKLOADS + SWEEP_WORKLOADS, "plain"),
}

#: the subset BENCHMARK.json binds the driver to: defined on every
#: workload, never zero, and steady across *seeds* (the driver draws a
#: new seed per run, and ``wall_per_sim_s`` moves with how much traffic
#: a seed happens to simulate).  name -> bound used there.
DRIVER_END_TO_END = {
    "work_per_s": 0.25,
    # exact to 0.1 % per seed, but 1 seed in 5 sets off a NAK storm at
    # fanout_100rx's join (+10 MB), so across seeds it is bimodal
    "peak_rss_mb": 0.25,
    "setup_s": 0.25,
}

# -- per-layer metrics -------------------------------------------------

#: profile roll-up buckets (this repo's modules)
LAYERS = (
    "simulator.engine", "simulator.link", "simulator.node",
    "simulator.packet", "simulator.queues", "simulator.loss_models",
    "simulator.topology", "simulator.trace", "simulator.faults",
    "pgm.sender", "pgm.receiver", "pgm.packets", "pgm.network_element",
    "pgm.aggregate", "pgm.invariants", "pgm.session",
    "core.sender_cc", "core.acktrack", "core.window", "core.acker",
    "core.receiver_cc", "core.loss_filter",
    "tcp", "telemetry", "runner.orchestrator", "runner.cache", "sweep",
    "other",
)

#: exact counters: must repeat bit-for-bit for one seed.  name -> (unit,
#: better)
COUNTERS = {
    "engine.events": ("count", "lower"),
    "engine.events_per_hop_packet": ("ratio", "lower"),
    "link.hop_packets": ("count", "higher"),
    "link.random_drops": ("count", "lower"),
    "link.queue_drops": ("count", "lower"),
    "link.drop_ratio": ("ratio", "lower"),
    "packet.allocated": ("count", "lower"),
    "packet.pool_reuse_ratio": ("ratio", "higher"),
    "sender.odata": ("count", "higher"),
    "sender.rdata": ("count", "lower"),
    "sender.repair_ratio": ("ratio", "lower"),
    "sender.acks": ("count", "higher"),
    "sender.naks": ("count", "lower"),
    "sender.stalls": ("count", "lower"),
    "sender.acker_switches": ("count", "lower"),
    "receiver.naks_sent": ("count", "lower"),
    "receiver.unrecoverable": ("count", "lower"),
    "ne.nak_suppressed_ratio": ("ratio", "higher"),
    "aggregate.exact_cohort": ("count", "lower"),
    "aggregate.promotions": ("count", "lower"),
    "aggregate.synthetic_naks": ("count", "lower"),
    "invariants.violations": ("count", "lower"),
    "telemetry.export_bytes": ("bytes", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "orchestrator.cells": ("count", "higher"),
    "orchestrator.retries": ("count", "lower"),
}

#: measured (not exact) per-repeat values reported beside the counters
MEASURED = {
    "session.slice_slowdown": ("ratio", "lower"),
    "harness.cpu_wall_ratio": ("ratio", "higher"),
    "harness.host_speed": ("ratio", "higher"),
}

#: traced-run extras
TRACE_EXTRAS = {
    "trace.overhead_ratio": ("ratio", "lower"),
    "sweep.inline_cells_s": ("s", "lower"),
    "orchestrator.overhead_s": ("s", "lower"),
    "orchestrator.overhead_per_cell_ms": ("ms", "lower"),
}

#: isolated probes: one public function each.  name -> unit
PROBES = {
    "probe.engine.dispatch_us": "us",
    "probe.engine.dispatch_deep_us": "us",
    "probe.link.hop_us": "us",
    "probe.node.fanout_us": "us",
    "probe.acktrack.on_ack_us": "us",
    "probe.receiver_cc.on_data_us": "us",
    "probe.loss_filter.update_us": "us",
    "probe.packets.codec_us": "us",
    "probe.telemetry.export_ms": "ms",
    "probe.cache.fetch_hit_ms": "ms",
}


def per_layer() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ("s", "lower")
        out[f"{layer}.calls_in"] = ("count", "lower")
    out.update(COUNTERS)
    out.update(MEASURED)
    out.update(TRACE_EXTRAS)
    out.update({name: (unit, "lower") for name, unit in PROBES.items()})
    return out


def benchmark_json(run_seconds: int) -> dict:
    """The document committed as ``BENCHMARK.json`` at the repo root."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": END_TO_END[name][0],
             "better": END_TO_END[name][1], "bound": bound}
            for name, bound in DRIVER_END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in per_layer().items()],
    }
