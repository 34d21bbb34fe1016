"""Isolated probes: microseconds (or ms) per call into one public
function, on seeded synthetic input.

A probe answers "did this layer's unit cost move?" without a session
around it.  Each returns the fastest of its timed batches; what is
inside a batch's timed region is the one call named in
``catalog.PROBES``.
Run as a script (``run.py`` does, in a fresh interpreter) it prints
one JSON object: probe name -> value.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import time
from pathlib import Path
from typing import Callable


def measure(batch: Callable[[], float], calls: int, seconds: float) -> float:
    """Seconds per call in the fastest batch (the slower batches
    measure the host, not the function); ``batch()`` returns its own
    timed seconds for ``calls`` calls, so it can set up and drain
    untimed."""
    best = float("inf")
    deadline = time.perf_counter() + seconds
    batches = 0
    while batches < 3 or time.perf_counter() < deadline:
        best = min(best, batch() / calls)
        batches += 1
    return best


def probe_engine_dispatch(seconds: float, rng: random.Random,
                          pending: int = 0) -> float:
    from repro.simulator import Simulator

    calls = 5000

    def batch() -> float:
        sim = Simulator()
        for _ in range(pending):
            sim.schedule(1e6 + rng.random(), int)
        left = [calls]

        def tick():
            left[0] -= 1
            if left[0]:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        t0 = time.perf_counter()
        sim.run(until=1e5)
        return time.perf_counter() - t0

    return measure(batch, calls, seconds) * 1e6


def probe_link_hop(seconds: float, rng: random.Random) -> float:
    from repro.simulator import LinkSpec, Network, Packet

    calls = 256
    net = Network(seed=rng.randrange(2 ** 31))
    net.add_host("a")
    net.add_host("b")
    net.duplex_link("a", "b", LinkSpec(rate_bps=1e10, delay=0.001,
                                       queue_slots=calls + 1))
    net.build_routes()
    src = net.host("a")

    def batch() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            src.send(Packet("a", "b", 1000, None, "probe"))
        net.run(until=net.sim.now + 1.0)
        return time.perf_counter() - t0

    return measure(batch, calls, seconds) * 1e6


def probe_node_fanout(seconds: float, rng: random.Random) -> float:
    from repro.simulator import LinkSpec, Network, Packet

    branches = 100
    group = "mc:probe"
    net = Network(seed=rng.randrange(2 ** 31))
    net.add_host("src")
    net.add_router("R0")
    spec = LinkSpec(rate_bps=1e10, delay=0.001, queue_slots=64)
    net.duplex_link("src", "R0", spec)
    for i in range(branches):
        net.add_host(f"l{i}")
        net.duplex_link("R0", f"l{i}", spec)
    net.build_routes()
    net.set_group(group, "src", [f"l{i}" for i in range(branches)])
    router = net.router("R0")
    rounds = 20

    def batch() -> float:
        timed = 0.0
        for _ in range(rounds):
            packet = Packet("src", group, 1000, None, "probe")
            t0 = time.perf_counter()
            router.forward_multicast(packet, "src")
            timed += time.perf_counter() - t0
            net.run(until=net.sim.now + 1.0)  # drain, untimed
        return timed

    return measure(batch, rounds * branches, seconds) * 1e6


def loss_pattern(rng: random.Random, n: int, p: float = 0.01) -> list[bool]:
    return [rng.random() < p for _ in range(n)]


def probe_acktrack_on_ack(seconds: float, rng: random.Random) -> float:
    from repro.core import AckTracker

    calls = 4000
    window = 16
    lost = loss_pattern(rng, calls + window)

    def batch() -> float:
        tracker = AckTracker()
        for seq in range(window):
            tracker.on_data_sent(seq)
        t0 = time.perf_counter()
        for ack_seq in range(calls):
            tracker.on_data_sent(ack_seq + window)
            if not lost[ack_seq]:
                # bitmap: the last 32 packets minus the lost ones
                bitmap = 0
                for k in range(min(32, ack_seq + 1)):
                    if not lost[ack_seq - k]:
                        bitmap |= 1 << k
                tracker.on_ack(ack_seq, bitmap)
        return time.perf_counter() - t0

    return measure(batch, calls, seconds) * 1e6


def probe_receiver_cc_on_data(seconds: float, rng: random.Random) -> float:
    from repro.core import ReceiverController

    calls = 5000
    lost = loss_pattern(rng, calls)

    def batch() -> float:
        rx = ReceiverController("probe")
        t0 = time.perf_counter()
        for seq in range(calls):
            if not lost[seq]:
                rx.on_data(seq, seq * 0.01)
        return time.perf_counter() - t0

    return measure(batch, calls, seconds) * 1e6


def probe_loss_filter_update(seconds: float, rng: random.Random) -> float:
    from repro.core import LossRateFilter

    calls = 20000
    lost = loss_pattern(rng, calls)

    def batch() -> float:
        flt = LossRateFilter()
        update = flt.update
        t0 = time.perf_counter()
        for sample in lost:
            update(sample)
        return time.perf_counter() - t0

    return measure(batch, calls, seconds) * 1e6


def probe_packets_codec(seconds: float, rng: random.Random) -> float:
    from repro.core import ReceiverReport
    from repro.pgm import Ack, OData, decode

    calls = 1000
    payload = bytes(rng.randrange(256) for _ in range(1400))
    report = ReceiverReport("r17", 123456, 655)

    def batch() -> float:
        t0 = time.perf_counter()
        for seq in range(calls):
            decode(OData(1, seq, 0, len(payload), timestamp=seq * 0.01,
                         acker_id="r17", payload=payload).pack())
            decode(Ack(1, seq, 0xFFFFFFFF, report).pack())
        return time.perf_counter() - t0

    return measure(batch, calls, seconds) * 1e6


def probe_telemetry_export(seconds: float, rng: random.Random) -> float:
    from repro.pgm import create_session
    from repro.simulator import LOSSY, dumbbell

    net = dumbbell(1, 3, LOSSY, seed=rng.randrange(2 ** 31))
    session = create_session(net, "h0", ["r0", "r1", "r2"])
    net.run(until=20.0)
    calls = 5

    def batch() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            session.metrics.export()
        return time.perf_counter() - t0

    try:
        return measure(batch, calls, seconds) * 1e3
    finally:
        session.close()


def cached_experiment(value: int = 0):
    """A trivially cheap experiment callable for the cache probe."""
    from repro.experiments.common import ExperimentResult

    result = ExperimentResult(name="probe", params={"value": value})
    result.metrics["value"] = value
    return result


def probe_cache_fetch_hit(seconds: float, rng: random.Random,
                          scratch: Path) -> float:
    from repro.runner import ResultCache

    cache = ResultCache(scratch / "probe-cache")
    kwargs = {"value": rng.randrange(2 ** 31)}
    cache.fetch_or_run(cached_experiment, kwargs)
    calls = 5

    def batch() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            _, hit = cache.fetch_or_run(cached_experiment, kwargs)
            if not hit:
                raise RuntimeError("cache probe missed")
        return time.perf_counter() - t0

    return measure(batch, calls, seconds) * 1e3


def run_all(seed: int, seconds: float, scratch: Path) -> dict[str, float]:
    def rng(salt: int) -> random.Random:
        return random.Random(seed * 1000 + salt)

    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return {
            "probe.engine.dispatch_us": probe_engine_dispatch(seconds, rng(1)),
            "probe.engine.dispatch_deep_us": probe_engine_dispatch(
                seconds, rng(2), pending=4096),
            "probe.link.hop_us": probe_link_hop(seconds, rng(3)),
            "probe.node.fanout_us": probe_node_fanout(seconds, rng(4)),
            "probe.acktrack.on_ack_us": probe_acktrack_on_ack(seconds, rng(5)),
            "probe.receiver_cc.on_data_us": probe_receiver_cc_on_data(
                seconds, rng(6)),
            "probe.loss_filter.update_us": probe_loss_filter_update(
                seconds, rng(7)),
            "probe.packets.codec_us": probe_packets_codec(seconds, rng(8)),
            "probe.telemetry.export_ms": probe_telemetry_export(
                seconds, rng(9)),
            "probe.cache.fetch_hit_ms": probe_cache_fetch_hit(
                seconds, rng(10), scratch),
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="time budget per probe")
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args(argv)
    values = run_all(args.seed, args.seconds, Path(args.scratch))
    sys.stdout.write("\n" + json.dumps(values) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
