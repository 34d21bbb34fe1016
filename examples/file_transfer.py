#!/usr/bin/env python3
"""Reliable multicast file transfer over a lossy tree.

The scenario the paper's introduction motivates: one source pushes a
file to a group of receivers behind independent lossy links; PGM's
NAK/RDATA machinery repairs the holes while pgmcc keeps the rate at
the TCP-fair share of the slowest receiver.  Every receiver verifies a
checksum of the reassembled file at the end.

Run:  python examples/file_transfer.py
"""

import hashlib
import random

from repro.pgm import FiniteSource, create_session, enable_network_elements
from repro.simulator import ACCESS, LinkSpec, Network

CHUNK = 1400
N_CHUNKS = 400  # a 560 kB "file"
RECEIVER_LINKS = {
    # name -> (rate, delay, loss): heterogeneous receiver population
    "fast": LinkSpec(2_000_000, 0.020, queue_slots=30, loss_rate=0.001),
    "lossy": LinkSpec(2_000_000, 0.100, queue_slots=30, loss_rate=0.03),
    "slow": LinkSpec(400_000, 0.050, queue_slots=30),
}


def build_network(seed: int = 7) -> Network:
    net = Network(seed=seed)
    net.add_host("src")
    net.add_router("R0")
    net.duplex_link("src", "R0", ACCESS)
    for name, spec in RECEIVER_LINKS.items():
        net.add_host(name)
        net.duplex_link("R0", name, spec)
    net.build_routes()
    return net


def main() -> None:
    rng = random.Random(1234)
    file_bytes = bytes(rng.getrandbits(8) for _ in range(CHUNK * N_CHUNKS))
    chunks = [file_bytes[i : i + CHUNK] for i in range(0, len(file_bytes), CHUNK)]
    digest = hashlib.sha256(file_bytes).hexdigest()
    print(f"file: {len(file_bytes)} bytes, sha256 {digest[:16]}…")

    net = build_network()
    enable_network_elements(net)  # routers aggregate NAKs

    received: dict[str, list[bytes]] = {name: [] for name in RECEIVER_LINKS}
    session = create_session(
        net, "src", list(RECEIVER_LINKS), source=FiniteSource(chunks)
    )
    for rx in session.receivers:
        sink = received[rx.rx_id]
        rx.deliver = lambda seq, n, payload, sink=sink: sink.append(payload)

    net.run(until=300.0)

    print(f"\nsent: {session.sender.odata_sent} data + "
          f"{session.sender.rdata_sent} repair packets; "
          f"final acker: {session.sender.current_acker}")
    rate = session.throughput_bps(2.0, max(session.trace.times("data")))
    print(f"session rate: {rate / 1000:.0f} kbit/s "
          f"(slowest receiver link: 400 kbit/s)")

    ok = True
    for name, parts in received.items():
        blob = b"".join(parts)
        match = hashlib.sha256(blob).hexdigest() == digest
        ok &= match
        rx = session.receiver(name)
        print(f"  {name:5s}: {len(parts):4d}/{N_CHUNKS} chunks, "
              f"loss seen {rx.loss_rate:.2%}, "
              f"checksum {'OK' if match else 'MISMATCH'}")
    if not ok:
        raise SystemExit("transfer failed verification")
    print("all receivers verified the file")


if __name__ == "__main__":
    main()
