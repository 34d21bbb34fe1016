#!/usr/bin/env python3
"""Software-update broadcast with FEC repair at scale.

The Fig. 7 caveat in action: pushing the same data to a large group of
receivers behind independent lossy links, retransmission repair
traffic grows with the group — FEC parity does not.  This example
broadcasts an "update" to 40 receivers on 1 %-loss links, comparing
plain retransmission repair with an 11 % FEC parity budget, and then
shows §3.9-style adaptive redundancy reacting to a receiver on a much
worse (5 %) link joining the group.

Run:  python examples/fec_broadcast.py
"""

from repro.pgm import add_receiver, create_session
from repro.pgm.fec import FecAssembler, FecSource, attach_fec_receiver
from repro.simulator import LinkSpec, Network

N_RECEIVERS = 40
LEAF = LinkSpec(2_000_000, 0.230, queue_bytes=30_000, loss_rate=0.01)
BAD_LEAF = LinkSpec(2_000_000, 0.230, queue_bytes=30_000, loss_rate=0.05)
DURATION = 120.0


def build() -> Network:
    net = Network(seed=99)
    net.add_host("src")
    net.add_router("R0")
    net.duplex_link("src", "R0", LinkSpec(100_000_000, 0.0005, queue_slots=2000))
    for i in range(N_RECEIVERS):
        net.add_host(f"r{i}")
        net.duplex_link("R0", f"r{i}", LEAF)
    net.add_host("straggler")
    net.duplex_link("R0", "straggler", BAD_LEAF)
    net.build_routes()
    return net


def retransmission_run() -> None:
    net = build()
    session = create_session(net, "src", [f"r{i}" for i in range(N_RECEIVERS)])
    net.run(until=DURATION)
    summary = session.summary()
    share = summary["rdata_sent"] / max(summary["odata_sent"], 1)
    print(f"RDATA repair : {summary['odata_sent']} data + "
          f"{summary['rdata_sent']} repairs "
          f"({share:.0%} repair overhead at the source)")
    session.close()


def fec_run() -> None:
    net = build()
    source = FecSource(k=16, redundancy=2)
    session = create_session(
        net, "src", [f"r{i}" for i in range(N_RECEIVERS)],
        reliable=False, source=source,
    )
    assemblers = {}
    for rx in session.receivers:
        assemblers[rx.rx_id] = FecAssembler()
        attach_fec_receiver(rx, assemblers[rx.rx_id])

    # Halfway in, a receiver on a much lossier link joins; the source
    # raises the parity budget from its reports (§3.9 adaptation).
    def straggler_joins() -> None:
        add_receiver(net, session, "straggler")
        rx = session.receiver("straggler")
        assemblers["straggler"] = FecAssembler()
        attach_fec_receiver(rx, assemblers["straggler"])
        print(f"  t={net.sim.now:5.1f}s straggler joined (5% loss link); "
              f"raising redundancy to r=4")
        source.set_redundancy(4)

    net.sim.schedule_at(DURATION / 2, straggler_joins)
    net.run(until=DURATION)

    print(f"FEC repair   : {session.sender.odata_sent} packets "
          f"({source.overhead:.0%} parity now), 0 retransmissions")
    residuals = {name: a.residual_block_loss() for name, a in assemblers.items()}
    worst = max(residuals, key=residuals.get)
    print(f"  residual block loss: mean "
          f"{sum(residuals.values()) / len(residuals):.2%}, "
          f"worst {residuals[worst]:.2%} ({worst})")
    session.close()


def main() -> None:
    print(f"broadcast to {N_RECEIVERS} receivers, independent 1% loss links\n")
    retransmission_run()
    fec_run()


if __name__ == "__main__":
    main()
