#!/usr/bin/env python3
"""Quickstart: one pgmcc session competing with one TCP flow.

Builds the paper's standard non-lossy dumbbell (500 kbit/s, 50 ms,
30-slot FIFO), runs a pgmcc session with two receivers, starts a TCP
flow halfway through, and prints the bandwidth timeline — the
miniature version of Fig. 4.

Run:  python examples/quickstart.py
"""

from repro.analysis import bandwidth_series
from repro.pgm import create_session
from repro.simulator import NON_LOSSY, dumbbell
from repro.tcp import create_tcp_flow

DURATION = 90.0
TCP_START = 30.0
TCP_STOP = 70.0


def main() -> None:
    # Topology: h0, h1 == R0 ==(bottleneck)== R1 == r0, r1, r2
    net = dumbbell(n_left=2, n_right=3, bottleneck=NON_LOSSY, seed=1)

    # A pgmcc session from h0 to two receivers.
    session = create_session(net, "h0", ["r0", "r1"])

    # A competing TCP bulk flow in the middle of the run.
    tcp = create_tcp_flow(net, "h1", "r2", start_at=TCP_START,
                          stop_at=TCP_STOP)

    net.run(until=DURATION)

    print("time     pgmcc        tcp       (kbit/s in 10 s bins)")
    pgm_bins = bandwidth_series(session.trace, 0, DURATION, 10.0)
    tcp_bins = bandwidth_series(tcp.trace, 0, DURATION, 10.0)
    for pgm_bin, tcp_bin in zip(pgm_bins, tcp_bins):
        print(
            f"{pgm_bin.t_start:5.0f}s {pgm_bin.rate_bps / 1000:9.1f} "
            f"{tcp_bin.rate_bps / 1000:9.1f}"
        )

    print()
    print(f"acker: {session.sender.current_acker} "
          f"(switches: {session.acker_switches})")
    print(f"pgmcc packets: {session.sender.odata_sent} data, "
          f"{session.sender.rdata_sent} repairs")
    print(f"receiver loss rates: "
          + ", ".join(f"{rx.rx_id}={rx.loss_rate:.3%}" for rx in session.receivers))
    shared = session.throughput_bps(TCP_START + 10, TCP_STOP)
    tcp_shared = tcp.throughput_bps(TCP_START + 10, TCP_STOP)
    print(f"while competing: pgmcc {shared / 1000:.0f} kbit/s, "
          f"tcp {tcp_shared / 1000:.0f} kbit/s")


if __name__ == "__main__":
    main()
