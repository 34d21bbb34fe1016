#!/usr/bin/env python3
"""Render text versions of the paper's figures from live simulations.

Regenerates a miniature of each §4 figure and draws it in the paper's
own style: time/sequence scatter with NAK diamonds (`o`) and acker
switch bars (`|`), plus bandwidth panels.

Run:  python examples/paper_figures.py
"""

from repro.analysis import (
    bandwidth_series,
    render_bandwidth,
    render_flow_comparison,
    render_time_seq,
)
from repro.core.sender_cc import CcConfig
from repro.experiments.fig5_acker_selection import L1, L2
from repro.pgm import add_receiver, create_session
from repro.simulator import NON_LOSSY, dumbbell, two_bottleneck
from repro.tcp import create_tcp_flow


def figure4() -> None:
    print("=" * 72)
    print("Fig. 4 (miniature): 1 TCP vs 1 PGM session, non-lossy bottleneck")
    print("=" * 72)
    net = dumbbell(2, 2, NON_LOSSY, seed=3)
    session = create_session(net, "h0", ["r0"], cc=CcConfig(c=1.0))
    tcp = create_tcp_flow(net, "h1", "r1", start_at=25.0, stop_at=65.0)
    net.run(until=90.0)
    print(render_time_seq(session.trace, 0, 90, width=72, height=16))
    print()
    print(render_flow_comparison({"pgm": session.trace, "tcp": tcp.trace},
                                 0, 90, 10.0))
    print()


def figure5() -> None:
    print("=" * 72)
    print("Fig. 5 (miniature): acker selection across two bottlenecks")
    print("=" * 72)
    net = two_bottleneck(L1, L2, seed=5)
    session = create_session(net, "src", ["pr2"], cc=CcConfig(c=0.75))
    add_receiver(net, session, "pr1", at=30.0)
    tcp = create_tcp_flow(net, "ts", "tr", start_at=60.0, stop_at=110.0)
    net.run(until=150.0)
    print(render_time_seq(session.trace, 0, 150, width=72, height=16))
    print()
    print("session bandwidth:")
    print(render_bandwidth(bandwidth_series(session.trace, 0, 150, 10.0),
                           width=40, max_rate_bps=500_000))
    switches = session.sender.controller.election.switches
    print("\nacker timeline: "
          + "  ".join(f"{s.time:.0f}s->{s.new}" for s in switches))
    print()


def window_sawtooth() -> None:
    print("=" * 72)
    print("Bonus: the §3.4 controller's AIMD sawtooth (W over time)")
    print("=" * 72)
    net = dumbbell(1, 1, NON_LOSSY, seed=8)
    session = create_session(net, "h0", ["r0"])
    net.run(until=60.0)
    samples = [(r.time, r.seq / 100) for r in session.trace.of_kind("window")]
    peak = max(w for _, w in samples)
    for t, w in samples[:40]:
        bar = "#" * int(round(40 * w / peak))
        print(f"  {t:6.1f}s  W={w:5.1f} |{bar}")
    print()


def main() -> None:
    figure4()
    figure5()
    window_sawtooth()


if __name__ == "__main__":
    main()
