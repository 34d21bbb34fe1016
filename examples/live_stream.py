#!/usr/bin/env python3
"""Unreliable live streaming with pgmcc rate feedback (§3.9).

A live video source multicasts without retransmissions: stale frames
are worthless, so NAKs are report-only.  The application listens to
pgmcc's token-generation feedback to pick its encoding quality, and to
the receiver loss reports to size FEC redundancy — both feedback kinds
the paper describes for unreliable protocols.

Halfway through, the bottleneck is squeezed from 600 to 150 kbit/s;
watch the stream step its quality down and recover nothing by
retransmission (rdata stays 0).

Run:  python examples/live_stream.py
"""

from repro.core.feedback import AdaptiveSource, QualityLevel
from repro.pgm import create_session
from repro.simulator import ACCESS, LinkSpec, Network

LEVELS = [
    QualityLevel("audio-only 16k", 16_000),
    QualityLevel("video-low 64k", 64_000),
    QualityLevel("video-med 160k", 160_000),
    QualityLevel("video-high 400k", 400_000),
]
DURATION = 120.0
SQUEEZE_AT = 60.0


def main() -> None:
    net = Network(seed=11)
    net.add_host("studio")
    net.add_router("R0")
    net.duplex_link("studio", "R0", ACCESS)
    viewers = ["viewer-a", "viewer-b"]
    links = []
    for name in viewers:
        net.add_host(name)
        fwd, _ = net.duplex_link(
            "R0", name,
            LinkSpec(600_000, 0.080, queue_slots=30, loss_rate=0.005),
        )
        links.append(fwd)
    net.build_routes()

    app = AdaptiveSource(LEVELS, payload_bytes=1400)
    app.on_level_change = lambda lv: print(
        f"  t={net.sim.now:6.1f}s  quality -> {lv.name}"
    )
    session = create_session(
        net, "studio", viewers, reliable=False, on_token=app.on_token,
    )
    # feed the app the freshest loss report for FEC sizing
    original = session.sender._handle_nak

    def nak_tap(nak):
        app.on_report(nak.report)
        original(nak)

    session.sender._handle_nak = nak_tap

    def squeeze():
        print(f"  t={net.sim.now:6.1f}s  [link squeezed to 150 kbit/s]")
        for link in links:
            link.rate_bps = 150_000

    net.sim.schedule_at(SQUEEZE_AT, squeeze)

    print("streaming…")
    net.run(until=DURATION)

    wide = session.throughput_bps(10, SQUEEZE_AT)
    narrow = session.throughput_bps(SQUEEZE_AT + 20, DURATION)
    print(f"\nrate before squeeze: {wide / 1000:.0f} kbit/s; after: "
          f"{narrow / 1000:.0f} kbit/s")
    print(f"retransmissions sent: {session.sender.rdata_sent} (unreliable mode)")
    print(f"suggested FEC redundancy from loss reports: "
          f"{app.redundancy_share:.1%}")
    for rx in session.receivers:
        holes = rx.cc.loss_filter.losses
        print(f"  {rx.rx_id}: {rx.odata_received} frames, "
              f"{holes} lost (played with concealment)")


if __name__ == "__main__":
    main()
