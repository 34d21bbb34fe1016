"""EXP-F7 — Fig. 7: uncorrelated losses, avoiding drop-to-zero.

One pgmcc source with up to 100 receivers behind *independent* links
with 1 % random loss, plus one TCP flow on an identical but separate
link.  At t = 0 the TCP flow and 10 PGM receivers start; at t = 300 s
(scaled) 90 more receivers join.

Single-rate schemes that aggregate loss reports at the source see an
aggregate loss far above any individual receiver's and collapse (the
"drop-to-zero" problem).  pgmcc never computes loss at the source — it
uses receiver-filtered estimates and defers reactions until the new
acker's reports arrive — so the 90-receiver join must not appreciably
change the session's throughput, and the TCP flow on its own link must
be unaffected.

The paper also notes larger tests would need FEC-style repair: with
plain retransmissions and many receivers, repair traffic on the source
link grows with the receiver count.  ``reliable=False`` (report-only
NAKs, §3.9) is therefore an option here, matching how such sessions
would actually be deployed; the default keeps retransmissions on, like
the paper's NS runs.
"""

from __future__ import annotations

from ..analysis import throughput_bps
from ..core.sender_cc import CcConfig
from ..pgm import add_receiver, create_session
from ..simulator import LinkSpec, Network, star
from ..tcp import create_tcp_flow
from .common import ExperimentResult, kbps

#: each receiver's independent link: 1 % random loss (the paper), high
#: statistical multiplexing -> loss-determined rate.
LEAF = LinkSpec(rate_bps=2_000_000, delay=0.230, queue_bytes=30_000, loss_rate=0.01)
ACCESS = LinkSpec(rate_bps=100_000_000, delay=0.0005, queue_slots=2000)


def build(n_receivers: int, seed: int) -> Network:
    net = star(n_receivers, LEAF, access=ACCESS, seed=seed)
    net.add_host("ts")
    net.duplex_link("ts", "R0", ACCESS)
    net.add_host("tr")
    net.duplex_link("R0", "tr", LEAF)
    net.build_routes()
    return net


def run(
    scale: float = 1.0,
    seed: int = 17,
    initial_receivers: int = 10,
    total_receivers: int = 100,
    reliable: bool = True,
) -> ExperimentResult:
    duration = 500.0 * scale
    join_time = 300.0 * scale
    net = build(total_receivers, seed)
    session = create_session(
        net,
        "src",
        [f"r{i}" for i in range(initial_receivers)],
        cc=CcConfig(),
        reliable=reliable,
    )
    for i in range(initial_receivers, total_receivers):
        add_receiver(net, session, f"r{i}", at=join_time)
    tcp = create_tcp_flow(net, "ts", "tr")
    net.run(until=duration)

    warm = join_time / 3
    before = (warm, join_time)
    settle = (duration - join_time) / 5
    after = (join_time + settle, duration)
    pgm_before = throughput_bps(session.trace, *before)
    pgm_after = throughput_bps(session.trace, *after)
    tcp_before = throughput_bps(tcp.trace, *before)
    tcp_after = throughput_bps(tcp.trace, *after)
    change = pgm_after / pgm_before if pgm_before > 0 else float("inf")

    result = ExperimentResult(
        name="fig7-uncorrelated-loss",
        params={
            "scale": scale, "seed": seed, "reliable": reliable,
            "initial_receivers": initial_receivers,
            "total_receivers": total_receivers,
        },
        expectation=(
            "the join of 90 extra receivers with independent 1% loss "
            "does not appreciably change the session throughput (no "
            "drop-to-zero); TCP on its own identical link is unaffected"
        ),
    )
    result.add_row(
        window="before join", pgm_kbps=kbps(pgm_before), tcp_kbps=kbps(tcp_before),
        receivers=initial_receivers,
    )
    result.add_row(
        window="after join", pgm_kbps=kbps(pgm_after), tcp_kbps=kbps(tcp_after),
        receivers=total_receivers,
    )
    result.metrics.update(
        pgm_before=pgm_before,
        pgm_after=pgm_after,
        tcp_before=tcp_before,
        tcp_after=tcp_after,
        change_ratio=change,
        acker_switches=session.acker_switches,
        rdata_sent=session.sender.rdata_sent,
        odata_sent=session.sender.odata_sent,
        stalls=session.sender.controller.stalls,
    )
    result.attach_telemetry(session, seed=seed)
    session.close()
    tcp.close()
    return result
