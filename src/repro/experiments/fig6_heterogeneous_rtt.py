"""EXP-F6 — Fig. 6: shared bottleneck, receivers with spread RTTs.

A TCP session and a PGM session share one bottleneck; the PGM
receivers sit behind access links with widely different propagation
delays, some larger and some smaller than the TCP path's.  All losses
happen at the shared bottleneck.

Fig. 6 is a topology illustration with a qualitative discussion, not a
data plot.  The paper's points, which this experiment measures:

* the acker is one of the receivers "but not necessarily the one with
  the highest RTT" — with NE suppression the NAKs *reaching the
  source* come overwhelmingly from the short-RTT receivers, because
  per-segment they race to the NE first and suppress the rest;
* whichever receiver is elected, this "should not be seen as a source
  of unfairness": multiple TCPs with different RTTs share unevenly
  too, so the PGM session behaving like one of its members (slow or
  fast) is TCP-compatible on the shared path — neither flow starves.

We therefore report, per suppression mode (one cell of the registered
EXP-F6 study each): the origin distribution of NAKs arriving at the
source, acker occupancy, and the TCP/PGM rate ratio compared against
the RTT ratio a pure-TCP pair would exhibit.
"""

from __future__ import annotations

from ..analysis import acker_occupancy, throughput_bps, throughput_ratio
from ..core.sender_cc import CcConfig
from ..pgm import create_session, enable_network_elements
from ..simulator import ACCESS, LinkSpec, Network
from ..tcp import create_tcp_flow
from .common import ExperimentResult

#: one-way extra delays of the PGM receivers (seconds); the TCP
#: receiver sits at 0.100 — two PGM RTTs below it, two above.
RECEIVER_DELAYS = (0.005, 0.050, 0.200, 0.400)
TCP_DELAY = 0.100

BOTTLENECK = LinkSpec(rate_bps=500_000, delay=0.020, queue_slots=30)


def build(seed: int) -> Network:
    net = Network(seed=seed)
    net.add_host("src")
    net.add_host("ts")
    net.add_router("R0")
    net.add_router("R1")
    net.duplex_link("src", "R0", ACCESS)
    net.duplex_link("ts", "R0", ACCESS)
    net.duplex_link("R0", "R1", BOTTLENECK)
    for i, delay in enumerate(RECEIVER_DELAYS):
        name = f"pr{i}"
        net.add_host(name)
        net.duplex_link("R1", name, LinkSpec(100_000_000, delay, queue_slots=1000))
    net.add_host("tr")
    net.duplex_link("R1", "tr", LinkSpec(100_000_000, TCP_DELAY, queue_slots=1000))
    net.build_routes()
    return net


def run_cell(scale: float = 1.0, seed: int = 13, suppression: bool = False,
             rx_loss_aware: bool = False) -> ExperimentResult:
    """One suppression mode (the EXP-F6 study runs no NE, plain NE
    suppression and the rx_loss-aware NE): rates, acker occupancy and
    where the NAKs reaching the source came from."""
    duration = 240.0 * scale
    net = build(seed)
    elements = {}
    if suppression:
        elements = enable_network_elements(net, ["R0", "R1"], rx_loss_aware=rx_loss_aware)
    receivers = [f"pr{i}" for i in range(len(RECEIVER_DELAYS))]
    session = create_session(net, "src", receivers, cc=CcConfig(c=0.75))
    tcp = create_tcp_flow(net, "ts", "tr", start_at=duration / 6)
    net.run(until=duration)

    window = (duration / 3, duration)
    pgm_rate = throughput_bps(session.trace, *window)
    tcp_rate = throughput_bps(tcp.trace, *window)
    # Time-weighted acker occupancy over the competition window.
    occupancy = acker_occupancy(
        session.sender.controller.election.switches, window[0], window[1]
    )
    dominant = max(occupancy, key=occupancy.get) if occupancy else None
    origins = dict(session.sender.nak_origins)
    total_naks = sum(origins.values()) or 1
    # Share of source-reaching NAKs that came from the two short-RTT
    # receivers (pr0, pr1) — the quantity suppression skews.
    short_rtt_share = (origins.get("pr0", 0) + origins.get("pr1", 0)) / total_naks
    case = {
        "pgm_rate": pgm_rate,
        "tcp_rate": tcp_rate,
        "ratio": throughput_ratio(pgm_rate, tcp_rate),
        "dominant_acker": dominant,
        "dominant_delay": (
            RECEIVER_DELAYS[int(dominant[2:])] if dominant else None
        ),
        "occupancy": occupancy,
        "switches": session.acker_switches,
        "naks_at_source": session.sender.naks_received,
        "nak_origins": origins,
        "short_rtt_nak_share": short_rtt_share,
        "ne_naks_suppressed": sum(ne.naks_suppressed for ne in elements.values()),
        "ne_naks_forwarded": sum(ne.naks_forwarded for ne in elements.values()),
    }
    session.close()
    tcp.close()
    return ExperimentResult(
        name="fig6-heterogeneous-rtt",
        params={"scale": scale, "seed": seed, "suppression": suppression,
                "rx_loss_aware": rx_loss_aware,
                "receiver_delays": RECEIVER_DELAYS, "tcp_delay": TCP_DELAY},
        metrics=case,
        expectation=(
            "the acker is one of the receivers but not necessarily the "
            "highest-RTT one; with NE suppression the reports reaching "
            "the source come mostly from short-RTT receivers; TCP is "
            "not starved either way (with different RTTs there is no "
            "single TCP-fair rate — the PGM/TCP ratio stays within the "
            "unfairness multiple TCPs with those RTTs would show)"
        ),
    )
