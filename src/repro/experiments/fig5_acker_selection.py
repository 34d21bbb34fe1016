"""EXP-F5 — Fig. 5: acker selection across independent bottlenecks.

The topology: the pgmcc source feeds PR2 over link L2 (500 kbit/s, 30
slots ≈ 45 KB) and PR1 over link L1 (400 kbit/s, 20 KB); a TCP flow
shares L2.  Both links have 50 ms propagation delay.  Staged events:

1. PR2 starts alone               → session runs at ≈500 kbit/s;
2. PR1 joins                      → acker switches to PR1, ≈400 kbit/s;
3. TCP starts on L2               → L2's fair share drops below L1's
                                    rate, acker moves to PR2, pgmcc at
                                    ≈220 kbit/s (the paper's number);
4. TCP terminates                 → PR2 lets the rate climb toward
                                    500 kbit/s, congesting L1 → acker
                                    returns to PR1, settling ≈400.

The paper ran this with c = 0.75 and reports identical results from
the real implementation and NS with up to 10 receivers per site.
"""

from __future__ import annotations

from ..analysis import plateau_rate
from ..core.sender_cc import CcConfig
from ..pgm import add_receiver, create_session
from ..simulator import ACCESS, LinkSpec, two_bottleneck
from .common import ExperimentResult, kbps

L1 = LinkSpec(rate_bps=400_000, delay=0.050, queue_bytes=20_000)
L2 = LinkSpec(rate_bps=500_000, delay=0.050, queue_slots=30)


def run(
    scale: float = 1.0,
    seed: int = 5,
    c: float = 0.75,
    rtt_mode: str = "seq",
    receivers_per_site: int = 1,
) -> ExperimentResult:
    duration = 300.0 * scale
    pr1_join = 60.0 * scale
    tcp_start = 120.0 * scale
    tcp_stop = 220.0 * scale

    net = two_bottleneck(L1, L2, seed=seed)
    # Optional extra receivers per site (the NS variant of the figure).
    extra = []
    for i in range(1, receivers_per_site):
        for site, router in (("pr1", "R1"), ("pr2", "R2")):
            name = f"{site}_{i}"
            net.add_host(name)
            net.duplex_link(router, name, ACCESS)
            extra.append((name, site))
    net.build_routes()

    session = create_session(
        net, "src", ["pr2"], cc=CcConfig(c=c, rtt_mode=rtt_mode),
        echo_timestamps=(rtt_mode == "time"),
    )
    add_receiver(net, session, "pr1", at=pr1_join)
    for name, site in extra:
        at = pr1_join if site == "pr1" else 1.0
        add_receiver(net, session, name, at=at)
    tcp = create_tcp_flow_on_l2(net, tcp_start, tcp_stop)
    net.run(until=duration)

    # Plateau rates in each phase (skipping transition edges).
    p1 = plateau_rate(session.trace, pr1_join * 0.3, pr1_join)
    p2 = plateau_rate(session.trace, pr1_join + (tcp_start - pr1_join) * 0.3, tcp_start)
    p3 = plateau_rate(session.trace, tcp_start + (tcp_stop - tcp_start) * 0.3, tcp_stop)
    p4 = plateau_rate(session.trace, min(tcp_stop + 30.0 * scale, duration - 1), duration)
    tcp_rate = plateau_rate(tcp.trace, tcp_start + (tcp_stop - tcp_start) * 0.3, tcp_stop)

    switches = session.sender.controller.election.switches
    ackers_by_phase = {
        "phase1": _acker_at(switches, tcp_start * 0.5),
        "phase2": _acker_at(switches, (pr1_join + tcp_start) / 2),
        "phase3": _acker_at(switches, (tcp_start + tcp_stop) / 2),
        "phase4": _acker_at(switches, (tcp_stop + duration) / 2),
    }

    result = ExperimentResult(
        name="fig5-acker-selection",
        params={
            "scale": scale, "seed": seed, "c": c, "rtt_mode": rtt_mode,
            "receivers_per_site": receivers_per_site,
        },
        expectation=(
            "rate plateaus ≈500 (PR2 alone) → ≈400 (PR1 joins, becomes "
            "acker) → ≈220 kbit/s (TCP competes on L2 and PR2's fair "
            "share drops below L1's rate, acker returns to PR2) → "
            "recovery toward 400 after TCP ends (acker back to PR1); "
            "an acker switch marks every transition"
        ),
    )
    result.add_row(phase="PR2 alone", plateau_kbps=kbps(p1), acker=ackers_by_phase["phase1"])
    result.add_row(phase="PR1 joined", plateau_kbps=kbps(p2), acker=ackers_by_phase["phase2"])
    result.add_row(phase="TCP active", plateau_kbps=kbps(p3), acker=ackers_by_phase["phase3"])
    result.add_row(phase="TCP ended", plateau_kbps=kbps(p4), acker=ackers_by_phase["phase4"])
    result.metrics.update(
        plateau1=p1, plateau2=p2, plateau3=p3, plateau4=p4,
        tcp_rate=tcp_rate,
        switch_count=len(switches),
        switch_times=[round(s.time, 2) for s in switches],
        ackers=ackers_by_phase,
        pr1_join=pr1_join, tcp_start=tcp_start, tcp_stop=tcp_stop,
    )
    result.attach_telemetry(session, seed=seed)
    session.close()
    tcp.close()
    return result


def create_tcp_flow_on_l2(net, start_at: float, stop_at: float):
    from ..tcp import create_tcp_flow

    return create_tcp_flow(net, "ts", "tr", start_at=start_at, stop_at=stop_at)


def _acker_at(switches, time: float):
    """Acker in charge at ``time`` given the switch history."""
    current = None
    for s in switches:
        if s.time > time:
            break
        current = s.new
    return current
