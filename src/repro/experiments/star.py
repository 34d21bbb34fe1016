"""The Fig. 7 star (§4.5): receivers behind independent 1 %-loss leaves.

One source, ``n_receivers`` receivers each behind its own leaf with 1 %
random loss, and one TCP flow on an identical but separate leaf.
:func:`run_cell` runs one sender on it: ``pgmcc``, the paper's scheme
(with ``redundancy = r``, unreliable mode with a systematic (k, k+r) FEC
source, the repair §4.5's closing caveat asks for at scale);
``eq-naive``, an equation-based sender counting NAKs per packet sent
(session loss ≈ N·p, so rate ∝ 1/√N: §2.1's drop-to-zero [23]); or
``eq-max``, the same sender following the worst receiver-filtered
report.

The defaults are EXP-F7: 10 receivers and TCP start at t = 0 and 90
more receivers join at 0.6 of the run, which must not appreciably change
the session's throughput, nor TCP's on its own leaf.  EXP-FEC runs 60
receivers with RDATA repair and FEC r = 0, 1, 2; EXP-DTZ runs the three
senders at N = 1, 10 and 40, and :func:`aggregate_cells` builds its
N x scheme table.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import throughput_bps
from ..baselines import EquationRateSender
from ..pgm import add_receiver, create_session
from ..pgm.fec import FecAssembler, FecSource, attach_fec_receiver
from ..pgm.receiver import PgmReceiver
from ..simulator import LinkSpec, Network, star
from ..tcp import create_tcp_flow
from .common import ExperimentResult, kbps

#: each receiver's independent link: 1 % random loss (the paper), high
#: statistical multiplexing -> loss-determined rate.
LEAF = LinkSpec(rate_bps=2_000_000, delay=0.230, queue_bytes=30_000, loss_rate=0.01)
ACCESS = LinkSpec(rate_bps=100_000_000, delay=0.0005, queue_slots=2000)
#: data packets per FEC block
K = 16
#: RTT of the leaf path (2 × 230 ms) for the equation senders
PATH_RTT = 0.46


def build(n_receivers: int, seed: int) -> Network:
    net = star(n_receivers, LEAF, access=ACCESS, seed=seed)
    net.add_host("ts")
    net.duplex_link("ts", "R0", ACCESS)
    net.add_host("tr")
    net.duplex_link("R0", "tr", LEAF)
    net.build_routes()
    return net


def check_cell(n_receivers: int, joiners: int, scheme: str,
               redundancy: Optional[int], **_) -> None:
    """:func:`run_cell`'s limits across parameters, which the registry
    checks for every cell before any runs (the other values pass)."""
    fec = redundancy is not None
    if joiners >= n_receivers or joiners and (fec or scheme != "pgmcc"):
        raise ValueError(f"joiners={joiners}: only plain pgmcc takes "
                         f"joiners, and one of the {n_receivers} receivers "
                         "must start the session")
    if fec and scheme != "pgmcc":
        raise ValueError(f"redundancy={redundancy}: {scheme} sends no FEC")


def run_cell(scale: float = 1.0, seed: int = 17, n_receivers: int = 100,
             joiners: int = 90, scheme: str = "pgmcc",
             redundancy: Optional[int] = None, tcp: bool = True,
             duration: float = 500.0) -> ExperimentResult:
    """One sender on the star for ``duration × scale`` seconds: the
    last ``joiners`` receivers join plain pgmcc at 0.6 of the run, and
    ``tcp`` adds the TCP flow on its own leaf.

    Every sender reports its throughput (``pgm_before``/``pgm_after``
    around the join time, ``rate`` over the second half, ``goodput_data``
    over the last three quarters); pgmcc adds its session's counters,
    and FEC the residual block loss."""
    check_cell(n_receivers, joiners, scheme, redundancy)
    fec = redundancy is not None
    end = duration * scale
    join_time = 0.6 * end
    net = build(n_receivers, seed)
    names = [f"r{i}" for i in range(n_receivers)]
    first, late = names[:n_receivers - joiners], names[n_receivers - joiners:]
    session = None
    if scheme == "pgmcc":
        session = create_session(
            net, "src", first, reliable=not fec,
            source=FecSource(K, redundancy) if fec else None)
        for name in late:
            add_receiver(net, session, name, at=join_time)
        trace = session.trace
        if fec:
            assemblers = [FecAssembler() for _ in session.receivers]
            for rx, assembler in zip(session.receivers, assemblers):
                attach_fec_receiver(rx, assembler)
    else:
        net.set_group("mc:dtz", "src", first)
        sender = EquationRateSender(
            net.host("src"), "mc:dtz", tsi=900,
            aggregation="nak-count" if scheme == "eq-naive" else "max-report",
            rtt_estimate=PATH_RTT)
        receivers = [
            PgmReceiver(net.host(m), "mc:dtz", 900, "src", reliable=False,
                        rng=net.rng.stream(f"dtz:{m}"))
            for m in first
        ]
        net.sim.schedule(0.0, sender.start)
        trace = sender.trace
    flow = create_tcp_flow(net, "ts", "tr") if tcp else None
    net.run(until=end)

    before = (join_time / 3, join_time)
    after = (join_time + (end - join_time) / 5, end)
    pgm_before = throughput_bps(trace, *before)
    pgm_after = throughput_bps(trace, *after)
    goodput = throughput_bps(trace, end / 4, end)
    result = ExperimentResult(
        name="star",
        params={"scale": scale, "seed": seed, "n_receivers": n_receivers,
                "joiners": joiners, "scheme": scheme,
                "redundancy": redundancy, "tcp": tcp, "duration": duration},
        metrics={
            "pgm_before": pgm_before,
            "pgm_after": pgm_after,
            "change_ratio": (pgm_after / pgm_before if pgm_before > 0
                             else float("inf")),
            "rate": throughput_bps(trace, end / 2, end),
            # FEC parity is no data
            "goodput_data": (goodput * K / (K + redundancy) if fec
                             else goodput),
        },
        expectation=(
            "pgmcc holds its rate as the group grows or 90 receivers with "
            "independent 1% loss join (no drop-to-zero), and TCP on its "
            "own identical leaf is unaffected; naive NAK-count aggregation "
            "collapses roughly as 1/sqrt(N) while worst-report "
            "aggregation holds; retransmission repair grows with the "
            "group, while FEC with ~11% parity (r=2, k=16) sends no "
            "repairs and leaves near-zero residual loss"
        ),
    )
    if session is not None:
        odata, rdata = session.sender.odata_sent, session.sender.rdata_sent
        result.metrics.update(
            acker_switches=session.acker_switches, odata_sent=odata,
            rdata_sent=rdata, repair_share=rdata / max(odata, 1),
            stalls=session.sender.controller.stalls)
    if fec:
        residuals = [a.residual_block_loss() for a in assemblers]
        result.metrics.update(mean_residual=sum(residuals) / len(residuals),
                              worst_residual=max(residuals))
    if flow is not None:  # Fig. 7's table and telemetry; cells keep to numbers
        tcp_before = throughput_bps(flow.trace, *before)
        tcp_after = throughput_bps(flow.trace, *after)
        result.metrics.update(tcp_before=tcp_before, tcp_after=tcp_after)
        result.add_row(window="before join", pgm_kbps=kbps(pgm_before),
                       tcp_kbps=kbps(tcp_before), receivers=len(first))
        result.add_row(window="after join", pgm_kbps=kbps(pgm_after),
                       tcp_kbps=kbps(tcp_after), receivers=n_receivers)
        if session is not None:
            result.attach_telemetry(session, seed=seed)
        flow.close()
    for agent in (session,) if session else (sender, *receivers):
        agent.close()
    return result


def aggregate_cells(cells: list) -> dict:
    """The EXP-DTZ study's aggregate hook: the N x scheme rate table
    (kbit/s) and each scheme's ``collapse``, its rate at the smallest
    group over its rate at the largest.

    ``cells`` is ``[(axes_dict, ExperimentResult), ...]`` as handed
    over by :func:`repro.sweep.aggregate.run_custom_aggregate`.
    """
    rates: dict[str, dict[int, float]] = {}
    for axes, result in cells:
        rates.setdefault(axes["scheme"], {})[axes["n_receivers"]] = (
            result.metrics["rate"])
    sizes = sorted({n for by_n in rates.values() for n in by_n})
    rows = [{"receivers": n,
             **{f"{scheme}_kbps": kbps(by_n[n])
                for scheme, by_n in rates.items() if n in by_n}}
            for n in sizes]
    collapse = {scheme: by_n[min(by_n)] / max(by_n[max(by_n)], 1.0)
                for scheme, by_n in rates.items()}
    return {"rows": rows, "metrics": {"collapse": collapse}}
