"""EXP-FEC — scaling Fig. 7 with FEC repair (§4.5's closing caveat).

The paper: "Much larger scale tests ... cannot be run with simple
retransmission-based repairs, or the repair traffic would quickly
dominate the actual data traffic on the link from the source."  Its
references (RMDP [20], parity-based recovery [13], digital fountain
[1]) repair with FEC instead.

This experiment runs the Fig. 7 population (many receivers behind
independent 1 % loss links) two ways:

* **RDATA**: reliable mode, retransmission repairs — measuring the
  repair share of source traffic;
* **FEC r/k**: unreliable mode with a systematic (k, k+r) block code —
  zero repair traffic; measuring the residual (unrecoverable) block
  loss across all receivers for r = 0, 1, 2.

Expected shape: the RDATA repair share grows with the receiver count,
while modest FEC redundancy (r=2 over k=16, 11 % overhead) drives the
residual loss to ~zero with *constant* source-side traffic.
"""

from __future__ import annotations

from ..analysis import throughput_bps
from ..pgm import create_session
from ..pgm.fec import FecAssembler, FecSource, attach_fec_receiver
from .common import ExperimentResult, kbps
from .fig7_uncorrelated_loss import build

K = 16


def run(
    scale: float = 1.0,
    seed: int = 61,
    n_receivers: int = 60,
    redundancies: tuple[int, ...] = (0, 1, 2),
) -> ExperimentResult:
    duration = 240.0 * scale
    result = ExperimentResult(
        name="fec-scaling",
        params={"scale": scale, "seed": seed, "n_receivers": n_receivers, "k": K},
        expectation=(
            "retransmission repair grows with the receiver count; FEC "
            "with ~11% parity (r=2, k=16) removes repair traffic "
            "entirely and leaves near-zero residual loss at every "
            "receiver"
        ),
    )

    # Baseline: retransmission-based repair (Fig. 7 style).
    net = build(n_receivers, seed)
    session = create_session(
        net, "src", [f"r{i}" for i in range(n_receivers)]
    )
    net.run(until=duration)
    odata, rdata = session.sender.odata_sent, session.sender.rdata_sent
    goodput = throughput_bps(session.trace, duration / 4, duration)
    result.add_row(
        mode="RDATA", overhead=round(rdata / max(odata, 1), 3),
        residual_loss=0.0, goodput_kbps=kbps(goodput),
        source_packets=odata + rdata,
    )
    result.metrics["rdata:repair_share"] = rdata / max(odata, 1)
    result.metrics["rdata:goodput"] = goodput
    session.close()

    # FEC variants: no repair traffic at all.
    for r in redundancies:
        net = build(n_receivers, seed + 1 + r)
        source = FecSource(k=K, redundancy=r)
        session = create_session(
            net, "src", [f"r{i}" for i in range(n_receivers)],
            reliable=False, source=source,
        )
        assemblers = []
        for rx in session.receivers:
            assembler = FecAssembler()
            attach_fec_receiver(rx, assembler)
            assemblers.append(assembler)
        net.run(until=duration)
        residuals = [a.residual_block_loss() for a in assemblers]
        worst = max(residuals)
        mean = sum(residuals) / len(residuals)
        goodput = throughput_bps(session.trace, duration / 4, duration)
        goodput_data = goodput * K / (K + r)
        result.add_row(
            mode=f"FEC r={r}", overhead=round(r / (K + r), 3),
            residual_loss=round(mean, 4), goodput_kbps=kbps(goodput_data),
            source_packets=session.sender.odata_sent,
        )
        result.metrics[f"fec{r}:mean_residual"] = mean
        result.metrics[f"fec{r}:worst_residual"] = worst
        result.metrics[f"fec{r}:rdata"] = session.sender.rdata_sent
        result.metrics[f"fec{r}:goodput_data"] = goodput_data
        session.close()
    return result
