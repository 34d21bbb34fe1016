"""EXP-DTZ — the drop-to-zero problem (§2.1, [23]) vs pgmcc (§4.5).

Single-rate schemes that aggregate loss reports improperly at the
source estimate a session loss far above what any individual receiver
sees, and their equation-driven rate collapses as the group grows.
pgmcc never computes loss at the source: receivers filter their own
loss, and the controller follows one representative.

This experiment puts three controllers on the same topology — N
receivers behind *independent* links with 1 % random loss (the Fig. 7
population) — and sweeps N:

* ``eq-naive``: equation-based sender counting NAKs per packet sent
  (session loss ≈ N·p → rate ∝ 1/√N: drop-to-zero);
* ``eq-max``: the same sender using the worst receiver-filtered
  report (group-size independent);
* ``pgmcc``: the paper's scheme.

:func:`run_cell` is one controller at one N; the registered EXP-DTZ
study runs the nine, each N at its own seed, and
:func:`aggregate_cells` builds the N x controller table.

Expected shape: the naive controller's rate falls roughly as 1/√N
while the other two stay flat at the single-receiver TCP-fair rate.
"""

from __future__ import annotations

from ..analysis import throughput_bps
from ..baselines import EquationRateSender
from ..pgm import create_session
from ..pgm.receiver import PgmReceiver
from .common import ExperimentResult, kbps
from .fig7_uncorrelated_loss import build

#: RTT of the leaf path (2 × 230 ms) for the equation controllers.
PATH_RTT = 0.46


def _run_equation(n_receivers: int, aggregation: str, duration: float,
                  seed: int) -> float:
    net = build(n_receivers, seed)
    group = "mc:dtz"
    members = [f"r{i}" for i in range(n_receivers)]
    net.set_group(group, "src", members)
    sender = EquationRateSender(
        net.host("src"), group, tsi=900, aggregation=aggregation,
        rtt_estimate=PATH_RTT,
    )
    receivers = [
        PgmReceiver(net.host(m), group, 900, "src", reliable=False,
                    rng=net.rng.stream(f"dtz:{m}"))
        for m in members
    ]
    net.sim.schedule(0.0, sender.start)
    net.run(until=duration)
    rate = throughput_bps(sender.trace, duration / 2, duration)
    sender.close()
    for rx in receivers:
        rx.close()
    return rate


def run_cell(scale: float = 1.0, seed: int = 67, scheme: str = "pgmcc",
             n_receivers: int = 1) -> ExperimentResult:
    """One controller (``eq-naive``, ``eq-max`` or ``pgmcc``) at one
    group size: its steady rate."""
    duration = 120.0 * scale
    if scheme == "pgmcc":
        net = build(n_receivers, seed)
        session = create_session(
            net, "src", [f"r{i}" for i in range(n_receivers)]
        )
        net.run(until=duration)
        rate = throughput_bps(session.trace, duration / 2, duration)
        session.close()
    else:
        aggregation = {"eq-naive": "nak-count", "eq-max": "max-report"}[scheme]
        rate = _run_equation(n_receivers, aggregation, duration, seed)
    return ExperimentResult(
        name="drop-to-zero",
        params={"scale": scale, "seed": seed, "scheme": scheme,
                "n_receivers": n_receivers},
        metrics={"rate": rate},
        expectation=(
            "naive NAK-count aggregation collapses roughly as 1/sqrt(N) "
            "with uncorrelated losses (the [23] drop-to-zero problem); "
            "worst-report aggregation and pgmcc hold the single-receiver "
            "TCP-fair rate regardless of group size"
        ),
    )


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
