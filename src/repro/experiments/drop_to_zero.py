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


def _run_pgmcc(n_receivers: int, duration: float, seed: int) -> float:
    net = build(n_receivers, seed)
    session = create_session(
        net, "src", [f"r{i}" for i in range(n_receivers)]
    )
    net.run(until=duration)
    rate = throughput_bps(session.trace, duration / 2, duration)
    session.close()
    return rate


def run(
    scale: float = 1.0,
    seed: int = 67,
    group_sizes: tuple[int, ...] = (1, 10, 40),
) -> ExperimentResult:
    duration = 120.0 * scale
    result = ExperimentResult(
        name="drop-to-zero",
        params={"scale": scale, "seed": seed, "group_sizes": group_sizes},
        expectation=(
            "naive NAK-count aggregation collapses roughly as 1/sqrt(N) "
            "with uncorrelated losses (the [23] drop-to-zero problem); "
            "worst-report aggregation and pgmcc hold the single-receiver "
            "TCP-fair rate regardless of group size"
        ),
    )
    schemes = {
        "eq-naive": lambda n, s: _run_equation(n, "nak-count", duration, s),
        "eq-max": lambda n, s: _run_equation(n, "max-report", duration, s),
        "pgmcc": lambda n, s: _run_pgmcc(n, duration, s),
    }
    rates: dict[str, dict[int, float]] = {name: {} for name in schemes}
    for name, runner in schemes.items():
        for i, n in enumerate(group_sizes):
            rates[name][n] = runner(n, seed + i)
    for n in group_sizes:
        result.add_row(
            receivers=n,
            **{f"{name}_kbps": kbps(rates[name][n]) for name in schemes},
        )
    smallest, largest = group_sizes[0], group_sizes[-1]
    for name in schemes:
        base = rates[name][smallest]
        collapsed = rates[name][largest]
        result.metrics[f"{name}:rate@{smallest}"] = base
        result.metrics[f"{name}:rate@{largest}"] = collapsed
        result.metrics[f"{name}:collapse"] = base / max(collapsed, 1.0)
    return result
