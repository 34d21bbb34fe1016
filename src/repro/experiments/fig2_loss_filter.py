"""EXP-F2 — Fig. 2: loss-rate computation at receivers.

The figure shows the output of the receiver loss filter, for three
values of the smoothing constant W, over two loss patterns:

* *congested*: a 60 kbit/s link carrying a single session — losses
  are sparse (queue-overflow only) and the overall loss rate is low;
* *lossy*: a link with 5 % random loss, modelling an overloaded link
  with very high statistical multiplexing.

We run each scenario once, capture the receiver's raw binary loss
signal through the ``sample_observer`` hook, then replay the same
pattern through filters with the three W values — exactly how the
figure overlays the three responses on one pattern.  The y axis of the
paper is the filter output times 2^16, i.e. our fixed-point value.
"""

from __future__ import annotations

from ..core.loss_filter import LossRateFilter
from ..pgm import create_session
from ..simulator import ACCESS, LinkSpec, Network
from .common import ExperimentResult

#: the W values plotted in Fig. 2 (the paper's own is 65000).
FILTER_WS = (64000, 65000, 65280)

CONGESTED = LinkSpec(rate_bps=60_000, delay=0.050, queue_slots=8)
LOSSY_5PCT = LinkSpec(rate_bps=2_000_000, delay=0.230, queue_bytes=30_000, loss_rate=0.05)


def _capture_pattern(spec: LinkSpec, duration: float, seed: int,
                     payload_size: int) -> list[bool]:
    """Run one single-receiver session over ``spec``; return the
    receiver's binary loss signal (True = lost slot)."""
    net = Network(seed=seed)
    net.add_host("src")
    net.add_router("R0")
    net.add_host("rx")
    net.duplex_link("src", "R0", ACCESS)
    net.duplex_link("R0", "rx", spec)
    net.build_routes()
    session = create_session(net, "src", ["rx"], payload_size=payload_size)
    pattern: list[bool] = []
    session.receivers[0].cc.sample_observer = lambda seq, lost: pattern.append(lost)
    net.run(until=duration)
    session.close()
    return pattern


def replay_filters(pattern: list[bool], ws: tuple[int, ...] = FILTER_WS) -> dict[int, list[int]]:
    """Filter one loss pattern with each W; returns fixed-point series."""
    series: dict[int, list[int]] = {}
    for w in ws:
        filt = LossRateFilter(w)
        series[w] = [filt.update(lost) for lost in pattern]
    return series


def run(scale: float = 1.0, seed: int = 42) -> ExperimentResult:
    """Run both Fig. 2 scenarios; returns per-(scenario, W) statistics."""
    result = ExperimentResult(
        name="fig2-loss-filter",
        params={"scale": scale, "seed": seed, "ws": FILTER_WS},
        expectation=(
            "congested link: sparse loss spikes decaying between events; "
            "5% lossy link: filter output fluctuates around 0.05*2^16≈3277 "
            "(the 2000–6000 band of the figure); smaller W = noisier output"
        ),
    )
    scenarios = {
        # Small payload on the slow link so enough packets flow.
        "congested-60k": (_capture_pattern(CONGESTED, 400.0 * scale, seed, 256), None),
        "lossy-5pct": (_capture_pattern(LOSSY_5PCT, 120.0 * scale, seed + 1, 1400), 0.05),
    }
    for scenario, (pattern, nominal) in scenarios.items():
        losses = sum(pattern)
        series = replay_filters(pattern)
        for w, values in series.items():
            # Discard the filter's warm-up (about 3 time constants).
            settle = min(len(values) // 2, 2000)
            steady = values[settle:] or values
            mean = sum(steady) / len(steady)
            result.add_row(
                scenario=scenario,
                w=w,
                samples=len(pattern),
                raw_loss=round(losses / max(len(pattern), 1), 4),
                mean_output=round(mean, 1),
                mean_loss_rate=round(mean / 65536, 4),
                peak_output=max(steady),
            )
            result.metrics[f"{scenario}:w{w}:mean"] = mean
            result.metrics[f"{scenario}:w{w}:std"] = _std(steady)
        result.metrics[f"{scenario}:raw_loss"] = losses / max(len(pattern), 1)
        if nominal is not None:
            result.metrics[f"{scenario}:nominal"] = nominal
    return result


def _std(values: list[int]) -> float:
    mean = sum(values) / len(values)
    return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5
