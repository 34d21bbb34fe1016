"""EXP-UNREL — §3.9: pgmcc driving an unreliable, adaptive source.

Reliability off (NAKs are report-only, no RDATA is ever sent); the
application receives the token-generation feedback and adapts its
quality level to the sustainable rate, as a real-time source would.
Run over a lossy link whose random loss sets the fair rate, with the
bottleneck's capacity changing halfway through to show the application
following the transport's feedback.
"""

from __future__ import annotations

from ..analysis import throughput_bps
from ..core.feedback import AdaptiveSource, QualityLevel
from ..core.sender_cc import CcConfig
from ..pgm import create_session
from ..simulator import ACCESS, LinkSpec, Network
from .common import ExperimentResult, kbps

LEVELS = (
    QualityLevel("audio-16k", 16_000),
    QualityLevel("low-64k", 64_000),
    QualityLevel("med-160k", 160_000),
    QualityLevel("high-400k", 400_000),
    QualityLevel("hd-900k", 900_000),
)


def run(scale: float = 1.0, seed: int = 43) -> ExperimentResult:
    duration = 240.0 * scale
    squeeze_at = duration / 2

    net = Network(seed=seed)
    net.add_host("src")
    net.add_router("R0")
    net.add_host("rx")
    net.duplex_link("src", "R0", ACCESS)
    fwd, _ = net.duplex_link(
        "R0", "rx", LinkSpec(rate_bps=600_000, delay=0.100, queue_slots=30, loss_rate=0.005)
    )
    net.build_routes()

    app = AdaptiveSource(list(LEVELS), payload_bytes=1400)
    session = create_session(
        net, "src", ["rx"], cc=CcConfig(), reliable=False,
        on_token=app.on_token,
    )
    # Halfway through, squeeze the bottleneck to a quarter.
    net.sim.schedule_at(squeeze_at, lambda: setattr(fwd, "rate_bps", 150_000))
    net.run(until=duration)

    warm = duration / 8
    rate_before = throughput_bps(session.trace, warm, squeeze_at)
    rate_after = throughput_bps(session.trace, squeeze_at + warm, duration)
    level_before = _level_at(app, squeeze_at)
    level_after = _level_at(app, duration)

    result = ExperimentResult(
        name="unreliable-mode",
        params={"scale": scale, "seed": seed},
        expectation=(
            "the controller works without repairs; token feedback lets "
            "the application track the sustainable rate, stepping its "
            "quality level down when the link is squeezed"
        ),
    )
    result.add_row(window="wide link", rate_kbps=kbps(rate_before), level=level_before)
    result.add_row(window="squeezed", rate_kbps=kbps(rate_after), level=level_after)
    result.metrics.update(
        rate_before=rate_before,
        rate_after=rate_after,
        level_before=level_before,
        level_after=level_after,
        level_changes=list(app.level_changes),
        rdata_sent=session.sender.rdata_sent,
        naks_received=session.sender.naks_received,
        redundancy_share=app.redundancy_share,
    )
    result.attach_telemetry(session, seed=seed)
    session.close()
    return result


def _level_at(app: AdaptiveSource, time: float) -> str:
    current = app.levels[0].name
    for t, name in app.level_changes:
        if t > time:
            break
        current = name
    return current
