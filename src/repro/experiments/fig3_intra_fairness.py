"""EXP-F3 — Fig. 3: intra-protocol fairness.

Two pgmcc sessions share one bottleneck.  The first session (started
first) has two receivers, the second has one.  Two bottleneck
configurations, the paper's §4 standards:

* non-lossy: 500 kbit/s, 50 ms, 30 slots — the first session must
  halve its rate when the second starts, then both share evenly;
* lossy: 2 Mbit/s, 230 ms, 30 KB, 3 % random loss — rates are
  loss-determined, so the second session's arrival must not
  appreciably change the first's throughput.

Fig. 3 was run with c = 1 (the paper wanted to show that switches do
not harm the protocol), so that is what runs here.  :func:`run_cell` is
one panel; the registered EXP-F3 study runs it over both links.
"""

from __future__ import annotations

from ..analysis import jain_index, throughput_bps
from ..core.sender_cc import CcConfig
from ..pgm import create_session
from ..simulator import LOSSY, NON_LOSSY, dumbbell
from .common import ExperimentResult


def run_cell(scale: float = 1.0, seed: int = 7,
             link: str = "non-lossy") -> ExperimentResult:
    """One Fig. 3 panel (the EXP-F3 study runs both links): phase
    rates and fairness metrics."""
    duration = 180.0 * scale
    second_start = 60.0 * scale
    spec = {"non-lossy": NON_LOSSY, "lossy": LOSSY}[link]
    net = dumbbell(2, 3, spec, seed=seed)
    s1 = create_session(net, "h0", ["r0", "r1"], cc=CcConfig(c=1.0))
    s2 = create_session(
        net, "h1", ["r2"], cc=CcConfig(c=1.0), start_at=second_start
    )
    net.run(until=duration)

    warmup = min(10.0, second_start / 4)
    phase_a = (warmup, second_start)  # only session 1
    settle = min(15.0, (duration - second_start) / 4)
    phase_b = (second_start + settle, duration)  # both competing
    rate1_b = throughput_bps(s1.trace, *phase_b)
    rate2_b = throughput_bps(s2.trace, *phase_b)
    case = {
        "rate1_alone": throughput_bps(s1.trace, *phase_a),
        "rate1_shared": rate1_b,
        "rate2_shared": rate2_b,
        "jain": jain_index([rate1_b, rate2_b]),
        "switches1": s1.acker_switches,
        "switches2": s2.acker_switches,
        "rdata1": s1.sender.rdata_sent,
        "odata1": s1.sender.odata_sent,
    }
    s1.close()
    s2.close()
    return ExperimentResult(
        name="fig3-intra-fairness",
        params={"scale": scale, "seed": seed, "link": link},
        metrics=case,
        expectation=(
            "non-lossy: session 1 yields ~half its rate when session 2 "
            "starts, even split thereafter (Jain≈1); lossy: session 2's "
            "start leaves session 1's loss-determined rate unchanged"
        ),
    )
