"""EXP-ADVERSARIAL: misbehaving receivers vs the sender-side guard.

pgmcc's control loop runs on unauthenticated receiver feedback (§3.2,
§3.5): the acker election believes every reported ``rx_loss`` and the
window clock believes every ACK.  This experiment measures what each
attack from :mod:`repro.pgm.misbehavior` costs the *compliant* part of
the group — and a TCP flow sharing the bottleneck — with the
:class:`~repro.pgm.guard.FeedbackGuard` off versus on.

Setup mirrors Fig. 4's inter-fairness scene: one pgmcc session (six
receivers, ``r0`` the attacker) shares the non-lossy bottleneck with
one TCP flow.  :func:`run_cell` is one (attack, guard) pair; the
registered EXP-ADV study runs the ten pairs of its table.  The headline scenario is the greedy
acker — ackership capture plus optimistic ACKs (it learns the
sender's true lead from SPMs, so every claim is individually
plausible) — which guard-off drives the session far past its
TCP-fair share: the bottleneck drowns in unrepairable queue loss,
in-order delivery at compliant receivers collapses, and the TCP flow
starves.  Guard-on, the cross-channel checks (ACKs overtaking the
attacker's own reported lead; a claimed loss rate contradicting its
loss-free bitmaps) quarantine the attacker within seconds, the §3.6
machinery re-elects an honest acker, and the compliant group runs
within a few percent of the attack-free baseline.

The baseline cell runs with the guard *enabled* deliberately: an
all-honest group must show zero quarantines (no false positives).
Every session runs under the runtime invariant checker, including the
quarantined-receivers-are-never-ackers rule.
"""

from __future__ import annotations

from typing import Optional

from ..analysis import throughput_bps
from ..core.sender_cc import CcConfig
from ..pgm import create_session
from ..pgm import constants as C
from ..pgm.misbehavior import AckReplay, GreedyAcker, NakStorm, Throttler
from ..simulator import NON_LOSSY, dumbbell
from ..simulator.faults import FaultPlan, LinkImpairment
from ..tcp import create_tcp_flow
from .common import ExperimentResult

#: The group: six receivers, the misbehaving one always among them.
N_RECEIVERS = 6
ATTACKER = "r0"

#: Sender rate cap: bounds the optimistic-ACK blow-up at 4x the
#: bottleneck so guard-off runs terminate in reasonable wall time
#: (without a cap the attack climbs until the access links saturate).
MAX_RATE_BPS = 2_000_000


def _attack_plan(attack: str, duration: float) -> Optional[FaultPlan]:
    """The attack starts 15% in (after the honest session settles)."""
    if attack == "baseline":
        return None
    at = 0.15 * duration
    until_end = duration - at
    episodes = {
        "greedy-acker": (GreedyAcker(ATTACKER, at=at),),
        "throttler": (Throttler(ATTACKER, at=at),),
        "nak-storm": (NakStorm(ATTACKER, at=at, duration=until_end,
                               rate=150.0),),
        # The sender only listens to ACKs from a current/former acker,
        # so the replayer needs the seat: a mild downstream impairment
        # makes r0 the honestly-worst receiver (elected per §3.5), and
        # it then replays its own genuine ACKs — stale duplicate
        # feedback that distorts the sender's clock (spurious dupack
        # losses and stall-timer refreshes).  "impaired" runs the same
        # impairment without the replay: the honest anchor the guard-on
        # replay run should land back on.
        "impaired": (
            LinkImpairment("R1", ATTACKER, at=at, duration=until_end,
                           loss_rate=0.05, both=False),
        ),
        "ack-replay": (
            LinkImpairment("R1", ATTACKER, at=at, duration=until_end,
                           loss_rate=0.05, both=False),
            AckReplay(ATTACKER, at=at, duration=until_end,
                      copies=3, interval=0.05),
        ),
    }
    return FaultPlan(episodes[attack])


def run_cell(scale: float = 1.0, seed: int = 97, attack: str = "baseline",
             guard: bool = True) -> ExperimentResult:
    """One session + one competing TCP flow, under one attack (or none:
    ``"baseline"``) with the guard on or off.

    Compliant goodput is the mean *in-order delivery* rate over the
    non-attacker receivers in the final two-thirds of the run —
    reliability as the application sees it, which is what repair
    starvation destroys.
    """
    duration = 60.0 * scale
    net = dumbbell(2, N_RECEIVERS + 1, NON_LOSSY, seed=seed)
    names = [f"r{i}" for i in range(N_RECEIVERS)]
    # Fig. 4's paper configuration, where pgmcc and TCP share fairly.
    cc = CcConfig(c=1.0, dupack_threshold=3, ssthresh=6)
    session = create_session(
        net, "h0", names, cc=cc,
        faults=_attack_plan(attack, duration),
        guard=guard,
        max_rate_bps=MAX_RATE_BPS,
        check_invariants=True, strict_invariants=False,
    )
    tcp = create_tcp_flow(net, "h1", f"r{N_RECEIVERS}")

    compliant = [rx for rx in session.receivers if rx.rx_id != ATTACKER]
    for rx in compliant:
        rx.deliver = lambda *_: None  # reliable in-order counting
    t0 = duration / 3.0
    snapshot: dict[str, int] = {}
    net.sim.schedule_at(
        t0, lambda: snapshot.update({rx.rx_id: rx.delivered for rx in compliant})
    )
    net.run(until=duration)
    session.invariants.verify_now()

    window = duration - t0
    per_rx = [
        (rx.delivered - snapshot[rx.rx_id]) * 8.0 * C.DEFAULT_PAYLOAD / window
        for rx in compliant
    ]
    feedback_guard = session.guard
    case = {
        "compliant_bps": sum(per_rx) / len(per_rx),
        "tx_bps": throughput_bps(session.trace, t0, duration),
        "tcp_bps": tcp.throughput_bps(t0, duration),
        "quarantines": (feedback_guard.summary()["quarantines"]
                        if feedback_guard else 0),
        "control_blocked": (feedback_guard.control_blocked
                            if feedback_guard else 0),
        "acker_evictions": session.sender.controller.acker_evictions,
        "attacker_is_acker": session.sender.controller.current_acker == ATTACKER,
        "unrecoverable": sum(rx.unrecoverable_data_loss for rx in compliant),
        "invariant_violations": len(session.invariants.violations),
    }
    session.close()
    tcp.close()
    return ExperimentResult(
        name="adversarial-receivers",
        params={"scale": scale, "seed": seed, "attack": attack,
                "guard": guard, "attacker": ATTACKER},
        metrics=case,
        expectation=(
            "guard off, a single greedy acker (ackership capture + "
            "optimistic ACKs) drives the session far past its TCP-fair "
            "share: compliant in-order goodput collapses and the "
            "competing TCP flow starves; guard on, the attacker is "
            "quarantined within seconds and the compliant group runs "
            "within 10% of the attack-free baseline with zero "
            "invariant violations and zero false quarantines"
        ),
    )
