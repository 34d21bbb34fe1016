"""EXP-ADVERSARIAL: misbehaving receivers vs the sender-side guard.

pgmcc's control loop runs on unauthenticated receiver feedback (§3.2,
§3.5): the acker election believes every reported ``rx_loss`` and the
window clock believes every ACK.  This experiment measures what each
attack from :mod:`repro.pgm.misbehavior` costs the *compliant* part of
the group — and a TCP flow sharing the bottleneck — with the
:class:`~repro.pgm.guard.FeedbackGuard` off versus on.

Setup mirrors Fig. 4's inter-fairness scene: one pgmcc session
(``n_receivers`` receivers, ``r0`` the attacker) shares the non-lossy
bottleneck with one TCP flow.  The headline scenario is the greedy
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

The baseline row runs with the guard *enabled* deliberately: an
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
from .common import ExperimentResult, kbps

#: The misbehaving receiver (always present in the group).
ATTACKER = "r0"

#: Sender rate cap: bounds the optimistic-ACK blow-up at 4x the
#: bottleneck so guard-off runs terminate in reasonable wall time
#: (without a cap the attack climbs until the access links saturate).
MAX_RATE_BPS = 2_000_000


def _attack_plan(kind: Optional[str], duration: float) -> Optional[FaultPlan]:
    """The attack starts 15% in (after the honest session settles)."""
    if kind is None:
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
    return FaultPlan(episodes[kind])


def run_scenario(
    kind: Optional[str],
    guard_on: bool,
    duration: float,
    seed: int = 97,
    n_receivers: int = 6,
    result: Optional[ExperimentResult] = None,
) -> dict:
    """One session + one competing TCP flow; returns the measurements.

    ``kind`` is a misbehavior episode kind (or None for the attack-free
    baseline).  Compliant goodput is the mean *in-order delivery* rate
    over the non-attacker receivers in the final two-thirds of the run
    — reliability as the application sees it, which is what repair
    starvation destroys.
    """
    net = dumbbell(2, n_receivers + 1, NON_LOSSY, seed=seed)
    names = [f"r{i}" for i in range(n_receivers)]
    # Fig. 4's paper configuration, where pgmcc and TCP share fairly.
    cc = CcConfig(c=1.0, dupack_threshold=3, ssthresh=6)
    session = create_session(
        net, "h0", names, cc=cc,
        faults=_attack_plan(kind, duration),
        guard=guard_on,
        max_rate_bps=MAX_RATE_BPS,
        check_invariants=True, strict_invariants=False,
    )
    tcp = create_tcp_flow(net, "h1", f"r{n_receivers}")

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
    guard = session.guard
    out = {
        "kind": kind or "baseline",
        "guard": guard_on,
        "compliant_bps": sum(per_rx) / len(per_rx),
        "tx_bps": throughput_bps(session.trace, t0, duration),
        "tcp_bps": tcp.throughput_bps(t0, duration),
        "quarantines": guard.summary()["quarantines"] if guard else 0,
        "control_blocked": guard.control_blocked if guard else 0,
        "acker_evictions": session.sender.controller.acker_evictions,
        "attacker_is_acker": session.sender.controller.current_acker == ATTACKER,
        "unrecoverable": sum(rx.unrecoverable_data_loss for rx in compliant),
        "invariant_violations": len(session.invariants.violations),
    }
    if result is not None:
        result.attach_telemetry(session, seed=seed, attack=kind or "baseline",
                                guard=guard_on)
    session.close()
    tcp.close()
    return out


#: (kind, guard_on) for every table row, headline attack first.
SCENARIOS: tuple[tuple[Optional[str], bool], ...] = (
    (None, True),
    ("greedy-acker", False),
    ("greedy-acker", True),
    ("throttler", False),
    ("throttler", True),
    ("nak-storm", False),
    ("nak-storm", True),
    ("impaired", True),
    ("ack-replay", False),
    ("ack-replay", True),
)


def run(scale: float = 1.0, seed: int = 97,
        n_receivers: int = 6) -> ExperimentResult:
    duration = 60.0 * scale
    result = ExperimentResult(
        name="adversarial-receivers",
        params={"scale": scale, "seed": seed, "n_receivers": n_receivers,
                "attacker": ATTACKER},
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
    for kind, guard_on in SCENARIOS:
        # Ship one session-metrics document: the headline attack with
        # the guard engaged (the configuration the claim is about).
        attach_to = result if (kind == "greedy-acker" and guard_on) else None
        row = run_scenario(kind, guard_on, duration, seed=seed,
                           n_receivers=n_receivers, result=attach_to)
        result.add_row(
            attack=row["kind"],
            guard="on" if guard_on else "off",
            compliant_kbps=kbps(row["compliant_bps"]),
            tx_kbps=kbps(row["tx_bps"]),
            tcp_kbps=kbps(row["tcp_bps"]),
            quarantines=row["quarantines"],
            evictions=row["acker_evictions"],
            unrecoverable=row["unrecoverable"],
            inv_violations=row["invariant_violations"],
        )
        prefix = f"{row['kind']}:{'on' if guard_on else 'off'}"
        for key in ("compliant_bps", "tx_bps", "tcp_bps", "quarantines",
                    "control_blocked", "acker_evictions", "attacker_is_acker",
                    "unrecoverable", "invariant_violations"):
            result.metrics[f"{prefix}:{key}"] = row[key]
    return result
