"""``PgmSession.summary()`` against the summary it replaced.

The summary used to read each value the metrics registry also carries
straight off the sender, controller, receivers, watchdog and aggregate
manager, and to walk the sender's log itself beside the snapshot's own
walk.  :func:`reference_summary` below is that method, kept verbatim as
the reference; the helpers it called that are gone now (the session's
``malformed_dropped()``, the watchdog's and aggregate manager's full
``summary()`` blocks and the zeroed aggregate block) are inlined as
they were.  On a fixed grid of short sessions, every snapshot — mid-run
and after ``close()`` — must equal it bit for bit, less the two schema
tags it carried.
"""

import json

import pytest

from repro.core.sender_cc import CcConfig
from repro.experiments.resilience import N_RECEIVERS, _fault_plan
from repro.pgm import SessionConfig, create_session, enable_network_elements
from repro.pgm import telemetry
from repro.pgm.telemetry import read_log
from repro.simulator import LinkSpec, NON_LOSSY, dumbbell, dumbbell_subtrees

LOSSY = LinkSpec(rate_bps=500_000, delay=0.050, queue_slots=30,
                 loss_rate=0.02)

#: sim seconds each grid session runs before it is closed
DURATION = 7.0
#: the faulted cells' fault: start and length (sim seconds)
FAULT_AT, FAULT_S = 2.0, 3.0


def _watchdog_summary(watchdog) -> dict:
    return {
        "state": watchdog.state,
        "demotions": watchdog.demotions,
        "degraded_entries": watchdog.degraded_entries,
        "probes_sent": watchdog.probes_sent,
        "repairs_blocked": watchdog.repairs_blocked,
    }


def _aggregate_summary(manager) -> dict:
    modes = {"mirror": 0, "analytic": 0}
    for subtree in manager.subtrees:
        modes[subtree.bank.mode] += 1
    return {
        "enabled": True,
        "population": manager.population,
        "subtrees": len(manager.subtrees),
        "exact_cohort": manager.exact_count(),
        "tail": manager.tail_count(),
        "sampled": manager.sampled_count,
        "promotions": manager.promotions,
        "demotions": manager.demotions,
        "promotions_deferred": manager.promotions_deferred,
        "synthetic_naks": manager.synthetic_naks(),
        "synthetic_fake_naks": manager.synthetic_fake_naks(),
        "modes": modes,
    }


def empty_aggregate_summary() -> dict:
    return {
        "enabled": False, "population": 0, "subtrees": 0,
        "exact_cohort": 0, "tail": 0, "sampled": 0, "promotions": 0,
        "demotions": 0, "promotions_deferred": 0, "synthetic_naks": 0,
        "synthetic_fake_naks": 0,
        "modes": {"mirror": 0, "analytic": 0},
    }


def _malformed_dropped(self) -> int:
    total = self.sender.malformed_dropped + self.sender.insane_dropped
    for rx in self.receivers:
        total += rx.malformed_dropped + rx.insane_dropped
    return total


def reference_summary(self) -> dict:
    controller = self.sender.controller
    watchdog = self.sender.watchdog
    log = read_log(self.trace, self.network.sim.now)
    histograms = self.metrics.snapshot()["histograms"]
    repair = histograms.get("repair.latency_s")
    unrecoverable = sum(
        rx.unrecoverable_data_loss for rx in self.receivers
    )
    recovery = {
        "watchdog": watchdog is not None,
        "state": "normal",
        "demotions": 0,
        "degraded_entries": 0,
        "degraded_time_s": log.degraded_time_s,
        "probes_sent": 0,
        "repairs_blocked": 0,
        "ttr_last_s": log.ttr_samples[-1] if log.ttr_samples else 0.0,
        "ttr_samples": log.ttr_samples,
    }
    if watchdog is not None:
        recovery.update(_watchdog_summary(watchdog))
    recovery["resyncs"] = sum(rx.resyncs for rx in self.receivers)
    recovery["unrecoverable_loss"] = unrecoverable
    aggregate = (
        _aggregate_summary(self.aggregate) if self.aggregate is not None
        else empty_aggregate_summary()
    )
    return {
        "schema": "pgmcc.session-summary/v2",
        "tsi": self.tsi,
        "group": self.group,
        "odata_sent": self.sender.odata_sent,
        "rdata_sent": self.sender.rdata_sent,
        "bytes_sent": self.sender.bytes_sent,
        "acks_received": self.sender.acks_received,
        "naks_received": self.sender.naks_received,
        "ncfs_sent": self.sender.ncfs_sent,
        "nak_origins": dict(self.sender.nak_origins),
        "acker": self.sender.current_acker,
        "acker_switches": self.acker_switches,
        "acker_evictions": controller.acker_evictions,
        "stalls": controller.stalls,
        "window": controller.window.w,
        "controller": controller.backend.name,
        "controller_state": controller.backend.state_summary(),
        "malformed_dropped": _malformed_dropped(self),
        "unrecoverable_data_loss": unrecoverable,
        "guard": self.guard.summary() if self.guard is not None else None,
        "phases": log.phases,
        "repair_latency": repair,
        "stall_duration": log.stall.snapshot(),
        "recovery": recovery,
        "aggregate": aggregate,
        "receivers": {
            rx.rx_id: {
                "odata_received": rx.odata_received,
                "rdata_received": rx.rdata_received,
                "loss_rate": rx.loss_rate,
                "delivered": rx.delivered,
                "acks_sent": rx.acks_sent,
                "naks_sent": rx.naks_sent,
                "malformed_dropped": rx.malformed_dropped,
                "unrecoverable_data_loss": rx.unrecoverable_data_loss,
                "resyncs": rx.resyncs,
            }
            for rx in self.receivers
        },
    }


def untagged(doc: dict) -> dict:
    """``doc`` less the two schema tags the reference carries (the
    controller state's was written by the backend, not the summary)."""
    doc = {key: value for key, value in doc.items() if key != "schema"}
    doc["controller_state"] = {
        key: value for key, value in doc["controller_state"].items()
        if key != "schema"}
    return doc


def text(doc: dict) -> str:
    """``doc`` as the benchmark's ``sim_digest`` hashes it: equal text
    is equal keys, types and float bits."""
    return json.dumps(doc, sort_keys=True, default=repr)


def lossy():
    net = dumbbell(1, 2, LOSSY, seed=11)
    session = create_session(net, "h0", ["r0", "r1"], guard=True)
    return net, session, DURATION / 2


def faulted(controller, scenario):
    def build():
        plan, _ = _fault_plan(scenario, FAULT_AT, FAULT_S)
        net = dumbbell(1, N_RECEIVERS, NON_LOSSY, seed=31)
        session = create_session(
            net, "h0", [f"r{i}" for i in range(N_RECEIVERS)],
            config=SessionConfig(
                cc=CcConfig(controller=controller, liveness=True),
                faults=plan, guard=True))
        # mid-run: late in the fault, with pgmcc's degraded span live
        return net, session, FAULT_AT + 0.8 * FAULT_S
    return build


def aggregate():
    net = dumbbell_subtrees(24, subtrees=2,
                            bottleneck=LinkSpec(rate_bps=2_000_000,
                                                delay=0.02), seed=5)
    session = create_session(net, "h0", [],
                             config=SessionConfig(aggregate=True))
    enable_network_elements(net, telemetry=session.metrics)
    return net, session, DURATION / 2


GRID = {
    "lossy-guard": lossy,
    **{f"{scenario}-{controller}": faulted(controller, scenario)
       for scenario in ("partition", "blackhole", "acker-crash")
       for controller in ("pgmcc", "tfrc")},
    "aggregate-ne": aggregate,
}


@pytest.mark.parametrize("cell", sorted(GRID))
def test_summary_renders_the_reference(cell):
    net, session, mid = GRID[cell]()
    net.run(until=mid)
    assert text(session.summary()) == text(untagged(reference_summary(session)))
    net.run(until=DURATION)
    session.close()
    assert text(session.summary()) == text(untagged(reference_summary(session)))


def test_summary_walks_the_log_once(monkeypatch):
    calls = []

    def counting(trace, now):
        calls.append(now)
        return read_log(trace, now)

    monkeypatch.setattr(telemetry, "read_log", counting)
    net, session, _ = faulted("pgmcc", "partition")()
    net.run(until=DURATION)
    session.summary()
    assert len(calls) == 1
    session.close()
