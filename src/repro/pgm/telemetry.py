"""Wiring a PGM/pgmcc session onto a metrics registry.

:func:`bind_session_metrics` installs every pull-binding and sampling
probe for one session.  The counters themselves stay where they always
lived — plain attributes on :class:`PgmSender`, :class:`PgmReceiver`,
:class:`~repro.pgm.guard.FeedbackGuard`, the links and the engine —
the registry just knows how to read them, so the bindings add nothing
to the paths that increment them.

Metric names (the stable ``pgmcc.session-metrics/v1`` key set;
``PgmSession.summary()`` renders those :data:`SUMMARY_LEAVES` names,
read by :func:`render_snapshot`):

===========================  =======  ====================================
name                         kind     source
===========================  =======  ====================================
``sender.odata_sent``        counter  original transmissions
``sender.rdata_sent``        counter  repairs (§3.8)
``sender.bytes_sent``        counter  payload bytes
``sender.acks_received``     counter  ACKs reaching the source
``sender.naks_received``     counter  NAKs reaching the source
``sender.ingress_dropped``   counter  malformed + insane feedback drops
``cc.stalls``                counter  §3.6 stall restarts
``cc.acker_switches``        counter  §3.5 election moves
``cc.acker_evictions``       counter  guard-driven unseatings
``guard.acks_blocked``       counter  ACKs denied control influence
``guard.naks_blocked``       counter  NAK reports denied control influence
``guard.quarantines``        counter  receivers quarantined (guard on)
``rx.odata_received``        counter  sum over current receivers
``rx.rdata_received``        counter  sum over current receivers
``rx.delivered``             counter  in-order deliveries
``rx.acks_sent``             counter  sum over current receivers
``rx.naks_sent``             counter  sum over current receivers
``rx.repairs_abandoned``     counter  NAK state given up
``rx.unrecoverable_loss``    counter  §3.8 bounded-recovery give-ups
``rx.ingress_dropped``       counter  malformed + insane data drops
``rx.resyncs``               counter  live-edge rejoins after heal
``net.events_processed``     counter  engine events (whole network)
``net.queue_drops``          counter  drop-tail losses, all links
``net.random_drops``         counter  random-loss stage, all links
``net.fault_drops``          counter  outage/corruption drops, all links
``net.filter_drops``         counter  control-blackhole drops, all links
``liveness.demotions``       counter  watchdog acker demotions
``liveness.degraded_entries`` counter degraded-mode entries
``cc.restarts``              counter  W=T=1 restarts (stall + degraded)
``cc.window_w``              gauge    current W
``cc.tokens``                gauge    current T
``cc.srtt_s``                gauge    smoothed time-RTT (timeouts)
``rx.count``                 gauge    current group size
``rx.max_loss_rate``         gauge    worst receiver loss estimate
``rx.mean_loss_rate``        gauge    mean receiver loss estimate
``liveness.degraded_time_s`` gauge    degraded-mode residence time (log)
``liveness.ttr_last_s``      gauge    latest time-to-recover sample (log)
===========================  =======  ====================================

The ``liveness.*`` instruments are always bound (0 when no watchdog is
attached) so the exported key set is identical across configurations —
only the *schema version* grows, never per-config key churn.  An
aggregate session adds the ``agg.*`` set (docs/API.md).

Sim-clock series (probe, default every ``interval`` seconds):
``cc.window`` (W), ``cc.tokens`` (T), ``rx.max_loss_rate``.

The receivers push one histogram, ``repair.latency_s`` (gap-open to
RDATA arrival, the NAK repair round-trip).  The sender's protocol
edges are records of its log, read off it by :func:`read_log` at
snapshot time into the phase spans (the export's ``spans``), the
``stall.duration_s`` histogram and the gauges marked (log).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from ..simulator.trace import FlowTrace
from ..telemetry import Histogram, TimeSeriesProbe
from .constants import DEGRADED, NORMAL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import PgmSession

__all__ = ["bind_session_metrics", "read_log", "LogView",
           "render_snapshot", "SUMMARY_LEAVES", "DEFAULT_PROBE_INTERVAL"]

#: sim-clock sampling period of the session probe (seconds)
DEFAULT_PROBE_INTERVAL = 1.0

#: summary key -> the export leaf (``section.metric``) it renders; a
#: tuple of leaves renders their sum, and a ``recovery.`` or
#: ``aggregate.`` key lands in that block of the summary.
SUMMARY_LEAVES: dict[str, str | tuple[str, ...]] = {
    "odata_sent": "counters.sender.odata_sent",
    "rdata_sent": "counters.sender.rdata_sent",
    "bytes_sent": "counters.sender.bytes_sent",
    "acks_received": "counters.sender.acks_received",
    "naks_received": "counters.sender.naks_received",
    "acker_switches": "counters.cc.acker_switches",
    "acker_evictions": "counters.cc.acker_evictions",
    "stalls": "counters.cc.stalls",
    "window": "gauges.cc.window_w",
    "malformed_dropped": ("counters.sender.ingress_dropped",
                          "counters.rx.ingress_dropped"),
    "unrecoverable_data_loss": "counters.rx.unrecoverable_loss",
    "repair_latency": "histograms.repair.latency_s",
    "stall_duration": "histograms.stall.duration_s",
    "phases": "spans.stats",
    "recovery.degraded_time_s": "gauges.liveness.degraded_time_s",
    "recovery.ttr_last_s": "gauges.liveness.ttr_last_s",
    "recovery.demotions": "counters.liveness.demotions",
    "recovery.degraded_entries": "counters.liveness.degraded_entries",
    "recovery.resyncs": "counters.rx.resyncs",
    "recovery.unrecoverable_loss": "counters.rx.unrecoverable_loss",
    "aggregate.promotions": "counters.agg.promotions",
    "aggregate.demotions": "counters.agg.demotions",
    "aggregate.promotions_deferred": "counters.agg.promotions_deferred",
    "aggregate.synthetic_naks": "counters.agg.synthetic_naks",
    "aggregate.synthetic_fake_naks": "counters.agg.synthetic_fake_naks",
    "aggregate.population": "gauges.agg.population",
    "aggregate.exact_cohort": "gauges.agg.exact_cohort",
    "aggregate.tail": "gauges.agg.tail",
}


def render_snapshot(snap: dict) -> dict:
    """:data:`SUMMARY_LEAVES` read off ``snap`` (a
    ``MetricsRegistry.snapshot()``), nested by block.  A counter or
    gauge the snapshot lacks reads 0 (``agg.*`` without aggregate
    mode), a histogram it lacks None (``repair.latency_s`` before any
    receiver has one)."""

    def leaf(path: str):
        section, name = path.split(".", 1)
        return snap[section].get(name, None if section == "histograms" else 0)

    doc: dict = {"recovery": {}, "aggregate": {}}
    for key, path in SUMMARY_LEAVES.items():
        block, _, name = key.rpartition(".")
        (doc[block] if block else doc)[name] = (
            leaf(path) if isinstance(path, str) else sum(map(leaf, path)))
    return doc


class LogView(NamedTuple):
    """What :func:`read_log` reads off a sender's log: ``{count,
    total_s, mean_s, max_s}`` per phase over its ended spans, the
    phases still open, the stall-streak histogram, degraded time (a
    live degraded span included), time-to-recover samples (each
    ``->normal`` minus the last ``normal->suspect``) and the watchdog's
    ``(time, old, new, reason)`` transitions."""

    phases: dict[str, dict[str, float]]
    open: list[str]
    stall: Histogram
    degraded_time_s: float
    ttr_samples: list[float]
    transitions: list[tuple[float, str, str, str]]


def read_log(trace: FlowTrace, now: float) -> LogView:
    """Walk a sender's log once; the phase rules, all in one place:

    * ``start`` opens ``slow_start``, the first ``cc-loss`` ends it;
    * ``cc-loss`` opens ``loss_recovery`` and ``stall`` opens ``stall``;
      a clean ACK (``ack`` with ``nbytes`` 1) ends both;
    * ``acker-switch`` ends one ``acker_reign`` and opens the next;
    * ``liveness-degraded`` opens ``degraded``, leaving degraded ends it;
    * ``close`` ends whatever is open.

    Opening an open phase restarts it; ending a closed one does
    nothing.  ``now`` times a live degraded span.
    """
    began: dict[str, float] = {}  # open phase -> its start
    stats: dict[str, list] = {}  # phase -> [count, total, max]

    def end(name: str, t: float) -> None:
        if name in began:
            elapsed = t - began.pop(name)
            row = stats.setdefault(name, [0, 0.0, elapsed])
            row[0] += 1
            row[1] += elapsed
            row[2] = max(row[2], elapsed)

    stall = Histogram("stall.duration_s")
    streak_began = None
    state = NORMAL
    suspect_since = None
    ttr: list[float] = []
    transitions: list[tuple[float, str, str, str]] = []
    for t, kind, _, nbytes in trace.rows():
        if kind == "ack":
            if nbytes:
                end("loss_recovery", t)
                end("stall", t)
                if streak_began is not None:
                    stall.observe(t - streak_began)
                    streak_began = None
        elif kind == "cc-loss":
            end("slow_start", t)
            began["loss_recovery"] = t
        elif kind == "stall":
            began["stall"] = t
            if streak_began is None:
                streak_began = t
        elif kind == "acker-switch":
            end("acker_reign", t)
            began["acker_reign"] = t
        elif kind == "start":
            began["slow_start"] = t
        elif kind == "close":
            for name in list(began):
                end(name, t)
        elif kind.startswith("liveness-"):
            new = kind[9:]  # the state after "liveness-"
            if state == DEGRADED:
                end("degraded", t)
            if new == NORMAL:
                reason = "ack"
                if suspect_since is not None:
                    ttr.append(t - suspect_since)
                suspect_since = None
            elif new == DEGRADED:
                reason = "demotions-exhausted"
                began["degraded"] = t
            elif state == DEGRADED:
                reason = "nak"
            else:
                reason = "ack-timeout"
                suspect_since = t
            transitions.append((t, state, new, reason))
            state = new

    degraded = stats["degraded"][1] if "degraded" in stats else 0.0
    if "degraded" in began:
        degraded += now - began["degraded"]
    phases = {
        name: {"count": count, "total_s": total,
               "mean_s": total / count, "max_s": peak}
        for name, (count, total, peak) in sorted(stats.items())
    }
    return LogView(phases, sorted(began), stall, degraded, ttr, transitions)


def bind_session_metrics(session: "PgmSession") -> None:
    """Install the pull-bindings and sampling probe of ``session`` on
    its registry (``session.metrics``)."""
    registry = session.metrics
    sender = session.sender
    controller = sender.controller
    net = session.network
    sim = net.sim
    receivers = session.receivers  # live list: late joins included

    registry.meta.update(tsi=session.tsi, group=session.group,
                         sender=sender.host.name,
                         controller=controller.backend.name)

    bind = registry.bind
    bind("sender.odata_sent", lambda: sender.odata_sent)
    bind("sender.rdata_sent", lambda: sender.rdata_sent)
    bind("sender.bytes_sent", lambda: sender.bytes_sent)
    bind("sender.acks_received", lambda: sender.acks_received)
    bind("sender.naks_received", lambda: sender.naks_received)
    bind("sender.ingress_dropped",
         lambda: sender.malformed_dropped + sender.insane_dropped)
    bind("cc.stalls", lambda: controller.stalls)
    bind("cc.restarts", lambda: controller.restarts)
    bind("cc.acker_switches", lambda: controller.election.switch_count)
    bind("cc.acker_evictions", lambda: controller.acker_evictions)
    bind("liveness.demotions",
         lambda: sender.watchdog.demotions if sender.watchdog else 0)
    bind("liveness.degraded_entries",
         lambda: sender.watchdog.degraded_entries if sender.watchdog else 0)
    bind("guard.acks_blocked", lambda: sender.guard_acks_blocked)
    bind("guard.naks_blocked", lambda: sender.guard_naks_blocked)
    bind("guard.quarantines",
         lambda: (sender.guard.summary()["quarantines"]
                  if sender.guard is not None else 0))

    def rx_sum(attr: str):
        return lambda: sum(getattr(rx, attr) for rx in receivers)

    bind("rx.odata_received", rx_sum("odata_received"))
    bind("rx.rdata_received", rx_sum("rdata_received"))
    bind("rx.delivered", rx_sum("delivered"))
    bind("rx.acks_sent", rx_sum("acks_sent"))
    bind("rx.naks_sent", rx_sum("naks_sent"))
    bind("rx.repairs_abandoned", rx_sum("repairs_abandoned"))
    bind("rx.unrecoverable_loss", rx_sum("unrecoverable_data_loss"))
    bind("rx.ingress_dropped",
         lambda: sum(rx.malformed_dropped + rx.insane_dropped
                     for rx in receivers))
    bind("rx.resyncs", rx_sum("resyncs"))

    def link_sum(attr: str):
        return lambda: sum(getattr(link, attr)
                           for node in net.nodes.values()
                           for link in node.links.values())

    bind("net.events_processed", lambda: sim.events_processed)
    bind("net.queue_drops", link_sum("queue_drops"))
    bind("net.random_drops", link_sum("random_drops"))
    bind("net.fault_drops",
         lambda: sum(link.fault_drops + link.corrupt_drops
                     for node in net.nodes.values()
                     for link in node.links.values()))
    bind("net.filter_drops", link_sum("filter_drops"))

    def max_loss() -> float:
        return max((rx.loss_rate for rx in receivers), default=0.0)

    bind("cc.window_w", lambda: controller.backend.w, kind="gauge")
    bind("cc.tokens", lambda: controller.backend.tokens, kind="gauge")
    bind("cc.srtt_s", lambda: controller.srtt or 0.0, kind="gauge")
    bind("rx.count", lambda: len(receivers), kind="gauge")
    bind("rx.max_loss_rate", max_loss, kind="gauge")
    bind("rx.mean_loss_rate",
         lambda: (sum(rx.loss_rate for rx in receivers) / len(receivers)
                  if receivers else 0.0), kind="gauge")

    def log_view() -> dict:
        log = session.log = read_log(sender.trace, sim.now)
        return {
            "gauges": {
                "liveness.degraded_time_s": log.degraded_time_s,
                "liveness.ttr_last_s": (log.ttr_samples[-1]
                                        if log.ttr_samples else 0.0),
            },
            "histograms": {"stall.duration_s": log.stall.snapshot()},
            "spans": {"stats": log.phases, "open": log.open},
        }

    registry.add_view(log_view)

    probe = TimeSeriesProbe(sim, registry, DEFAULT_PROBE_INTERVAL)
    probe.sample("cc.window", lambda: controller.backend.w)
    probe.sample("cc.tokens", lambda: controller.backend.tokens)
    probe.sample("rx.max_loss_rate", max_loss)
    probe.start()
