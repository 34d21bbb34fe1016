"""Wiring a PGM/pgmcc session onto a metrics registry.

:func:`bind_session_metrics` installs every pull-binding and sampling
probe for one session.  The counters themselves stay where they always
lived — plain attributes on :class:`PgmSender`, :class:`PgmReceiver`,
:class:`~repro.pgm.guard.FeedbackGuard`, the links and the engine —
the registry just knows how to read them, so the bindings add nothing
to the paths that increment them.

Metric names (the stable ``pgmcc.session-metrics/v1`` key set):

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
``liveness.degraded_time_s`` gauge    degraded-mode residence time
``liveness.ttr_last_s``      gauge    latest time-to-recover sample
===========================  =======  ====================================

The ``liveness.*`` instruments are always bound (0 when no watchdog is
attached) so the exported key set is identical across configurations —
only the *schema version* grows, never per-config key churn.

Sim-clock series (probe, default every ``interval`` seconds):
``cc.window`` (W), ``cc.tokens`` (T), ``rx.max_loss_rate``.

Push instruments written by the agents themselves: histogram
``repair.latency_s`` (gap-open to RDATA arrival, the NAK repair
round-trip) and the sender's protocol-phase spans ``slow_start``,
``loss_recovery``, ``stall`` (see :class:`PgmSender`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..telemetry import TimeSeriesProbe

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .session import PgmSession

__all__ = ["bind_session_metrics", "DEFAULT_PROBE_INTERVAL"]

#: sim-clock sampling period of the session probe (seconds)
DEFAULT_PROBE_INTERVAL = 1.0


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
    bind("liveness.degraded_time_s",
         lambda: (sender.watchdog.degraded_time_s
                  if sender.watchdog else 0.0), kind="gauge")
    bind("liveness.ttr_last_s",
         lambda: (sender.watchdog.ttr_last_s
                  if sender.watchdog else 0.0), kind="gauge")
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

    def link_sum(key: str):
        return lambda: sum(link.metrics()[key]
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

    bind("cc.window_w", lambda: controller.window.w, kind="gauge")
    bind("cc.tokens", lambda: controller.window.tokens, kind="gauge")
    bind("cc.srtt_s", lambda: controller.srtt or 0.0, kind="gauge")
    bind("rx.count", lambda: len(receivers), kind="gauge")
    bind("rx.max_loss_rate", max_loss, kind="gauge")
    bind("rx.mean_loss_rate",
         lambda: (sum(rx.loss_rate for rx in receivers) / len(receivers)
                  if receivers else 0.0), kind="gauge")

    probe = TimeSeriesProbe(sim, registry, DEFAULT_PROBE_INTERVAL)
    probe.sample("cc.window", lambda: controller.window.w)
    probe.sample("cc.tokens", lambda: controller.window.tokens)
    probe.sample("rx.max_loss_rate", max_loss)
    probe.start()
