"""Trace analysis: throughput, fairness, binned bandwidth series."""

from .metrics import (
    acker_occupancy,
    coefficient_of_variation,
    jain_index,
    loss_event_rate,
    throughput_bps,
    throughput_ratio,
)
from .plots import render_bandwidth, render_flow_comparison, render_time_seq
from .timeseries import (
    Bin,
    bandwidth_series,
    cumulative_bytes,
    mean_rate,
    plateau_rate,
)

__all__ = [
    "acker_occupancy",
    "coefficient_of_variation",
    "jain_index",
    "loss_event_rate",
    "throughput_bps",
    "throughput_ratio",
    "render_bandwidth",
    "render_flow_comparison",
    "render_time_seq",
    "Bin",
    "bandwidth_series",
    "cumulative_bytes",
    "mean_rate",
    "plateau_rate",
]
