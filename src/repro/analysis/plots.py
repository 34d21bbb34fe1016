"""Plain-text renderings of the paper's plot styles.

The paper's figures are time/sequence-number scatter plots with
NAK diamonds and acker-switch bars, plus bandwidth-vs-time curves.
These helpers render the same views as fixed-width text, so examples
and experiment reports can show the figures without a plotting stack.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..simulator.trace import FlowTrace
from .timeseries import Bin, bandwidth_series


def render_bandwidth(
    bins: Sequence[Bin],
    width: int = 50,
    max_rate_bps: Optional[float] = None,
    unit: float = 1000.0,
) -> str:
    """Horizontal bar chart of a bandwidth series (rates in kbit/s)."""
    if not bins:
        return "(empty series)"
    peak = max_rate_bps if max_rate_bps is not None else max(b.rate_bps for b in bins)
    peak = max(peak, 1.0)
    lines = []
    for b in bins:
        bar = "#" * int(round(width * min(b.rate_bps, peak) / peak))
        lines.append(f"{b.t_start:7.1f}s {b.rate_bps / unit:9.1f} |{bar}")
    return "\n".join(lines)


def render_time_seq(
    trace: FlowTrace,
    t0: float,
    t1: float,
    width: int = 72,
    height: int = 20,
    data_kinds: tuple[str, ...] = ("data",),
    mark_kinds: dict[str, str] = None,
) -> str:
    """The paper's time/sequence plot as a character grid.

    Data transmissions render as ``.``; additional event kinds can be
    overlaid with their own glyphs (the figures use diamonds for NAKs
    and vertical bars for acker switches) via ``mark_kinds``, e.g.
    ``{"nak": "o", "acker-switch": "|"}``.
    """
    if mark_kinds is None:
        mark_kinds = {"nak": "o", "acker-switch": "|"}
    window = trace.between(t0, t1)
    seqs = [r.seq for r in window if r.kind in data_kinds]
    if not seqs:
        return "(no data records in window)"
    seq_min = min(seqs)
    seq_max = max(seqs)
    seq_span = max(seq_max - seq_min, 1)
    span = t1 - t0

    grid = [[" "] * width for _ in range(height)]

    def put(time: float, seq: int, glyph: str) -> None:
        x = min(width - 1, int(width * (time - t0) / span))
        y = min(height - 1, int(height * (seq - seq_min) / seq_span))
        grid[height - 1 - y][x] = glyph

    for r in window:
        if r.kind in data_kinds:
            put(r.time, r.seq, ".")
    for kind, glyph in mark_kinds.items():
        for r in window.of_kind(kind):
            if glyph == "|":
                x = min(width - 1, int(width * (r.time - t0) / span))
                for row in grid:
                    if row[x] == " ":
                        row[x] = "|"
            else:
                put(r.time, r.seq, glyph)

    top = f"seq {seq_min}..{seq_max}  t {t0:.0f}..{t1:.0f}s"
    legend = "  [. data" + "".join(
        f"  {glyph} {kind}" for kind, glyph in mark_kinds.items()
    ) + "]"
    body = "\n".join("".join(row) for row in grid)
    return top + legend + "\n" + body


def render_flow_comparison(
    traces: dict[str, FlowTrace],
    t0: float,
    t1: float,
    bin_width: float,
    width: int = 40,
) -> str:
    """Side-by-side bandwidth table for several flows (the way the
    Fig. 5 bandwidth panel compares PGM and TCP)."""
    names = list(traces)
    all_bins = {
        name: bandwidth_series(traces[name], t0, t1, bin_width) for name in names
    }
    peak = max(
        (b.rate_bps for bins in all_bins.values() for b in bins), default=1.0
    )
    header = "time".rjust(8) + "".join(name.rjust(12) for name in names)
    lines = [header]
    n_bins = len(next(iter(all_bins.values())))
    for i in range(n_bins):
        t = t0 + i * bin_width
        cells = "".join(
            f"{all_bins[name][i].rate_bps / 1000:12.1f}" for name in names
        )
        lines.append(f"{t:7.1f}s{cells}")
    return "\n".join(lines)
