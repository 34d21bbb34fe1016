"""Sweep/ablation specs: plain data, from dicts or TOML/JSON files.

A :class:`SweepSpec` declares *what to compare* — one registered
experiment, a set of axes with candidate values, an expansion mode —
and nothing about *how to run it* (jobs and caching are the runner's
and the library caller's concerns).  The spec is frozen and canonically
serializable, so it can ride inside run manifests and participate in
digests.

Expansion modes (see :mod:`repro.sweep.expand`):

``grid``
    Cartesian product of all axes (the classic comparison matrix).
``zip``
    Axes advance in lockstep (all must have equal lengths) — paired
    configurations, like a tuned (ssthresh, dupack) frontier.
``ablate``
    One baseline task from ``base`` alone, plus one task per axis
    value that changes *only that axis* — the one-factor-at-a-time
    ablation study.  ``base`` holds every axis's baseline value, and
    no axis lists it again.

``seeds`` is an implicit extra grid axis bound to the experiment's
``seed`` parameter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from ..experiments.common import canonical_json

__all__ = ["SweepSpec", "load_spec", "spec_from_dict"]

#: valid expansion modes
MODES = ("grid", "zip", "ablate")


def _freeze(value: Any) -> Any:
    """Lists (from TOML/JSON) become tuples so specs stay hashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _array(value: Any, what: str) -> tuple:
    """A list-valued key as a tuple.  A scalar is a shape error named
    by its key — a string above all, which iterates letter by letter."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{what}: expected an array of values, "
                        f"got {type(value).__name__}")
    return _freeze(value)


def _pairs(mapping: Any, what: str) -> tuple[tuple[str, Any], ...]:
    if isinstance(mapping, tuple):
        return mapping
    if not isinstance(mapping, dict):
        raise TypeError(f"{what} must be a table/dict, "
                        f"got {type(mapping).__name__}")
    return tuple((str(k), _freeze(v)) for k, v in mapping.items())


@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment sweep (plain data; see module doc)."""

    name: str
    experiment: str
    mode: str = "grid"
    #: (axis name, candidate values) in declaration order — the order
    #: is meaningful: grid expansion nests rightmost-fastest, and the
    #: first value of each axis is that axis's delta baseline (in
    #: ``ablate`` mode the baseline is the axis's ``base`` value)
    axes: tuple[tuple[str, tuple[Any, ...]], ...] = ()
    #: parameters shared by every task
    base: tuple[tuple[str, Any], ...] = ()
    #: implicit extra grid axis bound to the ``seed`` parameter
    seeds: tuple[int, ...] = ()
    #: sweep-wide scale handed to the orchestrator (tasks additionally
    #: apply the experiment's registered ``scale_factor``)
    scale: float = 1.0
    description: str = ""
    #: metric name the ranked table sorts by ("" = no ranked table)
    rank_by: str = ""
    rank_descending: bool = False
    #: "module:function" custom aggregation hook (see aggregate.py)
    aggregate: str = ""
    #: metrics surfaced per task in the report ("" entries = all
    #: shared numeric metrics)
    metrics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(
            (name, _array(values, f"axes.{name}"))
            for name, values in _pairs(self.axes, "axes")))
        object.__setattr__(self, "base", _pairs(self.base, "base"))
        object.__setattr__(self, "seeds", _array(self.seeds, "seeds"))
        object.__setattr__(self, "metrics", _array(self.metrics, "metrics"))
        if (isinstance(self.scale, bool)
                or not isinstance(self.scale, (int, float))):
            raise TypeError("scale: expected a number, "
                            f"got {type(self.scale).__name__}")

    # -- views --------------------------------------------------------

    @property
    def axes_dict(self) -> dict[str, tuple[Any, ...]]:
        return dict(self.axes)

    @property
    def base_dict(self) -> dict[str, Any]:
        return dict(self.base)

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-safe document (axes keep declaration order)."""
        doc = {
            "name": self.name,
            "experiment": self.experiment,
            "mode": self.mode,
            "axes": {name: list(values) for name, values in self.axes},
            "base": {name: value for name, value in self.base},
            "seeds": list(self.seeds),
            "scale": self.scale,
            "description": self.description,
            "report": {
                "rank_by": self.rank_by,
                "rank_descending": self.rank_descending,
                "aggregate": self.aggregate,
                "metrics": list(self.metrics),
            },
        }
        return json.loads(canonical_json(doc))


#: spec keys that live under the optional ``[report]`` table in files
_REPORT_KEYS = ("rank_by", "rank_descending", "aggregate", "metrics")


def spec_from_dict(doc: dict[str, Any]) -> SweepSpec:
    """Build a spec from a plain dict (the TOML/JSON file shape).

    Top-level keys mirror the dataclass; report options may sit either
    at top level or under a ``report`` table.  Unknown keys raise
    ``TypeError`` — a typo'd key silently ignored would be a silently
    wrong sweep.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"sweep spec must be a dict, "
                        f"got {type(doc).__name__}")
    data = dict(doc)
    report = data.pop("report", {})
    if not isinstance(report, dict):
        raise TypeError("report must be a table/dict")
    for key, value in report.items():
        if key not in _REPORT_KEYS:
            raise TypeError(f"unknown report option {key!r} "
                            f"(one of {', '.join(_REPORT_KEYS)})")
        data[key] = value
    known = {f.name for f in fields(SweepSpec)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise TypeError(f"unknown sweep-spec key(s): {', '.join(unknown)} "
                        f"(known: {', '.join(sorted(known))})")
    for required in ("name", "experiment"):
        if required not in data:
            raise TypeError(f"sweep spec needs a {required!r} key")
    return SweepSpec(**data)


def load_spec(path: Any) -> SweepSpec:
    """Load a spec from a ``.toml`` or ``.json`` file.

    TOML needs Python 3.11+ (stdlib ``tomllib``); on older
    interpreters a clear error suggests the JSON spelling.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - py3.10 only
            raise RuntimeError(
                f"reading {path} needs Python 3.11+ (stdlib tomllib); "
                "use the JSON spec format on older interpreters"
            ) from exc
        doc = tomllib.loads(text)
    elif path.suffix.lower() == ".json":
        doc = json.loads(text)
    else:
        raise ValueError(f"unsupported spec format {path.suffix!r} "
                         "(use .toml or .json)")
    return spec_from_dict(doc)
