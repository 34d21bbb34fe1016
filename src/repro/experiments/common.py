"""Shared experiment plumbing.

Every experiment runner returns an :class:`ExperimentResult`: named
rows of measurements plus the paper's expectation, so the runner,
tests and EXPERIMENTS.md all read from one structure.  ``scale``
shrinks the simulated duration for quick runs (tests, CI smoke);
``scale=1.0`` is the paper-faithful duration.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding used for digests and cache keys.

    Tuples become lists (the JSON round-trip does the same), dict keys
    are sorted, and anything non-JSON falls back to ``repr``.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


def digest_of(doc: dict[str, Any]) -> str:
    """Digest of a result's normal form, the dict
    :meth:`ExperimentResult.to_dict` returns (order-stable)."""
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


@dataclass
class ExperimentResult:
    """Outcome of one experiment run."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)
    rows: list[dict[str, Any]] = field(default_factory=list)
    #: free-form derived metrics used by assertions
    metrics: dict[str, Any] = field(default_factory=dict)
    expectation: str = ""
    #: ``pgmcc.session-metrics/v1`` export from the experiment's
    #: (representative) session, when the experiment attaches one
    telemetry: dict[str, Any] | None = None

    def add_row(self, **fields: Any) -> None:
        self.rows.append(fields)

    def attach_telemetry(self, session: Any, **meta: Any) -> None:
        """Attach ``session.metrics.export()``."""
        self.telemetry = session.metrics.export(experiment=self.name, **meta)

    def to_dict(self) -> dict[str, Any]:
        """The normal form (tuples normalise to lists): what a worker
        sends, the runner's cache stores and a run manifest embeds."""
        doc: dict[str, Any] = {
            "name": self.name,
            "params": self.params,
            "rows": self.rows,
            "metrics": self.metrics,
            "expectation": self.expectation,
        }
        if self.telemetry is not None:
            doc["telemetry"] = self.telemetry
        return json.loads(canonical_json(doc))

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentResult":
        return cls(
            name=data["name"],
            params=dict(data.get("params", {})),
            rows=list(data.get("rows", [])),
            metrics=dict(data.get("metrics", {})),
            expectation=data.get("expectation", ""),
            telemetry=data.get("telemetry"),
        )

    def digest(self) -> str:
        """Content digest of the result (order-stable)."""
        return digest_of(self.to_dict())

    def format_table(self) -> str:
        """Plain-text table of the rows (the figure's 'data')."""
        if not self.rows:
            return "(no rows)"
        columns = list(self.rows[0].keys())
        widths = {c: len(c) for c in columns}
        rendered = []
        for row in self.rows:
            cells = {c: _fmt(row.get(c, "")) for c in columns}
            for c in columns:
                widths[c] = max(widths[c], len(cells[c]))
            rendered.append(cells)
        header = "  ".join(c.ljust(widths[c]) for c in columns)
        lines = [header, "  ".join("-" * widths[c] for c in columns)]
        for cells in rendered:
            lines.append("  ".join(cells[c].ljust(widths[c]) for c in columns))
        return "\n".join(lines)

    def report(self) -> str:
        lines = [f"== {self.name} =="]
        if self.params:
            lines.append("params: " + ", ".join(f"{k}={_fmt(v)}" for k, v in self.params.items()))
        lines.append(self.format_table())
        if self.metrics:
            lines.append("metrics: " + ", ".join(f"{k}={_fmt(v)}" for k, v in self.metrics.items()))
        if self.expectation:
            lines.append(f"paper: {self.expectation}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:.0f}"
    return str(value)


def kbps(bps: float) -> float:
    """bits/s -> kbit/s, rounded for table display."""
    return round(bps / 1000.0, 1)


#: ``ParamSpec.type`` name -> accepted Python types.  ``bool`` is not
#: an ``int`` here (the common footgun), and sequences accept both the
#: tuple a spec carries and the list a JSON round-trip produces.
PARAM_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool,),
    "seq": (tuple, list),
}


@dataclass(frozen=True)
class ParamSpec:
    """One declared experiment parameter: name, type, default, bounds.

    The typed half of an :class:`ExperimentSpec`: the runner and the
    sweep DSL validate keyword arguments against these *before* a
    worker starts, so a typo'd axis or an out-of-range value raises a
    clear ``TypeError``/``ValueError`` up front instead of a traceback
    from inside a worker process.  Frozen and tuple-valued so the
    enclosing spec stays hashable.
    """

    name: str
    type: str = "float"  #: one of :data:`PARAM_TYPES`
    default: Any = None
    #: closed set of allowed values (checked after the type)
    choices: tuple[Any, ...] = ()
    #: inclusive numeric bounds (ignored for non-numeric types)
    low: Any = None
    high: Any = None
    help: str = ""

    def __post_init__(self) -> None:
        if self.type not in PARAM_TYPES:
            raise ValueError(
                f"parameter {self.name!r}: unknown type {self.type!r} "
                f"(one of {', '.join(PARAM_TYPES)})")

    def check(self, value: Any, *, where: str = "") -> None:
        """Raise ``TypeError``/``ValueError`` unless ``value`` fits
        (``None`` fits only where the declared default is ``None``)."""
        if value is None and self.default is None:
            return
        label = f"{where}{self.name}"
        accepted = PARAM_TYPES[self.type]
        if isinstance(value, bool) and self.type in ("int", "float"):
            raise TypeError(f"{label}: expected {self.type}, got bool")
        if not isinstance(value, accepted):
            raise TypeError(
                f"{label}: expected {self.type}, "
                f"got {type(value).__name__} ({value!r})")
        if self.type == "float" and not math.isfinite(value):
            raise ValueError(f"{label}: {value!r} is not a finite number")
        if self.choices and value not in self.choices:
            raise ValueError(
                f"{label}: {value!r} is not one of "
                f"{', '.join(map(repr, self.choices))}")
        if self.low is not None and value < self.low:
            raise ValueError(f"{label}: {value!r} is below the minimum "
                             f"{self.low!r}")
        if self.high is not None and value > self.high:
            raise ValueError(f"{label}: {value!r} is above the maximum "
                             f"{self.high!r}")

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe row of :meth:`ExperimentSpec.schema_doc`."""
        doc: dict[str, Any] = {"name": self.name, "type": self.type}
        if self.default is not None:
            doc["default"] = self.default
        if self.choices:
            doc["choices"] = list(self.choices)
        if self.low is not None:
            doc["low"] = self.low
        if self.high is not None:
            doc["high"] = self.high
        if self.help:
            doc["help"] = self.help
        return doc


#: every experiment accepts ``scale`` — declared once, merged into each
#: spec's schema so sweeps can treat it like any other parameter
SCALE_PARAM = ParamSpec("scale", "float", default=1.0, low=0.0,
                        help="fraction of the paper-faithful duration")


@dataclass(frozen=True)
class ExperimentSpec:
    """Spawn-safe descriptor of one experiment in the registry.

    Unlike a lambda, a spec is picklable and hashable: a worker process
    reconstructs the callable from ``module``/``func`` by import.  The
    effective simulated duration of a run is ``scale * scale_factor``
    (some experiments run at half duration in the full report).

    ``params`` is the experiment's declared parameter schema
    (:class:`ParamSpec` rows), enforced by :meth:`validate_kwargs`
    before any worker starts and part of the result-cache fingerprint
    (a schema change invalidates stale cached results).  With no
    declared schema the signature of the function the spec names is
    the schema for names.
    """

    id: str
    module: str
    func: str = "run"
    #: multiplier applied to the sweep-wide scale for this experiment
    scale_factor: float = 1.0
    #: extra keyword arguments, as a tuple of (name, value) pairs so the
    #: spec stays hashable; values must be picklable
    kwargs: tuple[tuple[str, Any], ...] = ()
    description: str = ""
    #: declared parameter schema (empty: the function's signature)
    params: tuple[ParamSpec, ...] = ()
    #: hidden specs are resolvable by id (sweep cells) but excluded
    #: from the default full-registry report/sweep
    hidden: bool = False
    #: name of a function in ``module`` that raises ``ValueError`` for
    #: values valid one by one but not together; sweep-spec validation
    #: calls it with every cell (imported only then), declared defaults
    #: filling what the cell does not give.  Empty: no such limit
    limits: str = ""

    def resolve(self) -> Callable[..., ExperimentResult]:
        mod = importlib.import_module(self.module)
        return getattr(mod, self.func)

    def call_kwargs(self, scale: float) -> dict[str, Any]:
        return {"scale": scale * self.scale_factor, **dict(self.kwargs)}

    # -- parameter schema --------------------------------------------

    def param(self, name: str) -> ParamSpec | None:
        if name == "scale":
            return SCALE_PARAM
        for spec in self.params:
            if spec.name == name:
                return spec
        return None

    def validate_kwargs(self, kwargs: dict[str, Any]) -> None:
        """Check ``kwargs`` against the schema.

        Raises ``TypeError`` for unknown names or type mismatches and
        ``ValueError`` for out-of-range/out-of-choices values.  With no
        declared schema a name must be one the spec's function takes
        (imported only then; ``**kwargs`` takes any), and ``scale`` is
        still type-checked — every experiment takes it.
        """
        for name, value in kwargs.items():
            spec = self.param(name)
            if spec is not None:
                spec.check(value, where=f"{self.id}: ")
                continue
            known = {p.name for p in self.params}
            if not known:
                params = inspect.signature(self.resolve()).parameters
                known = {n for n, p in params.items()
                         if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
                if name in known or any(p.kind is p.VAR_KEYWORD
                                        for p in params.values()):
                    continue
            raise TypeError(
                f"{self.id}: unknown parameter {name!r}, not in its schema "
                f"(takes: {', '.join(sorted(known | {'scale'}))})")

    def schema_doc(self) -> list[dict[str, Any]]:
        """The declared schema as JSON-safe rows (``scale`` included),
        used by ``--list``, the sweep DSL and the cache fingerprint."""
        return [SCALE_PARAM.to_dict()] + [p.to_dict() for p in self.params]

    def run(self, scale: float = 1.0) -> ExperimentResult:
        return self.resolve()(**self.call_kwargs(scale))
