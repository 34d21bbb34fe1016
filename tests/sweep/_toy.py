"""A fast, pure toy experiment for sweep tests.

Registered with a plain ``register_experiment`` call (which doubles as
coverage of third-party registration), with a full parameter schema so
validation paths are exercised.  Metrics are exact arithmetic on the
kwargs, so any sweep over it has fully predictable deltas and rankings.
"""

from __future__ import annotations

from repro.experiments.common import (ExperimentResult, ExperimentSpec,
                                     ParamSpec)
from repro.experiments.registry import register_experiment

TOY_ID = "TOY-SWEEP"


def run(scale: float = 1.0, gain: float = 1.0, mode: str = "a",
        seed: int = 0, flag: bool = False) -> ExperimentResult:
    if gain == 13.0:  # deterministic failure cell for isolation tests
        raise RuntimeError("unlucky gain")
    base = 10.0 if mode == "a" else 30.0
    result = ExperimentResult(
        name=f"toy-sweep-{mode}",
        params={"scale": scale, "gain": gain, "mode": mode,
                "seed": seed, "flag": flag},
        expectation="pure function of the kwargs",
    )
    result.add_row(mode=mode, gain=gain, seed=seed)
    result.metrics["score"] = base * gain + seed
    result.metrics["cost"] = round(100.0 * scale + (5.0 if flag else 0.0), 6)
    result.metrics["label"] = mode  # non-numeric: excluded from deltas
    return result


register_experiment(ExperimentSpec(
    TOY_ID, __name__, "run", hidden=True,
    description="pure toy experiment for sweep tests",
    params=(
        ParamSpec("gain", "float", default=1.0, low=0.0, high=100.0),
        ParamSpec("mode", "str", default="a", choices=("a", "b")),
        ParamSpec("seed", "int", default=0, low=0),
        ParamSpec("flag", "bool", default=False),
    ),
))
