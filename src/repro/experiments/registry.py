"""The experiment registry: built-in specs, ``register_experiment``, lookups.

Mirrors the controller registry
(:func:`repro.core.controller.register_controller`): experiments are
registered process-globally by id.  The built-in specs — one per
figure, extension and ablation of the report, each with its declared
parameter schema — are in the table at the bottom of this module and
are registered when it is imported; third-party code adds its own
entries through the same call::

    from repro.experiments.registry import register_experiment
    from repro.experiments.common import ExperimentSpec, ParamSpec

    register_experiment(ExperimentSpec(
        "EXP-MINE", "mypkg.experiments.mine",
        description="my extension study",
        params=(ParamSpec("seed", "int", default=7),)))

A *study* is a :class:`~repro.sweep.SweepSpec` registered the same
way, under its ``name``: plain data until it is listed or run, when
the report runs every cell it expands to.

Re-registering an id raises — the registry is process-global and a
silent overwrite would poison sweep/digest reproducibility.
``python -m repro.runner`` runs what is registered here, by id or
through a sweep spec that names it.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from ..sweep.spec import SweepSpec
from .common import ExperimentSpec, ParamSpec

__all__ = [
    "experiment_ids",
    "get_experiment",
    "register_experiment",
    "registered_specs",
    "registered_studies",
    "resolve_experiment_id",
    "schema_for_target",
]

#: a registry entry: an experiment, or a study of one
Entry = Union[ExperimentSpec, SweepSpec]

_REGISTRY: dict[str, Entry] = {}


def _id(entry: Entry) -> str:
    return entry.name if isinstance(entry, SweepSpec) else entry.id


def register_experiment(spec: Entry) -> Entry:
    """Register an experiment or a study and return it.

    Raises ``ValueError`` on a duplicate id.
    """
    if _id(spec) in _REGISTRY:
        raise ValueError(f"experiment {_id(spec)!r} is already registered; "
                         "ids are process-global")
    _REGISTRY[_id(spec)] = spec
    return spec


def registered_specs(include_hidden: bool = False) -> list[ExperimentSpec]:
    """Registered experiments in registration order (report entries
    only by default; ``include_hidden=True`` adds sweep-cell entries)."""
    return [s for s in _REGISTRY.values() if isinstance(s, ExperimentSpec)
            and (include_hidden or not s.hidden)]


def registered_studies() -> list[SweepSpec]:
    """Registered studies in registration order."""
    return [s for s in _REGISTRY.values() if isinstance(s, SweepSpec)]


def experiment_ids(include_hidden: bool = False) -> list[str]:
    """Every report entry's id, experiments and studies, in
    registration order (``include_hidden=True`` adds sweep cells)."""
    return [key for key, entry in _REGISTRY.items()
            if include_hidden or isinstance(entry, SweepSpec)
            or not entry.hidden]


def resolve_experiment_id(exp_id: str) -> Optional[str]:
    """Canonical id for a case-/separator-insensitive spelling
    (``exp_arena`` == ``exp-arena`` == ``EXP-ARENA``), else None."""
    canonical = {key.upper().replace("_", "-"): key for key in _REGISTRY}
    return canonical.get(str(exp_id).upper().replace("_", "-"))


def get_experiment(exp_id: str) -> Entry:
    """Experiment or study for an id (normalized spelling accepted;
    hidden sweep-cell specs resolve like any other).  Raises
    ``KeyError`` listing the known ids on an unknown one."""
    resolved = resolve_experiment_id(exp_id)
    if resolved is None:
        raise KeyError(
            f"unknown experiment id(s): {exp_id}; "
            f"known ids: {', '.join(_REGISTRY)}")
    return _REGISTRY[resolved]


def schema_for_target(target: str) -> Optional[list[dict[str, Any]]]:
    """Declared parameter schema for a ``module:func`` target string.

    This is how the result cache folds the schema into its fingerprint
    without knowing about specs: both the orchestrator (which has the
    spec) and ``ResultCache.fetch_or_run`` (which has only the
    callable) resolve the same schema for the same target, keeping
    their cache keys shared.  Returns ``None`` when no registered
    experiment matches the target or the schema is undeclared.
    """
    for spec in registered_specs(include_hidden=True):
        if f"{spec.module}:{spec.func}" == target and spec.params:
            return spec.schema_doc()
    return None


# ---------------------------------------------------------------------------
# The built-in experiments
# ---------------------------------------------------------------------------

#: the Fig. 7 star's schema, EXP-F7 and EXP-STAR-CELL alike: the result
#: cache looks a schema up by target, and both name ``star:run_cell``
_STAR_PARAMS = (
    ParamSpec("seed", "int", default=17, low=0),
    ParamSpec("n_receivers", "int", default=100, low=1),
    ParamSpec("joiners", "int", default=90, low=0,
              help="receivers joining plain pgmcc at 0.6 of the run"),
    ParamSpec("scheme", "str", default="pgmcc",
              choices=("pgmcc", "eq-naive", "eq-max")),
    ParamSpec("redundancy", "int", low=0, help="FEC parity packets a "
              "block; None is RDATA repair"),
    ParamSpec("tcp", "bool", default=True),
    ParamSpec("duration", "float", default=500.0, low=1.0,
              help="seconds at scale 1.0"),
)

#: Built-in experiments, registered in report order.  A spec is
#: spawn-safe (module/func strings, no callables); ``repro.runner``
#: shards the registry across a worker pool.
_BUILTIN_SPECS: tuple[ExperimentSpec, ...] = (
    ExperimentSpec("EXP-F2", "repro.experiments.fig2_loss_filter",
                   description="Fig. 2: loss-rate filter at receivers"),
    ExperimentSpec("EXP-F5", "repro.experiments.fig5_acker_selection",
                   description="Fig. 5: acker selection/tracking plateaus"),
    ExperimentSpec("EXP-F7", "repro.experiments.star", "run_cell",
                   params=_STAR_PARAMS, limits="check_cell",
                   description="Fig. 7: 100 receivers with uncorrelated "
                               "loss, 90 of them joining late"),
    ExperimentSpec("EXP-UNREL", "repro.experiments.unreliable_mode",
                   description="unreliable mode: cc without repairs"),
    ExperimentSpec("EXP-CHURN", "repro.experiments.robustness", "run_churn",
                   scale_factor=0.5, description="robustness: receiver churn"),
    ExperimentSpec("EXP-CHAOS", "repro.experiments.robustness", "run_chaos",
                   scale_factor=0.5, description="chaos: scripted faults + invariants"),
    # -- sweep cells: one matrix cell per task, for the sweep DSL -----
    # (hidden: excluded from the default report, addressable by id)
    ExperimentSpec("EXP-ARENA-CELL", "repro.experiments.arena", "run_cell",
                   hidden=True,
                   params=(ParamSpec("seed", "int", default=23, low=0),
                           ParamSpec("n_receivers", "int", default=4, low=2),
                           ParamSpec("controller", "str", default="pgmcc"),
                           ParamSpec("scenario", "str", default="clean-tcp",
                                     choices=("clean-tcp", "fault",
                                              "adversary"))),
                   description="one arena bout: controller x scenario"),
    ExperimentSpec("EXP-RESILIENCE-CELL", "repro.experiments.resilience",
                   "run_cell", hidden=True,
                   params=(ParamSpec("seed", "int", default=31, low=0),
                           ParamSpec("controller", "str", default="pgmcc"),
                           ParamSpec("scenario", "str", default="partition",
                                     choices=("partition", "blackhole",
                                              "acker-crash")),
                           ParamSpec("liveness", "bool", default=True)),
                   description="one recovery bout: controller x fault "
                               "x watchdog on/off"),
    ExperimentSpec("EXP-F3-CELL", "repro.experiments.fig3_intra_fairness",
                   "run_cell", hidden=True,
                   description="one Fig. 3 panel: link"),
    ExperimentSpec("EXP-F4-CELL", "repro.experiments.fig4_inter_fairness",
                   "run_cell", hidden=True,
                   description="one Fig. 4 case: link, c, dupack "
                               "threshold, ssthresh, delayed ACKs"),
    ExperimentSpec("EXP-F6-CELL", "repro.experiments.fig6_heterogeneous_rtt",
                   "run_cell", hidden=True,
                   description="one Fig. 6 NE mode: suppression, "
                               "rx_loss_aware"),
    ExperimentSpec("ABL-MODEL-CELL", "repro.experiments.ablations",
                   "run_throughput_model", hidden=True,
                   description="one footnote-3 session: election model"),
    ExperimentSpec("ABL-ADSS-CELL", "repro.experiments.ablations",
                   "run_adaptive_ssthresh", hidden=True,
                   description="one pgmcc vs TCP session: adaptive "
                               "ssthresh"),
    ExperimentSpec("ABL-TFRC-CELL", "repro.experiments.ablations",
                   "run_loss_estimator", hidden=True,
                   description="one lossy-link session: loss estimator"),
    ExperimentSpec("ABL-BURST-CELL", "repro.experiments.robustness",
                   "run_bursty_loss", hidden=True,
                   description="one 2%-loss session: loss pattern"),
    ExperimentSpec("EXP-ADV-CELL", "repro.experiments.adversarial",
                   "run_cell", hidden=True,
                   description="one attack with the guard on or off"),
    ExperimentSpec("EXP-STAR-CELL", "repro.experiments.star", "run_cell",
                   hidden=True, params=_STAR_PARAMS, limits="check_cell",
                   description="one sender on the Fig. 7 star: pgmcc "
                               "(RDATA or FEC), eq-naive or eq-max"),
    ExperimentSpec("EXP-MPATH-CELL", "repro.experiments.robustness",
                   "run_multipath", hidden=True,
                   description="one path: single or sprayed"),
    ExperimentSpec("EXP-SCALE-CELL", "repro.experiments.scalability",
                   "run_point", hidden=True,
                   description="one co-located group: receivers, NEs"),
    ExperimentSpec("EXP-SCALE-HYBRID-CELL", "repro.experiments.scalability",
                   "run_hybrid_cell", hidden=True,
                   description="one hybrid-fidelity group: receivers"),
    ExperimentSpec("EXP-SWEEP-CELL", "repro.experiments.fairness_sweep",
                   "run_cell", hidden=True,
                   description="one 4.3 bottleneck: rate x queue x loss"),
)

#: the four built-in controller backends, pgmcc first: the delta
#: baseline of a study's ``controller`` axis
_CONTROLLERS = ("pgmcc", "aimd", "jain", "tfrc")

#: what the recovery studies' reports show of each cell
_RECOVERY_METRICS = ("ttr_s", "goodput_retained", "p99_stall_s", "resyncs",
                     "invariant_violations")

#: Built-in studies, registered after the experiments: each is a sweep
#: over one of them, and a report that names a study runs its cells.
#: Their ``scale`` is the factor a ``scale_factor`` would be.
_BUILTIN_STUDIES: tuple[SweepSpec, ...] = (
    SweepSpec("EXP-F3", "EXP-F3-CELL", base={"seed": 7},
              axes={"link": ["non-lossy", "lossy"]},
              description="Fig. 3: intra-protocol fairness"),
    SweepSpec("EXP-F4", "EXP-F4-CELL", base={"seed": 11},
              axes={"link": ["non-lossy", "lossy"]},
              description="Fig. 4: inter-protocol fairness vs TCP"),
    SweepSpec("EXP-F6", "EXP-F6-CELL", mode="zip", base={"seed": 13},
              axes={"suppression": [False, True, True],
                    "rx_loss_aware": [False, False, True]},
              description="Fig. 6: heterogeneous RTTs + NE suppression"),
    SweepSpec("ABL-MODEL", "ABL-MODEL-CELL", mode="ablate", scale=0.5,
              base={"seed": 47, "model": "simple"},
              axes={"model": ["padhye"]},
              description="ablation: RTT^2*p throughput models"),
    SweepSpec("ABL-ADSS", "ABL-ADSS-CELL", mode="ablate", scale=0.5,
              base={"seed": 53, "adaptive_ssthresh": False},
              axes={"adaptive_ssthresh": [True]},
              description="ablation: adaptive ssthresh"),
    SweepSpec("ABL-TFRC", "ABL-TFRC-CELL", mode="ablate", scale=0.5,
              base={"seed": 59, "estimator": "filter"},
              axes={"estimator": ["tfrc"]},
              description="ablation: loss filter vs TFRC estimator"),
    SweepSpec("ABL-BURST", "ABL-BURST-CELL", mode="ablate", scale=0.5,
              base={"seed": 79, "pattern": "bernoulli"},
              axes={"pattern": ["bursty"]},
              description="robustness: bursty (Gilbert) loss"),
    # the attack-free baseline first, then each attack guard off and
    # on; "impaired" is the ack replayer's honest anchor (no replay)
    SweepSpec("EXP-ADV", "EXP-ADV-CELL", mode="zip", scale=0.5,
              base={"seed": 97},
              axes={"attack": ["baseline", "greedy-acker", "greedy-acker",
                               "throttler", "throttler", "nak-storm",
                               "nak-storm", "impaired", "ack-replay",
                               "ack-replay"],
                    "guard": [True, False, True, False, True, False, True,
                              True, False, True]},
              description="adversarial: misbehaving receivers vs guard"),
    # each repair mode at its own seed: RDATA repair (None) at 61,
    # FEC with r parity packets a block at 62 + r
    SweepSpec("EXP-FEC", "EXP-STAR-CELL", mode="zip", scale=0.5,
              base={"n_receivers": 60, "joiners": 0, "tcp": False,
                    "duration": 240.0},
              axes={"redundancy": [None, 0, 1, 2],
                    "seed": [61, 62, 63, 64]},
              metrics=("goodput_data", "repair_share", "rdata_sent"),
              description="FEC redundancy ladder vs RDATA repair"),
    # each group size at its own seed, the same for the three
    # controllers
    SweepSpec("EXP-DTZ", "EXP-STAR-CELL", mode="zip", scale=0.5,
              base={"joiners": 0, "tcp": False, "duration": 120.0},
              axes={"scheme": ["eq-naive"] * 3 + ["eq-max"] * 3
                    + ["pgmcc"] * 3,
                    "n_receivers": [1, 10, 40] * 3,
                    "seed": [67, 68, 69] * 3},
              aggregate="repro.experiments.star:aggregate_cells",
              metrics=("rate",),
              description="drop-to-zero: feedback aggregation collapse"),
    SweepSpec("EXP-MPATH", "EXP-MPATH-CELL", scale=0.5, base={"seed": 71},
              axes={"path": ["single", "sprayed"]},
              description="robustness: multipath reordering"),
    SweepSpec("EXP-SCALE", "EXP-SCALE-CELL", scale=0.5, base={"seed": 101},
              axes={"n_receivers": [25, 50, 100, 200],
                    "network_elements": [False, True]},
              description="scalability: exact ladder to 200 receivers, "
                          "NEs off and on"),
    SweepSpec("EXP-SCALE-HYBRID", "EXP-SCALE-HYBRID-CELL", scale=0.5,
              base={"seed": 101},
              axes={"n": [1_000, 10_000, 100_000, 1_000_000]},
              description="scalability: hybrid-fidelity ladder to 10^6 "
                          "receivers"),
    SweepSpec("EXP-ARENA", "EXP-ARENA-CELL", scale=0.5,
              base={"seed": 23, "n_receivers": 4},
              axes={"controller": _CONTROLLERS,
                    "scenario": ["clean-tcp", "fault", "adversary"]},
              aggregate="repro.experiments.arena:aggregate_cells",
              metrics=("goodput_bps", "repair_p99_s", "stall_s",
                       "invariant_violations"),
              description="controller arena: pgmcc vs jain/aimd/tfrc"),
    SweepSpec("EXP-RESILIENCE", "EXP-RESILIENCE-CELL", scale=0.5,
              base={"seed": 31, "liveness": True},
              axes={"controller": _CONTROLLERS,
                    "scenario": ["partition", "blackhole", "acker-crash"]},
              aggregate="repro.experiments.resilience:aggregate_cells",
              rank_by="ttr_s", metrics=_RECOVERY_METRICS,
              description="partition/blackhole/acker-crash recovery "
                          "matrix with TTR SLO"),
    SweepSpec("ABL-WATCHDOG", "EXP-RESILIENCE-CELL", mode="ablate",
              scale=0.5,
              base={"seed": 31, "controller": "pgmcc",
                    "scenario": "acker-crash", "liveness": True},
              axes={"liveness": [False]}, metrics=_RECOVERY_METRICS,
              description="ablation: acker-liveness watchdog vs the stall "
                          "timer alone on the pgmcc acker crash"),
    SweepSpec("ABL-FIG4", "EXP-F4-CELL", mode="ablate", scale=0.5,
              base={"seed": 23, "c": 1.0, "dupack_threshold": 3,
                    "ssthresh": 6, "delayed_acks": False},
              axes={"c": [0.9, 0.75, 0.6], "dupack_threshold": [2, 4, 5],
                    "ssthresh": [2, 16, 64], "delayed_acks": [True]},
              description="ablations on the non-lossy Fig. 4 case: "
                          "switch bias c (3.5), dupack threshold (5), "
                          "initial ssthresh (3.4), TCP delayed ACKs"),
    SweepSpec("ABL-RTT", "EXP-F5", mode="ablate", scale=0.5,
              base={"seed": 29, "rtt_mode": "seq"},
              axes={"rtt_mode": ["time"]},
              description="ablation: time vs seq RTT mode (3.2.1) on the "
                          "Fig. 5 scenario"),
    SweepSpec("EXP-SWEEP", "EXP-SWEEP-CELL", scale=0.5,
              base={"seed": 83},
              axes={"rate": [250_000, 500_000, 1_000_000],
                    "queue_slots": [10, 30, 60],
                    "loss": [0.0, 0.02]},
              rank_by="ratio", rank_descending=True,
              description="fairness over the 4.3 configuration grid"),
)

for _spec in _BUILTIN_SPECS + _BUILTIN_STUDIES:
    register_experiment(_spec)
