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

Re-registering an id raises — the registry is process-global and a
silent overwrite would poison sweep/digest reproducibility.
``python -m repro.runner`` runs what is registered here, by id or
through a sweep spec that names it.
"""

from __future__ import annotations

from typing import Any, Optional

from .common import ExperimentSpec, ParamSpec

__all__ = [
    "experiment_ids",
    "get_experiment",
    "register_experiment",
    "registered_specs",
    "resolve_experiment_id",
    "schema_for_target",
]

_REGISTRY: dict[str, ExperimentSpec] = {}


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    """Register ``spec`` and return it.

    Raises ``ValueError`` on a duplicate id.
    """
    existing = _REGISTRY.get(spec.id)
    if existing is not None:
        raise ValueError(
            f"experiment {spec.id!r} is already registered "
            f"(by {existing.module}); ids are process-global")
    _REGISTRY[spec.id] = spec
    return spec


def registered_specs(include_hidden: bool = False) -> list[ExperimentSpec]:
    """Registered specs in registration order (report entries only by
    default; ``include_hidden=True`` adds sweep-cell entries)."""
    return [s for s in _REGISTRY.values() if include_hidden or not s.hidden]


def experiment_ids(include_hidden: bool = False) -> list[str]:
    return [s.id for s in registered_specs(include_hidden)]


def resolve_experiment_id(exp_id: str) -> Optional[str]:
    """Canonical id for a case-/separator-insensitive spelling
    (``exp_arena`` == ``exp-arena`` == ``EXP-ARENA``), else None."""
    canonical = {key.upper().replace("_", "-"): key for key in _REGISTRY}
    return canonical.get(str(exp_id).upper().replace("_", "-"))


def get_experiment(exp_id: str) -> ExperimentSpec:
    """Spec for an id (normalized spelling accepted; hidden sweep-cell
    specs resolve like any other).  Raises ``KeyError`` listing the
    known ids on an unknown one."""
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
    for spec in _REGISTRY.values():
        if f"{spec.module}:{spec.func}" == target and spec.params:
            return spec.schema_doc()
    return None


# ---------------------------------------------------------------------------
# The built-in experiments
# ---------------------------------------------------------------------------

_SEED = ParamSpec("seed", "int", low=0, help="deterministic RNG seed")
_CONTROLLERS = ParamSpec(
    "controllers", "seq",
    help="subset of registered controller backends (default: all)")

#: Built-in experiments, registered in report order.  A spec is
#: spawn-safe (module/func strings, no callables); ``repro.runner``
#: shards the registry across a worker pool.
_BUILTIN_SPECS: tuple[ExperimentSpec, ...] = (
    ExperimentSpec("EXP-F2", "repro.experiments.fig2_loss_filter",
                   description="Fig. 2: loss-rate filter at receivers"),
    ExperimentSpec("EXP-F3", "repro.experiments.fig3_intra_fairness",
                   description="Fig. 3: intra-protocol fairness"),
    ExperimentSpec("EXP-F4", "repro.experiments.fig4_inter_fairness",
                   description="Fig. 4: inter-protocol fairness vs TCP"),
    ExperimentSpec("EXP-F5", "repro.experiments.fig5_acker_selection",
                   description="Fig. 5: acker selection/tracking plateaus"),
    ExperimentSpec("EXP-F6", "repro.experiments.fig6_heterogeneous_rtt",
                   description="Fig. 6: heterogeneous RTTs + NE suppression"),
    ExperimentSpec("EXP-F7", "repro.experiments.fig7_uncorrelated_loss",
                   description="Fig. 7: 50 receivers with uncorrelated loss"),
    ExperimentSpec("EXP-UNREL", "repro.experiments.unreliable_mode",
                   description="unreliable mode: cc without repairs"),
    ExperimentSpec("EXP-FEC", "repro.experiments.fec_scaling", scale_factor=0.5,
                   description="FEC redundancy ladder vs RDATA repair"),
    ExperimentSpec("EXP-DTZ", "repro.experiments.drop_to_zero", scale_factor=0.5,
                   params=(ParamSpec("group_sizes", "seq",
                                     default=(1, 10, 40),
                                     help="receiver-group sizes to compare"),),
                   description="drop-to-zero: feedback aggregation collapse"),
    ExperimentSpec("ABL-C", "repro.experiments.ablations", "run_switch_bias",
                   scale_factor=0.5, description="ablation: acker switch bias c"),
    ExperimentSpec("ABL-RTT", "repro.experiments.ablations", "run_rtt_mode",
                   scale_factor=0.5, description="ablation: time vs seq RTT mode"),
    ExperimentSpec("ABL-DUP", "repro.experiments.ablations", "run_dupack",
                   scale_factor=0.5, description="ablation: dupack threshold"),
    ExperimentSpec("ABL-SS", "repro.experiments.ablations", "run_ssthresh",
                   scale_factor=0.5, description="ablation: initial ssthresh"),
    ExperimentSpec("ABL-NE", "repro.experiments.ablations", "run_ne_suppression",
                   scale_factor=0.5, description="ablation: NE NAK suppression"),
    ExperimentSpec("ABL-MODEL", "repro.experiments.ablations", "run_throughput_model",
                   scale_factor=0.5, description="ablation: RTT^2*p throughput models"),
    ExperimentSpec("ABL-ADSS", "repro.experiments.ablations", "run_adaptive_ssthresh",
                   scale_factor=0.5, description="ablation: adaptive ssthresh"),
    ExperimentSpec("ABL-TFRC", "repro.experiments.ablations", "run_loss_estimator",
                   scale_factor=0.5, description="ablation: loss filter vs TFRC estimator"),
    ExperimentSpec("EXP-MPATH", "repro.experiments.robustness", "run_multipath",
                   scale_factor=0.5, description="robustness: multipath reordering"),
    ExperimentSpec("EXP-CHURN", "repro.experiments.robustness", "run_churn",
                   scale_factor=0.5, description="robustness: receiver churn"),
    ExperimentSpec("ABL-BURST", "repro.experiments.robustness", "run_bursty_loss",
                   scale_factor=0.5, description="robustness: bursty (Gilbert) loss"),
    ExperimentSpec("EXP-CHAOS", "repro.experiments.robustness", "run_chaos",
                   scale_factor=0.5, description="chaos: scripted faults + invariants"),
    ExperimentSpec("EXP-ADV", "repro.experiments.adversarial", scale_factor=0.5,
                   description="adversarial: misbehaving receivers vs guard"),
    ExperimentSpec("ABL-DELACK", "repro.experiments.ablations", "run_delayed_acks",
                   scale_factor=0.5, description="ablation: TCP delayed ACKs"),
    ExperimentSpec("EXP-SWEEP", "repro.experiments.fairness_sweep", scale_factor=0.5,
                   description="fairness over the 4.3 configuration grid"),
    ExperimentSpec("EXP-SCALE", "repro.experiments.scalability", scale_factor=0.5,
                   description="scalability: exact ladder to 200, hybrid to 10^6"),
    ExperimentSpec("EXP-ARENA", "repro.experiments.arena", scale_factor=0.5,
                   params=(_SEED, _CONTROLLERS,
                           ParamSpec("n_receivers", "int", default=4, low=2)),
                   description="controller arena: pgmcc vs jain/aimd/tfrc"),
    ExperimentSpec("EXP-RESILIENCE", "repro.experiments.resilience",
                   scale_factor=0.5,
                   params=(_SEED, _CONTROLLERS),
                   description="partition/blackhole/acker-crash recovery "
                               "matrix with TTR SLO"),
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
)

for _spec in _BUILTIN_SPECS:
    register_experiment(_spec)
