"""The experiment registration API and typed parameter schemas."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

from repro.experiments.common import ExperimentSpec, ParamSpec
from repro.experiments.registry import (
    _BUILTIN_SPECS,
    _BUILTIN_STUDIES,
    _REGISTRY,
    experiment_ids,
    get_experiment,
    register_experiment,
    registered_specs,
    registered_studies,
    resolve_experiment_id,
    schema_for_target,
)
from repro.sweep import SweepSpec


def takes_anything(scale=1.0, **kwargs):  # pragma: no cover - never run
    raise AssertionError


@pytest.fixture
def scratch_registry(monkeypatch):
    """Run a test against a private copy of the process-global registry."""
    monkeypatch.setattr("repro.experiments.registry._REGISTRY",
                        dict(_REGISTRY))


class TestRegisterExperiment:
    def test_plain_spec_call(self, scratch_registry):
        spec = register_experiment(ExperimentSpec(
            "EXP-TEST-PLAIN", "tests.runner._toy", "run_ok",
            description="registered via plain call"))
        assert get_experiment("EXP-TEST-PLAIN") is spec
        assert spec in registered_specs()

    def test_duplicate_id_raises(self, scratch_registry):
        with pytest.raises(ValueError, match="already registered"):
            register_experiment(ExperimentSpec(
                "EXP-F2", "elsewhere", description="imposter"))
        with pytest.raises(ValueError, match="already registered"):
            register_experiment(get_experiment("EXP-F2"))

    def test_a_study_shares_the_id_namespace(self, scratch_registry):
        with pytest.raises(ValueError, match="already registered"):
            register_experiment(SweepSpec(name="EXP-F2",
                                          experiment="EXP-F3"))
        study = register_experiment(SweepSpec(
            name="ABL-TEST", experiment="EXP-F2", mode="ablate",
            base={"seed": 1}, axes={"seed": [2]}))
        assert get_experiment("abl_test") is study
        assert registered_studies()[-1] is study
        assert experiment_ids()[-1] == "ABL-TEST"
        assert study not in registered_specs(include_hidden=True)

    def test_spec_or_id_required(self):
        with pytest.raises(TypeError):
            register_experiment()


class TestLookups:
    def test_spelling_normalization(self):
        assert resolve_experiment_id("exp_arena") == "EXP-ARENA"
        assert resolve_experiment_id("exp-arena-cell") == "EXP-ARENA-CELL"
        assert resolve_experiment_id("EXP-NOPE") is None

    def test_get_unknown_raises_with_known_ids(self):
        with pytest.raises(KeyError, match="EXP-F2"):
            get_experiment("EXP-NOPE")

    def test_fresh_interpreter_has_builtins_on_import(self):
        # importing the registry alone must register them: a sweep or
        # cache query may be a process's first touch of this layer
        proc = subprocess.run(
            [sys.executable, "-c",
             "import repro.experiments.registry as r; "
             "print(*r.experiment_ids(include_hidden=True))"],
            capture_output=True, text=True, timeout=120, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.stdout.split() == (
            [s.id for s in _BUILTIN_SPECS]
            + [s.name for s in _BUILTIN_STUDIES])

    def test_the_loops_studies_replaced_are_gone(self):
        from repro.experiments import (
            adversarial,
            arena,
            fig3_intra_fairness,
            fig4_inter_fairness,
            fig6_heterogeneous_rtt,
            resilience,
            scalability,
        )

        assert [s.name for s in registered_studies()] == [
            "EXP-F3", "EXP-F4", "EXP-F6", "ABL-MODEL", "ABL-ADSS",
            "ABL-TFRC", "ABL-BURST", "EXP-ADV", "EXP-FEC", "EXP-DTZ",
            "EXP-MPATH", "EXP-SCALE", "EXP-SCALE-HYBRID",
            "EXP-ARENA", "EXP-RESILIENCE", "ABL-WATCHDOG",
            "ABL-FIG4", "ABL-RTT", "EXP-SWEEP"]
        # every report entry left outside a study runs one case
        assert [s.id for s in registered_specs()] == [
            "EXP-F2", "EXP-F5", "EXP-F7", "EXP-UNREL", "EXP-CHURN",
            "EXP-CHAOS"]
        for old in ("ABL-C", "ABL-DUP", "ABL-SS", "ABL-DELACK", "ABL-NE"):
            assert resolve_experiment_id(old) is None
        # the monolithic matrix runners the arena and resilience
        # studies replaced, and the case loops of the figure, attack
        # and ablation studies
        for module, name in ((arena, "run"), (arena, "matrix_table"),
                             (resilience, "run"),
                             (resilience, "BASELINE_CELL"),
                             (fig3_intra_fairness, "run"),
                             (fig4_inter_fairness, "run"),
                             (fig4_inter_fairness, "run_case"),
                             (fig6_heterogeneous_rtt, "run"),
                             (fig6_heterogeneous_rtt, "run_case"),
                             (adversarial, "run"),
                             (adversarial, "SCENARIOS"),
                             (scalability, "run"),
                             (scalability, "run_hybrid_ladder"),
                             (scalability, "HYBRID_SIZES")):
            assert not hasattr(module, name), name
        # the three modules of the Fig. 7 star are its one cell
        for old in ("fig7_uncorrelated_loss", "fec_scaling", "drop_to_zero"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(f"repro.experiments.{old}")
        for old in ("EXP-FEC-CELL", "EXP-DTZ-CELL"):
            assert resolve_experiment_id(old) is None

    def test_importing_the_registry_loads_no_experiment(self):
        # a sweep's set-up imports the registry: it must not pay for
        # the experiment modules (or what they import) to look one up
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.experiments.registry; "
             "print(*sorted(m for m in sys.modules "
             "if m.startswith('repro.experiments.')))"],
            capture_output=True, text=True, timeout=120, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.stdout.split() == ["repro.experiments.common",
                                       "repro.experiments.registry"]

    def test_hidden_specs_excluded_from_view_but_resolvable(self):
        ids = [s.id for s in registered_specs()]
        assert "EXP-F2" in ids
        assert "EXP-ARENA-CELL" not in ids
        assert "EXP-ARENA-CELL" in [
            s.id for s in registered_specs(include_hidden=True)]
        assert get_experiment("EXP-ARENA-CELL").hidden

    def test_get_experiment_resolves_hidden_by_explicit_id(self):
        spec = get_experiment("exp_resilience_cell")
        assert spec.id == "EXP-RESILIENCE-CELL"
        assert all(not s.hidden for s in registered_specs())

    def test_schema_for_target(self):
        schema = schema_for_target("repro.experiments.arena:run_cell")
        names = [row["name"] for row in schema]
        assert names[0] == "scale"  # implicit, always first
        assert "controller" in names and "scenario" in names
        # experiments with no declared params resolve to None
        assert schema_for_target(
            "repro.experiments.fig2_loss_filter:run") is None
        assert schema_for_target("no.such:target") is None


class TestDeclaredDefaults:
    @pytest.mark.parametrize("spec", _BUILTIN_SPECS, ids=lambda s: s.id)
    def test_spec_states_no_default_its_function_contradicts(self, spec):
        """A declared default is the function's own, and every pinned
        kwarg is a parameter the function takes — so ``module.run()``
        called directly is the experiment the registry documents."""
        parameters = inspect.signature(spec.resolve()).parameters
        assert set(dict(spec.kwargs)) <= set(parameters)
        for param in spec.params:
            if param.default is not None:
                assert param.default == parameters[param.name].default, (
                    f"{spec.id}.{param.name}")
        # the result cache, given only the callable, finds this schema:
        # two specs over one target must declare one schema
        assert schema_for_target(f"{spec.module}:{spec.func}") == (
            spec.schema_doc() if spec.params else None)


class TestParamSpec:
    def test_type_check(self):
        p = ParamSpec("n", "int", low=0, high=10)
        p.check(5)
        with pytest.raises(TypeError, match="expected int"):
            p.check(5.0)
        with pytest.raises(TypeError, match="expected int"):
            p.check(True)  # bool is not an int here
        with pytest.raises(ValueError, match="below the minimum"):
            p.check(-1)
        with pytest.raises(ValueError, match="above the maximum"):
            p.check(11)
        p.check(None)  # its default is None
        with pytest.raises(TypeError, match="got NoneType"):
            ParamSpec("n", "int", default=1).check(None)

    def test_float_accepts_int(self):
        ParamSpec("x", "float", low=0.0).check(3)

    def test_choices(self):
        p = ParamSpec("mode", "str", choices=("a", "b"))
        p.check("a")
        with pytest.raises(ValueError, match="one of"):
            p.check("z")

    def test_seq_type(self):
        p = ParamSpec("sizes", "seq")
        p.check((1, 2))
        p.check([1, 2])
        with pytest.raises(TypeError):
            p.check(3)

    def test_unknown_type_name_rejected(self):
        with pytest.raises(ValueError, match="unknown type"):
            ParamSpec("x", "complex")


class TestValidateKwargs:
    SPEC = ExperimentSpec(
        "EXP-VK", "m", params=(
            ParamSpec("seed", "int", default=0, low=0),
            ParamSpec("mode", "str", choices=("a", "b")),
        ))

    def test_ok(self):
        self.SPEC.validate_kwargs({"scale": 0.5, "seed": 3, "mode": "a"})

    def test_unknown_name_lists_declared(self):
        with pytest.raises(TypeError, match="mode, scale, seed"):
            self.SPEC.validate_kwargs({"sede": 3})

    def test_bad_value_raises(self):
        with pytest.raises(ValueError, match="EXP-VK"):
            self.SPEC.validate_kwargs({"seed": -1})

    def test_scale_always_checked(self):
        undeclared = ExperimentSpec("EXP-UD", __name__, "takes_anything")
        undeclared.validate_kwargs({"anything": object()})  # **kwargs
        with pytest.raises(TypeError):
            undeclared.validate_kwargs({"scale": "fast"})

    def test_undeclared_schema_is_the_function_signature(self):
        spec = get_experiment("EXP-F4-CELL")
        assert not spec.params
        spec.validate_kwargs({"scale": 0.1, "seed": 3, "c": 0.5})
        with pytest.raises(TypeError, match="'cc'.*c, delayed_acks, "
                           "dupack_threshold, link, scale, seed, ssthresh"):
            spec.validate_kwargs({"cc": 3})

    def test_scale_alone_resolves_nothing(self, monkeypatch):
        # a plain registry run passes only scale: checking it never
        # looks up (imports) an experiment's function
        def no_resolve(spec):
            raise AssertionError(f"{spec.id} resolved")

        monkeypatch.setattr(ExperimentSpec, "resolve", no_resolve)
        for spec in registered_specs(include_hidden=True):
            spec.validate_kwargs(spec.call_kwargs(0.1))

    def test_orchestrator_validates_before_running(self):
        from repro.runner.orchestrator import Orchestrator

        bad = ExperimentSpec(
            "EXP-BAD-KW", "tests.runner._toy", "run_ok",
            kwargs=(("seed", -3),),
            params=(ParamSpec("seed", "int", low=0),))
        with pytest.raises(ValueError, match="EXP-BAD-KW"):
            Orchestrator([bad], jobs=1).run()

    def test_schema_in_cache_fingerprint(self):
        from repro.runner.cache import task_digest

        base = task_digest("m:f", {"scale": 1.0}, source="s",
                           param_schema=None)
        schema = self.SPEC.schema_doc()
        with_schema = task_digest("m:f", {"scale": 1.0}, source="s",
                                  param_schema=schema)
        assert base != with_schema
        # a schema edit invalidates the key
        other = ExperimentSpec(
            "EXP-VK2", "m", params=(
                ParamSpec("seed", "int", default=1, low=0),
                ParamSpec("mode", "str", choices=("a", "b")),
            ))
        assert task_digest("m:f", {"scale": 1.0}, source="s",
                           param_schema=other.schema_doc()) != with_schema


class TestRunAllCliDelegation:
    def test_list_prints_schemas_and_cell_tags(self, capsys):
        from repro.runner.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "EXP-ARENA-CELL" in out
        assert "[sweep-cell]" in out
        assert "scale: float = 1.0" in out
        assert "one of clean-tcp, fault, adversary" in out
