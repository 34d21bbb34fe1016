"""Expansion modes, task identity, and schema-backed validation."""

import math

import pytest

import tests.sweep._toy  # noqa: F401 - registers TOY-SWEEP
from repro.experiments.common import ExperimentSpec
from repro.experiments.registry import _REGISTRY, get_experiment
from repro.sweep import SweepSpec, SweepValidationError, expand
from repro.sweep.validate import spec_errors

TOY = "TOY-SWEEP"


def takes_anything(scale=1.0, **kwargs):  # pragma: no cover - never run
    raise AssertionError


def kwargs_of(task):
    return dict(task.spec.kwargs)


class TestGrid:
    def test_cartesian_product_declaration_order(self):
        spec = SweepSpec(name="g", experiment=TOY,
                         axes={"mode": ["a", "b"], "gain": [1.0, 2.0]})
        tasks = expand(spec)
        assert [t.id for t in tasks] == [
            "g/mode=a,gain=1.0", "g/mode=a,gain=2.0",
            "g/mode=b,gain=1.0", "g/mode=b,gain=2.0",
        ]
        assert kwargs_of(tasks[0]) == {"mode": "a", "gain": 1.0}
        assert tasks[0].axes_dict == {"mode": "a", "gain": 1.0}

    def test_base_merges_into_every_task(self):
        spec = SweepSpec(name="g", experiment=TOY,
                         axes={"mode": ["a", "b"]}, base={"gain": 3.0})
        for task in expand(spec):
            assert kwargs_of(task)["gain"] == 3.0

    def test_seeds_become_an_extra_axis(self):
        spec = SweepSpec(name="g", experiment=TOY,
                         axes={"mode": ["a"]}, seeds=(1, 2, 3))
        tasks = expand(spec)
        assert len(tasks) == 3
        assert [kwargs_of(t)["seed"] for t in tasks] == [1, 2, 3]
        assert tasks[0].id == "g/mode=a,seed=1"

    def test_expansion_is_deterministic(self):
        spec = SweepSpec(name="g", experiment=TOY,
                         axes={"mode": ["a", "b"], "gain": [1.0, 2.0]},
                         seeds=(1, 2))
        first = [(t.id, t.spec.kwargs) for t in expand(spec)]
        second = [(t.id, t.spec.kwargs) for t in expand(spec)]
        assert first == second


class TestZip:
    def test_lockstep_pairs(self):
        spec = SweepSpec(name="z", experiment=TOY, mode="zip",
                         axes={"mode": ["a", "b"], "gain": [1.0, 2.0]})
        tasks = expand(spec)
        assert [kwargs_of(t) for t in tasks] == [
            {"mode": "a", "gain": 1.0}, {"mode": "b", "gain": 2.0}]

    def test_length_mismatch_rejected(self):
        spec = SweepSpec(name="z", experiment=TOY, mode="zip",
                         axes={"mode": ["a", "b"], "gain": [1.0]})
        with pytest.raises(SweepValidationError, match="equal-length"):
            expand(spec)


class TestAblate:
    def test_baseline_plus_one_change_per_value(self):
        spec = SweepSpec(name="ab", experiment=TOY, mode="ablate",
                         base={"gain": 2.0},
                         axes={"mode": ["b"], "gain": [5.0, 7.0]})
        tasks = expand(spec)
        assert [t.id for t in tasks] == [
            "ab/base", "ab/mode=b", "ab/gain=5.0", "ab/gain=7.0"]
        # the baseline is base-only; each ablation changes one axis
        assert kwargs_of(tasks[0]) == {"gain": 2.0}
        assert kwargs_of(tasks[1]) == {"gain": 2.0, "mode": "b"}
        assert kwargs_of(tasks[2]) == {"gain": 5.0}

    def test_ablate_without_axes_rejected(self):
        spec = SweepSpec(name="ab", experiment=TOY, mode="ablate",
                         base={"gain": 2.0})
        with pytest.raises(SweepValidationError, match="nothing to ablate"):
            expand(spec)


class TestValidation:
    def test_unknown_experiment_lists_known_ids(self):
        spec = SweepSpec(name="v", experiment="EXP-NOPE",
                         axes={"x": [1]})
        errors = spec_errors(spec)
        assert len(errors) == 1
        assert "unknown experiment" in errors[0]
        assert "EXP-F2" in errors[0]

    def test_axis_not_in_schema_rejected(self):
        spec = SweepSpec(name="v", experiment=TOY, axes={"typo": [1]})
        with pytest.raises(SweepValidationError, match="not in .*schema"):
            expand(spec)

    def test_out_of_choices_value_rejected(self):
        spec = SweepSpec(name="v", experiment=TOY, axes={"mode": ["z"]})
        with pytest.raises(SweepValidationError, match="one of"):
            expand(spec)

    def test_out_of_range_value_rejected(self):
        spec = SweepSpec(name="v", experiment=TOY, axes={"gain": [-1.0]})
        with pytest.raises(SweepValidationError, match="below the minimum"):
            expand(spec)

    def test_type_mismatch_rejected(self):
        spec = SweepSpec(name="v", experiment=TOY, axes={"seed": [1.5]})
        with pytest.raises(SweepValidationError, match="expected int"):
            expand(spec)

    def test_bool_is_not_an_int(self):
        spec = SweepSpec(name="v", experiment=TOY, axes={"seed": [True]})
        with pytest.raises(SweepValidationError, match="expected int"):
            expand(spec)

    @pytest.mark.parametrize("fields", [
        {"axes": {"gain": [math.nan]}},
        {"base": {"gain": math.nan}},
        {"scale": math.nan},
        {"scale": math.inf},
    ], ids=["axis-nan", "base-nan", "scale-nan", "scale-inf"])
    def test_non_finite_numbers_rejected(self, fields):
        """A spec file spells both (``scale = nan``, ``gain = inf``):
        a float parameter is finite, a sweep's scale is in (0, inf)."""
        spec = SweepSpec(name="v", experiment=TOY,
                         **{"axes": {"mode": ["a"]}, **fields})
        assert spec_errors(spec)
        if "scale" in fields:
            with pytest.raises(ValueError, match="finite"):
                get_experiment(TOY).validate_kwargs(fields)

    def test_scale_axis_forbidden(self):
        spec = SweepSpec(name="v", experiment=TOY, axes={"scale": [0.5]})
        with pytest.raises(SweepValidationError, match="'scale' cannot"):
            expand(spec)

    def test_base_shadowing_axis_rejected(self):
        spec = SweepSpec(name="v", experiment=TOY,
                         axes={"mode": ["a"]}, base={"mode": "b"})
        with pytest.raises(SweepValidationError, match="shadows an axis"):
            expand(spec)

    def test_seeds_conflict_with_explicit_seed_axis(self):
        spec = SweepSpec(name="v", experiment=TOY,
                         axes={"seed": [1, 2]}, seeds=(3,))
        with pytest.raises(SweepValidationError, match="conflicts"):
            expand(spec)

    @pytest.mark.parametrize("hook, expected", [
        pytest.param("no-colon", "must be 'module:function'", id="shape"),
        pytest.param("repro.no_such_module:f", "cannot import",
                     id="module"),
        pytest.param("repro.experiments.arena:no_such_hook",
                     "has no function 'no_such_hook'", id="function"),
        pytest.param("repro.experiments.arena:SCENARIOS",
                     "has no function 'SCENARIOS'", id="not-callable"),
    ])
    def test_aggregate_hook_must_resolve(self, hook, expected):
        """Checked before any cell runs, not after the last one."""
        spec = SweepSpec(name="v", experiment=TOY, axes={"mode": ["a"]},
                         aggregate=hook)
        errors = spec_errors(spec)
        assert len(errors) == 1 and expected in errors[0]
        assert spec_errors(SweepSpec(
            name="v", experiment=TOY, axes={"mode": ["a"]},
            aggregate="repro.experiments.arena:aggregate_cells")) == []

    def test_every_problem_reported_at_once(self):
        spec = SweepSpec(name="v", experiment=TOY, mode="zip",
                         axes={"mode": ["z", "a"], "gain": [-1.0]})
        errors = spec_errors(spec)
        assert len(errors) >= 3  # bad choice, bad range, zip mismatch

    def test_undeclared_schema_is_permissive(self, monkeypatch):
        # an experiment with no declared params whose function takes
        # **kwargs accepts any axis name
        monkeypatch.setitem(_REGISTRY, "EXP-TEST-ANY", ExperimentSpec(
            "EXP-TEST-ANY", __name__, "takes_anything"))
        spec = SweepSpec(name="v", experiment="EXP-TEST-ANY",
                         axes={"anything": [1, 2]})
        assert spec_errors(spec) == []

    def test_undeclared_schema_is_the_function_signature(self):
        # EXP-F4 declares no params: its function's keywords are the
        # schema, so a typo'd axis fails here, not in every worker
        spec = SweepSpec(name="x", experiment="EXP-F4", axes={"cc": (1, 2)})
        errors = spec_errors(spec)
        assert len(errors) == 1 and "'cc'" in errors[0]
        assert spec_errors(SweepSpec(name="x", experiment="EXP-F4",
                                     axes={"c": (0.5, 1.0)})) == []

    def test_experiment_id_spelling_normalized(self):
        spec = SweepSpec(name="v", experiment="toy_sweep",
                         axes={"mode": ["a"]})
        tasks = expand(spec)
        assert tasks[0].spec.module == "tests.sweep._toy"
