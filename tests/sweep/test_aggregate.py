"""Aggregation math: deltas, ranking, hooks."""

import pytest

import tests.sweep._toy  # noqa: F401 - registers TOY-SWEEP
from repro.experiments.common import ExperimentResult
from repro.sweep import SweepSpec, expand
from repro.sweep.aggregate import (
    SweepCell,
    axis_deltas,
    collect_cells,
    ranked_rows,
    run_custom_aggregate,
    shared_numeric_metrics,
)

TOY = "TOY-SWEEP"


def make_cells(spec, metric_fn):
    """Expand ``spec`` and fabricate ok cells with computed metrics."""
    cells = []
    for task in expand(spec):
        kwargs = dict(task.spec.kwargs)
        result = ExperimentResult(name=task.id, metrics=metric_fn(kwargs))
        cells.append(SweepCell(task=task, status="ok", result=result))
    return cells


def toy_metrics(kwargs):
    base = 10.0 if kwargs.get("mode", "a") == "a" else 30.0
    return {"score": base * kwargs.get("gain", 1.0) + kwargs.get("seed", 0),
            "label": kwargs.get("mode", "a")}


class TestSharedMetrics:
    def test_intersection_of_numeric_metrics(self):
        spec = SweepSpec(name="m", experiment=TOY, axes={"mode": ["a", "b"]})
        cells = make_cells(spec, toy_metrics)
        assert shared_numeric_metrics(cells) == ["score"]  # label is str

    def test_wanted_restricts_and_orders(self):
        spec = SweepSpec(name="m", experiment=TOY, axes={"mode": ["a", "b"]})
        cells = make_cells(
            spec, lambda kw: {"b": 1.0, "a": 2.0, "c": 3.0})
        assert shared_numeric_metrics(cells) == ["a", "b", "c"]
        assert shared_numeric_metrics(cells, ("c", "a")) == ["c", "a"]
        assert shared_numeric_metrics(cells, ("c", "missing")) == ["c"]

    def test_failed_cells_excluded(self):
        spec = SweepSpec(name="m", experiment=TOY, axes={"mode": ["a"]})
        [cell] = make_cells(spec, toy_metrics)
        failed = SweepCell(task=cell.task, status="failed", result=None)
        assert shared_numeric_metrics([cell, failed]) == ["score"]
        assert shared_numeric_metrics([failed]) == []


class TestAxisDeltas:
    def test_means_and_deltas_against_first_value(self):
        spec = SweepSpec(name="d", experiment=TOY,
                         axes={"mode": ["a", "b"], "gain": [1.0, 2.0]})
        deltas = axis_deltas(spec, make_cells(spec, toy_metrics))
        by_axis = {d["axis"]: d for d in deltas}
        # mode=a: scores 10, 20 (gain 1, 2); mode=b: 30, 60
        mode = by_axis["mode"]
        assert mode["baseline"] == "a"
        assert mode["groups"][0]["means"]["score"] == 15.0
        assert mode["groups"][1]["means"]["score"] == 45.0
        assert mode["groups"][1]["deltas"]["score"] == 30.0
        assert "deltas" not in mode["groups"][0]  # the baseline group
        gain = by_axis["gain"]
        assert gain["groups"][1]["deltas"]["score"] == 20.0

    def test_single_value_axes_skipped(self):
        spec = SweepSpec(name="d", experiment=TOY,
                         axes={"mode": ["a"], "gain": [1.0, 2.0]})
        deltas = axis_deltas(spec, make_cells(spec, toy_metrics))
        assert [d["axis"] for d in deltas] == ["gain"]

    def test_seeds_axis_included(self):
        spec = SweepSpec(name="d", experiment=TOY,
                         axes={"mode": ["a"]}, seeds=(1, 3))
        deltas = axis_deltas(spec, make_cells(spec, toy_metrics))
        assert [d["axis"] for d in deltas] == ["seed"]
        assert deltas[0]["groups"][1]["deltas"]["score"] == 2.0


class TestRankedRows:
    def test_ascending_default_and_tie_break_on_id(self):
        spec = SweepSpec(name="r", experiment=TOY,
                         axes={"mode": ["b", "a"]}, rank_by="score")
        rows = ranked_rows(spec, make_cells(spec, toy_metrics))
        assert [r["mode"] for r in rows] == ["a", "b"]  # 10 < 30
        assert [r["rank"] for r in rows] == [1, 2]
        assert rows[0]["score"] == 10.0

    def test_descending(self):
        spec = SweepSpec(name="r", experiment=TOY,
                         axes={"mode": ["a", "b"]}, rank_by="score",
                         rank_descending=True)
        rows = ranked_rows(spec, make_cells(spec, toy_metrics))
        assert [r["mode"] for r in rows] == ["b", "a"]

    def test_no_rank_by_yields_empty(self):
        spec = SweepSpec(name="r", experiment=TOY, axes={"mode": ["a"]})
        assert ranked_rows(spec, make_cells(spec, toy_metrics)) == []


class TestCustomAggregate:
    def test_hook_receives_ok_cells_and_returns_dict(self):
        spec = SweepSpec(
            name="c", experiment=TOY, axes={"mode": ["a", "b"]},
            aggregate="tests.sweep.test_aggregate:sample_hook")
        out = run_custom_aggregate(spec, make_cells(spec, toy_metrics))
        assert out == {"metrics": {"total_score": 40.0}}

    def test_no_hook_is_none(self):
        spec = SweepSpec(name="c", experiment=TOY, axes={"mode": ["a"]})
        assert run_custom_aggregate(
            spec, make_cells(spec, toy_metrics)) is None

    def test_bad_hook_shapes_rejected(self):
        cells = []
        bad_return = SweepSpec(
            name="c", experiment=TOY, axes={"mode": ["a"]},
            aggregate="tests.sweep.test_aggregate:bad_hook_list")
        with pytest.raises(TypeError, match="expected dict"):
            run_custom_aggregate(bad_return, cells)
        bad_keys = SweepSpec(
            name="c", experiment=TOY, axes={"mode": ["a"]},
            aggregate="tests.sweep.test_aggregate:bad_hook_keys")
        with pytest.raises(ValueError, match="unknown key"):
            run_custom_aggregate(bad_keys, cells)


def sample_hook(cells):
    return {"metrics": {
        "total_score": sum(result.metrics["score"] for _, result in cells)}}


def bad_hook_list(cells):
    return ["not", "a", "dict"]


def bad_hook_keys(cells):
    return {"tables": []}


class TestCollectCells:
    def test_joins_by_task_id_in_task_order(self):
        from repro.runner.tasks import TaskOutcome

        spec = SweepSpec(name="j", experiment=TOY, axes={"mode": ["a", "b"]})
        tasks = expand(spec)
        outcomes = [
            TaskOutcome(id=tasks[1].id, status="failed", attempts=2,
                        wall_s=0.5, error={"type": "X", "message": "",
                                           "traceback": ""}),
            TaskOutcome(id=tasks[0].id, status="ok",
                        result=ExperimentResult(name="x"), attempts=1,
                        wall_s=0.1, cache_hit=True, result_digest="d"),
        ]
        cells = collect_cells(tasks, outcomes)
        assert [c.task.id for c in cells] == [t.id for t in tasks]
        assert cells[0].ok
        assert not cells[1].ok
