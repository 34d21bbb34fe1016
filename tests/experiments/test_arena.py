"""EXP-ARENA smoke and oracle tests (fast scales).

The registered study runs once per module, through ``sweep()`` with the
cache off; ``tests/sweep/test_run.py`` pins that a study's results are
the same at ``-j1``, ``-jN`` and from cache.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import arena
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import get_experiment
from repro.sweep import SweepSpec, sweep

CONTROLLERS = {"pgmcc", "jain", "aimd", "tfrc"}


def run_study(scale):
    return sweep(get_experiment("EXP-ARENA"), scale=scale, cache_dir=None)


@pytest.fixture(scope="module")
def run():
    return run_study(0.15)


@pytest.fixture(scope="module")
def aggregate(run):
    return run.manifest["studies"]["EXP-ARENA"]["aggregate"]


def test_registered_and_resolvable():
    study = get_experiment("EXP-ARENA")
    assert isinstance(study, SweepSpec)
    assert (study.experiment, study.mode) == ("EXP-ARENA-CELL", "grid")
    assert study.aggregate == "repro.experiments.arena:aggregate_cells"
    # shell-friendly spellings resolve to the same study
    assert get_experiment("exp_arena") == study
    assert get_experiment("exp-arena") == study


def test_ranked_table_covers_every_backend(aggregate):
    rows = aggregate["rows"]
    assert {row["controller"] for row in rows} == CONTROLLERS
    ranks = [row["rank"] for row in rows]
    assert ranks == list(range(1, len(rows) + 1))
    scores = [row["fairness_score"] for row in rows]
    assert scores == sorted(scores)


def test_every_bout_recorded(run):
    assert run.ok
    bouts = {(cell.task.axes_dict["controller"],
              cell.task.axes_dict["scenario"]): cell.result.rows[0]
             for cell in run.cells}
    assert set(bouts) == {(name, scenario) for name in CONTROLLERS
                          for scenario in arena.SCENARIOS}
    for bout in bouts.values():
        assert bout["goodput_bps"] > 0


def test_invariants_hold_everywhere(run, aggregate):
    violations = [row["inv_violations"] for row in aggregate["rows"]]
    assert violations == [0] * len(aggregate["rows"])
    for task in run.manifest["tasks"]:
        assert task["result"]["metrics"]["invariant_violations"] == 0


def test_digest_stable_and_json_safe(run):
    """Every cell survives the JSON round trip a cache replay and a
    worker's reply take, with its digest; and the study's block is
    plain JSON."""
    json.dumps(run.manifest["studies"])
    for cell in run.cells:
        doc = json.loads(json.dumps(cell.result.to_dict()))
        assert ExperimentResult.from_dict(doc).digest() == cell.result.digest()


def test_fairness_helpers():
    assert arena.fairness_score(1.0) == 0.0
    assert arena.fairness_score(2.0) == arena.fairness_score(0.5)
    assert arena.in_envelope(1.0)
    assert not arena.in_envelope(100.0)


@pytest.mark.slow
def test_envelope_oracles_at_report_scale():
    """The acceptance configuration: runner scale 1.0 x the study's
    0.5."""
    metrics = run_study(0.5).manifest["studies"]["EXP-ARENA"]["aggregate"][
        "metrics"]
    assert metrics["pgmcc_in_envelope"] is True
    assert metrics["discriminates"] is True
