"""The committed specs and the sweep plumbing around the arena matrix.

EXP-ARENA's matrix as the committed sweep spec (expand, worker pool,
cache, aggregate hook) arrives at exactly the ranked controller table
``arena.run()`` builds in one process, cell for cell.
"""

import pytest

from repro.experiments import arena
from repro.sweep import load_spec, sweep

ARENA_SPEC = "examples/sweeps/arena_matrix.toml"
RESILIENCE_SPEC = "examples/sweeps/resilience_matrix.toml"
CI_SPEC = "examples/sweeps/ci_smoke.toml"

SCALE = 0.02  # tiny but non-degenerate: every bout still measures


def load(path):
    pytest.importorskip("tomllib")
    return load_spec(path)


class TestCommittedSpecs:
    def test_all_specs_validate_and_expand(self):
        from repro.sweep import expand

        assert len(expand(load(ARENA_SPEC))) == 12
        assert len(expand(load(CI_SPEC))) == 8

    def test_resilience_matrix_expands_to_24_tasks(self):
        from repro.sweep import expand

        tasks = expand(load(RESILIENCE_SPEC))
        assert len(tasks) >= 24
        ids = {t.id for t in tasks}
        assert ("resilience-matrix/controller=pgmcc,"
                "scenario=acker-crash,liveness=False") in ids
        # the watchdog is a real axis: half the matrix runs without it
        assert sum(1 for t in tasks
                   if dict(t.spec.kwargs)["liveness"] is False) == 12


class TestArenaParity:
    @pytest.fixture(scope="class")
    def sweep_run(self, tmp_path_factory):
        return sweep(load(ARENA_SPEC), jobs=2, scale=SCALE,
                     cache_dir=tmp_path_factory.mktemp("cache"),
                     baseline=None)

    @pytest.fixture(scope="class")
    def mono(self):
        return arena.run(scale=SCALE)

    def test_every_cell_ok(self, sweep_run):
        totals = sweep_run.manifest["totals"]
        assert (totals["tasks"], totals["ok"], totals["failed"]) == (12, 12, 0)

    def test_ranked_table_matches_monolithic_run(self, sweep_run, mono):
        agg = sweep_run.manifest["sweep"]["aggregate"]
        assert agg["rows"] == mono.rows
        for key in ("pgmcc_in_envelope", "discriminates"):
            assert agg["metrics"][key] == mono.metrics[key]

    def test_cell_metrics_match_monolithic_bouts(self, sweep_run, mono):
        axes = sweep_run.manifest["sweep"]["tasks"]
        for task in sweep_run.manifest["tasks"]:
            controller = axes[task["id"]]["controller"]
            scenario = axes[task["id"]]["scenario"]
            assert (task["result"]["metrics"]["goodput_bps"]
                    == mono.metrics[f"{controller}:{scenario}:goodput_bps"])
