"""The ``python -m repro.runner`` CLI and the artifacts it writes."""

import json

import pytest

from repro.experiments.common import ExperimentSpec
from repro.runner.cli import main


class TestListing:
    def test_list_prints_registry(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("EXP-F2", "EXP-CHAOS", "EXP-ADV", "EXP-SCALE"):
            assert exp_id in out
        assert "Fig. 2" in out  # descriptions present

    @pytest.mark.parametrize("flag, value, expected", [
        pytest.param("-j", v, "expected 'auto' or an integer >= 1", id=v)
        for v in ("two", "0", "1.5")
    ] + [
        pytest.param("--scale", v, "expected a finite number > 0",
                     id=f"scale={v}")
        for v in ("0", "-1", "nan", "fast")
    ] + [
        pytest.param("--timeout", v, "expected a finite number >= 0",
                     id=f"timeout={v}")
        for v in ("-5", "nan", "inf", "soon")
    ] + [
        pytest.param("--retries", v, "expected an integer >= 0",
                     id=f"retries={v}")
        for v in ("-2", "1.5", "some")
    ])
    def test_bad_jobs_is_usage_error(self, flag, value, expected, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["EXP-F2", flag, value])
        assert exit_info.value.code == 2
        assert expected in capsys.readouterr().err

    def test_unknown_id_helpful_error(self, capsys):
        assert main(["EXP-TYPO"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment id" in err
        assert "EXP-TYPO" in err
        assert "EXP-F2" in err  # suggests the known ids


class TestSweep:
    @pytest.fixture
    def paths(self, tmp_path):
        return {
            "cache": str(tmp_path / "cache"),
            "manifest": str(tmp_path / "manifest.json"),
        }

    def test_smoke_sweep_writes_manifest(self, paths, capsys):
        rc = main(["EXP-F2", "-j", "2", "--scale", "0.05",
                   "--cache-dir", paths["cache"],
                   "--manifest", paths["manifest"],
                   "--quiet", "--no-report"])
        assert rc == 0
        manifest = json.loads(open(paths["manifest"]).read())
        assert manifest["schema"] == "pgmcc.run-manifest/v2"
        assert "sweep" not in manifest  # only sweep runs carry the block
        assert manifest["totals"]["ok"] == 1
        assert manifest["tasks"][0]["id"] == "EXP-F2"
        assert manifest["tasks"][0]["result"]["name"] == "fig2-loss-filter"

        out = capsys.readouterr().out
        assert "1/1 ok" in out
        assert manifest["results_digest"] in out

    def test_warm_rerun_hits_cache_and_no_cache_disables(self, paths, capsys):
        base = ["EXP-F2", "--scale", "0.05",
                "--cache-dir", paths["cache"],
                "--manifest", paths["manifest"],
                "--quiet", "--no-report"]
        assert main(base) == 0
        assert main(base) == 0
        warm = json.loads(open(paths["manifest"]).read())
        assert warm["totals"]["cache_hits"] == 1
        assert warm["cache_enabled"] is True
        assert main(base + ["--no-cache"]) == 0
        cold = json.loads(open(paths["manifest"]).read())
        assert cold["totals"]["cache_hits"] == 0
        assert cold["cache_enabled"] is False
        # identical metrics either way
        assert cold["results_digest"] == warm["results_digest"]
        capsys.readouterr()


class TestRunAllIsolation:
    """A raising experiment does not abort the run: its siblings
    complete and the failure is summarised last, with its traceback."""

    def test_failure_reported_at_end_siblings_complete(self, monkeypatch,
                                                       tmp_path, capsys):
        toy = "tests.runner._toy"
        monkeypatch.setattr("repro.experiments.registry._REGISTRY", {
            spec.id: spec for spec in (
                ExperimentSpec("TOY-OK1", toy, "run_ok", kwargs=(("seed", 1),)),
                ExperimentSpec("TOY-BAD", toy, "run_fail",
                               kwargs=(("message", "kaput"),)),
                ExperimentSpec("TOY-OK2", toy, "run_ok", kwargs=(("seed", 2),)),
            )})
        rc = main(["--no-cache", "--retries", "0", "--quiet",
                   "--manifest", str(tmp_path / "manifest.json")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "##### TOY-OK1 (wall " in out
        assert "##### TOY-OK2 (wall " in out
        assert "== toy-toy ==" in out  # reports still printed
        assert "2/3 ok, 1 failed" in out
        assert "--- FAILED TOY-BAD (ValueError: kaput) ---" in out
        assert "Traceback (most recent call last)" in out
        assert out.index("TOY-OK2 (wall") < out.index("--- FAILED TOY-BAD")
