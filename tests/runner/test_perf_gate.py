"""Scale-series perf gate: threshold logic and CLI wiring.

``evaluate_series`` is pure, so the thresholds are pinned without
running a sweep; the CLI tests feed it hand-written artifacts.
"""

import json

import pytest

from repro.runner.perf_gate import evaluate_series, load_scale_baseline, main


class TestEvaluateSeries:
    MEASURED = {"1000": {"receivers_per_sec": 50_000.0},
                "100000": {"receivers_per_sec": 40_000.0}}

    def test_missing_baseline_cell_seeds_not_fails(self):
        v = evaluate_series(self.MEASURED, {})
        assert v["status"] == "ok"
        assert v["seeded"] == 2
        assert all(c["status"] == "seed" for c in v["cells"].values())

    def test_first_run_of_new_probe_seeds_alongside_existing(self):
        # One cell has history, the other is a brand-new probe: only
        # the known cell is compared, the new one seeds.
        baseline = {"1000": {"receivers_per_sec": 48_000.0}}
        v = evaluate_series(self.MEASURED, baseline)
        assert v["status"] == "ok"
        assert v["cells"]["1000"]["status"] == "ok"
        assert v["cells"]["100000"]["status"] == "seed"
        assert v["seeded"] == 1

    def test_regression_beyond_threshold_fails(self):
        baseline = {"1000": {"receivers_per_sec": 200_000.0}}
        v = evaluate_series({"1000": {"receivers_per_sec": 90_000.0}},
                            baseline)
        assert v["status"] == "fail"
        assert "scale cell 1000" in v["reasons"][0]

    def test_within_loose_threshold_is_ok(self):
        baseline = {"1000": {"receivers_per_sec": 100_000.0}}
        v = evaluate_series({"1000": {"receivers_per_sec": 51_000.0}},
                            baseline)
        assert v["status"] == "ok"

    def test_baseline_cell_without_the_key_seeds(self):
        # e.g. an artifact written before receivers_per_sec existed
        baseline = {"1000": {"wall_s": 3.0}}
        v = evaluate_series({"1000": {"receivers_per_sec": 1.0}}, baseline)
        assert v["cells"]["1000"]["status"] == "seed"

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_threshold_rejected(self, bad):
        with pytest.raises(ValueError):
            evaluate_series({}, {}, regression_threshold=bad)


class TestLoadScaleBaseline:
    def test_reads_series(self, tmp_path):
        path = tmp_path / "bench.json"
        series = {"1000": {"receivers_per_sec": 1.0}}
        path.write_text(json.dumps({"scale_metrics": series}))
        assert load_scale_baseline(str(path)) == series

    def test_artifact_predating_field_yields_empty(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"benches": []}))
        assert load_scale_baseline(str(path)) == {}
        path.write_text(json.dumps({"scale_metrics": None}))
        assert load_scale_baseline(str(path)) == {}


class TestCli:
    def _artifact(self, tmp_path, name, series):
        path = tmp_path / name
        path.write_text(json.dumps({"scale_metrics": series}))
        return str(path)

    def test_measured_is_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--baseline", self._artifact(tmp_path, "bench.json", {})])
        assert exc.value.code == 2
        assert "--measured" in capsys.readouterr().err

    def test_measured_against_seedless_baseline_prints_seed(
            self, tmp_path, capsys):
        # First run of the scale probe: the committed baseline has no
        # scale_metrics — every cell seeds, exit stays 0.
        measured = self._artifact(
            tmp_path, "measured.json",
            {"100000": {"receivers_per_sec": 40_000.0}})
        rc = main(["--baseline", self._artifact(tmp_path, "bench.json", None),
                   "--measured", measured])
        assert rc == 0
        assert "SEED-BASELINE" in capsys.readouterr().out

    def test_measured_scale_regression_fails(self, tmp_path, capsys):
        baseline = self._artifact(
            tmp_path, "bench.json",
            {"100000": {"receivers_per_sec": 200_000.0}})
        measured = self._artifact(
            tmp_path, "measured.json",
            {"100000": {"receivers_per_sec": 10_000.0}})
        rc = main(["--baseline", baseline, "--measured", measured])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_baseline_file_seeds(self, tmp_path, capsys):
        measured = self._artifact(
            tmp_path, "measured.json",
            {"100000": {"receivers_per_sec": 40_000.0}})
        rc = main(["--baseline", str(tmp_path / "absent.json"),
                   "--measured", measured])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no baseline" in out and "SEED-BASELINE" in out

    def test_missing_measured_file_skips_series_gate(self, tmp_path, capsys):
        rc = main(["--baseline", self._artifact(tmp_path, "bench.json", {}),
                   "--measured", str(tmp_path / "absent.json")])
        assert rc == 0
        assert "skipping scale-series gate" in capsys.readouterr().out
