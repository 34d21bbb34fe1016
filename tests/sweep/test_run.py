"""End-to-end ``sweep()`` runs: reports, digests, manifests, caching."""

import pytest

import tests.sweep._toy  # noqa: F401 - registers TOY-SWEEP
from repro.sweep import SweepSpec, report_digest, sweep
from tests.runner.test_orchestrator import REPO_ROOT

TOY = "TOY-SWEEP"


def toy_spec(**overrides):
    fields = dict(
        name="toy-run",
        experiment=TOY,
        axes={"mode": ["a", "b"], "gain": [1.0, 2.0]},
        scale=0.5,
        rank_by="score",
        metrics=("score", "cost"),
    )
    fields.update(overrides)
    return SweepSpec(**fields)


def run_toy(spec, **kw):
    kw.setdefault("cache_dir", None)
    kw.setdefault("extra_sys_path", (REPO_ROOT,))
    return sweep(spec, **kw)


class TestSweepRun:
    def test_report_shape(self):
        run = run_toy(toy_spec())
        report = run.report
        assert report["schema"] == "pgmcc.sweep-report/v1"
        assert run.ok
        assert report["totals"] == {"tasks": 4, "ok": 4, "failed": 0}
        assert report["metrics"] == ["score", "cost"]
        assert len(report["tasks"]) == 4
        # mode=a gain=1: score 10; mode=b gain=2: score 60
        scores = {t["id"]: t["metrics"]["score"] for t in report["tasks"]}
        assert scores["toy-run/mode=a,gain=1.0"] == 10.0
        assert scores["toy-run/mode=b,gain=2.0"] == 60.0
        assert report["ranked"][0]["score"] == 10.0
        assert {d["axis"] for d in report["axis_deltas"]} == {"mode", "gain"}
        assert report["results_digest"] == run.manifest["results_digest"]
        assert report["report_digest"] == report_digest(report)
        assert run.results["toy-run/mode=a,gain=1.0"].metrics["score"] == 10.0

    def test_scale_override_reaches_cells(self):
        run = run_toy(toy_spec(axes={"mode": ["a"]}), scale=0.25)
        # cost = 100 * scale (+0 for flag=False)
        [task] = run.report["tasks"]
        assert task["metrics"]["cost"] == 25.0
        assert run.report["scale"] == 0.25

    def test_manifest_carries_the_sweep_block(self):
        run = run_toy(toy_spec())
        block = run.manifest["sweep"]
        assert block["spec"]["name"] == "toy-run"
        assert set(block["tasks"]) == {t.id for t in run.tasks}
        assert block["tasks"]["toy-run/mode=a,gain=1.0"] == {
            "mode": "a", "gain": 1.0}

    def test_digest_stable_across_jobs_and_cache(self, tmp_path):
        cache = tmp_path / "cache"
        spec = toy_spec()
        serial = run_toy(spec, cache_dir=cache)
        parallel = run_toy(spec, jobs=4)
        cached = run_toy(spec, cache_dir=cache)
        digests = {r.report["report_digest"]
                   for r in (serial, parallel, cached)}
        assert len(digests) == 1
        assert cached.report["run"]["cache_hits"] == 4
        assert serial.report["run"]["cache_hits"] == 0

    def test_failed_cell_reported_siblings_complete(self):
        # gain=13 is the toy's deterministic failure cell: its sibling
        # still completes and the report carries both outcomes.
        spec = SweepSpec(name="toy-fail", experiment=TOY,
                         axes={"gain": [1.0, 13.0]}, scale=0.5,
                         metrics=("score",))
        run = run_toy(spec, retries=0)
        assert not run.ok
        assert run.report["totals"] == {"tasks": 2, "ok": 1, "failed": 1}
        by_id = {t["id"]: t for t in run.report["tasks"]}
        assert by_id["toy-fail/gain=13.0"]["status"] == "failed"
        assert by_id["toy-fail/gain=1.0"]["metrics"]["score"] == 10.0

    def test_baseline_is_a_name_whose_one_value_is_none(self):
        """``benchmarks/perf/child.py`` spells ``baseline=None``; there
        is no gate behind the keyword to hand anything else to."""
        assert run_toy(toy_spec(axes={"mode": ["a"]}), baseline=None).ok
        with pytest.raises(TypeError, match="run.py compare"):
            run_toy(toy_spec(axes={"mode": ["a"]}), baseline="x")

    def test_report_digest_ignores_volatile_sections(self):
        run1 = run_toy(toy_spec())
        report = dict(run1.report)
        mutated = dict(report)
        mutated["run"] = {"run_id": "other", "jobs": 99,
                         "cache_hits": 7, "wall_s": 1e9}
        assert report_digest(mutated) == report_digest(report)

    def test_validation_failure_raises_before_any_run(self):
        from repro.sweep import SweepValidationError

        with pytest.raises(SweepValidationError):
            run_toy(toy_spec(axes={"typo": [1]}))

    def test_dict_and_file_specs_accepted(self, tmp_path):
        import json

        doc = {"name": "toy-doc", "experiment": TOY,
               "axes": {"mode": ["a"]}, "scale": 0.5}
        from_dict = run_toy(doc)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        from_file = run_toy(path)
        assert (from_dict.report["report_digest"]
                == from_file.report["report_digest"])


class TestMarkdown:
    def test_render_covers_all_sections(self):
        from repro.sweep import render_markdown

        spec = toy_spec(seeds=(1, 2), description="toy sweep test")
        run = run_toy(spec)
        text = render_markdown(run.report)
        assert "# Sweep report: toy-run" in text
        assert "toy sweep test" in text
        assert "## Cells" in text
        assert "## Per-axis deltas" in text
        assert "### axis `seed`" in text
        assert "## Ranked by `score`" in text
        assert "`toy-run/mode=a,gain=1.0,seed=1`" in text
