"""The ``python -m repro.runner`` CLI and the artifacts it writes, for
experiment ids and for sweep specs.

Exit status: 0 when everything is ok, 1 when a task or cell failed, 2
for usage errors (a bad option value, an unknown id, an invalid,
unreadable or wrongly shaped spec, ids mixed with a spec)."""

import json
from pathlib import Path

import pytest

import tests.sweep._toy  # noqa: F401 - registers TOY-SWEEP
from repro.experiments.common import ExperimentSpec
from repro.runner.cli import main
from repro.sweep import render_markdown

#: a two-cell sweep over the pure toy experiment (score = 10·gain for
#: mode a, 30·gain for mode b; cost = 100·scale)
SPEC_DOC = {
    "name": "cli-toy",
    "experiment": "TOY-SWEEP",
    "scale": 0.5,
    "axes": {"mode": ["a", "b"]},
    "base": {"gain": 2.0},
    "report": {"rank_by": "score", "metrics": ["score", "cost"]},
}


COMMITTED_SPECS = sorted(
    (Path(__file__).parents[2] / "examples" / "sweeps").glob("*.toml"))

#: option values the parser rejects, whether it is given ids or a spec
BAD_OPTION_VALUES = [
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
]


def toml_text(doc):
    """``doc`` as TOML: its scalars and arrays, then one table per dict
    (a JSON scalar or array of scalars is also a TOML one)."""
    lines = [f"{key} = {json.dumps(value)}" for key, value in doc.items()
             if not isinstance(value, dict)]
    for table, body in doc.items():
        if isinstance(body, dict):
            lines += [f"[{table}]", *(f"{key} = {json.dumps(value)}"
                                      for key, value in body.items())]
    return "\n".join(lines) + "\n"


def write_spec(tmp_path, name="spec.json", **patch):
    path = tmp_path / name
    doc = {**SPEC_DOC, **patch}
    path.write_text(toml_text(doc) if name.endswith(".toml")
                    else json.dumps(doc))
    return str(path)


def assert_usage_error(argv, expected, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert expected in capsys.readouterr().err


class TestListing:
    def test_list_prints_registry(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("EXP-F2", "EXP-CHAOS", "EXP-ADV", "EXP-SCALE"):
            assert exp_id in out
        assert "Fig. 2" in out  # descriptions present

    @pytest.mark.parametrize("flag, value, expected", BAD_OPTION_VALUES)
    def test_bad_jobs_is_usage_error(self, flag, value, expected, capsys):
        assert_usage_error(["EXP-F2", flag, value], expected, capsys)

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


class TestSpecUsage:
    """A ``.toml``/``.json`` positional is a sweep spec: it is checked
    before anything runs, and every problem with it exits 2."""

    def test_list_prints_the_expanded_tasks_without_running(self, tmp_path,
                                                            capsys):
        spec = write_spec(tmp_path)
        assert main(["--list", spec]) == 0
        out = capsys.readouterr().out
        assert "cli-toy/mode=a" in out and "cli-toy/mode=b" in out
        assert "gain=2.0, mode='a'" in out
        assert out.endswith(f"{spec}: 2 task(s) over TOY-SWEEP, mode grid\n")
        assert not (tmp_path / "results").exists()

    def test_every_committed_spec_lists(self, capsys):
        pytest.importorskip("tomllib")
        assert len(COMMITTED_SPECS) == 3
        for spec in COMMITTED_SPECS:
            assert main(["--list", str(spec)]) == 0
            assert f"{spec}: " in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value, expected", BAD_OPTION_VALUES)
    def test_bad_option_value_is_usage_error(self, flag, value, expected,
                                             tmp_path, capsys):
        assert_usage_error([write_spec(tmp_path), flag, value], expected,
                           capsys)

    @pytest.mark.parametrize("listing", [["--list"], []], ids=["list", "run"])
    def test_invalid_spec_lists_every_problem(self, listing, tmp_path, capsys):
        spec = write_spec(tmp_path, axes={"mode": ["a", "z"], "typo": [1]})
        assert main([*listing, spec, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{spec}: 2 problem(s)\n")
        assert "'z'" in err and "typo" in err

    def test_an_aggregate_hook_that_does_not_resolve_exits_two(self,
                                                               tmp_path,
                                                               capsys):
        spec = write_spec(tmp_path, report={
            "aggregate": "repro.experiments.arena:no_such_hook"})
        assert main([spec, "--quiet", "--no-cache",
                     "--manifest", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"{spec}: 1 problem(s)\n")
        assert "has no function 'no_such_hook'" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("doc, expected", [
        pytest.param(None, "No such file", id="unreadable"),
        pytest.param("{not json", "error: Expecting property name",
                     id="not-json"),
        pytest.param(json.dumps({**SPEC_DOC, "axis": {}}),
                     "unknown sweep-spec key", id="unknown-key"),
    ])
    def test_a_file_that_is_no_spec_exits_two(self, doc, expected, tmp_path,
                                              capsys):
        path = tmp_path / "spec.json"
        if doc is not None:
            path.write_text(doc)
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err

    @pytest.mark.parametrize("listing, name", [
        pytest.param(["--list"], "spec.json", id="list"),
        pytest.param(["--list"], "spec.toml", id="list-toml"),
        pytest.param([], "spec.json", id="run"),
    ])
    @pytest.mark.parametrize("patch, expected", [
        pytest.param({"axes": {"mode": "a"}},
                     "axes.mode: expected an array of values, got str",
                     id="axes-str"),
        pytest.param({"axes": {"mode": 1}},
                     "axes.mode: expected an array of values, got int",
                     id="axes-int"),
        pytest.param({"seeds": 5},
                     "seeds: expected an array of values, got int",
                     id="seeds"),
        pytest.param({"report": {"metrics": "score"}},
                     "metrics: expected an array of values, got str",
                     id="metrics"),
        pytest.param({"scale": "big"}, "scale: expected a number, got str",
                     id="scale"),
    ])
    def test_scalar_for_an_array_names_the_key(self, listing, name, patch,
                                               expected, tmp_path, capsys):
        """Not a sweep over the letters of a string, and not a
        traceback: one line naming the key, from a JSON or a TOML spec."""
        if name.endswith(".toml"):
            pytest.importorskip("tomllib")
        assert main([*listing, write_spec(tmp_path, name, **patch)]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("names", [
        pytest.param(["EXP-F2", "spec.json"], id="id-and-spec"),
        pytest.param(["spec.json", "EXP-F2"], id="spec-and-id"),
        pytest.param(["spec.json", "other.toml"], id="two-specs"),
    ])
    def test_ids_mixed_with_a_spec_or_two_specs(self, names, tmp_path,
                                                capsys):
        write_spec(tmp_path)
        argv = [str(tmp_path / n) if n.endswith((".json", ".toml")) else n
                for n in names]
        assert main(argv) == 2
        assert "give experiment ids or one sweep spec" in (
            capsys.readouterr().err)


class TestSpecRun:
    @pytest.fixture
    def run(self, tmp_path, capsys):
        """Run a spec; returns (exit status, manifest, stdout)."""
        def run(*extra, **patch):
            manifest = tmp_path / "manifest.json"
            rc = main([write_spec(tmp_path, **patch), "--quiet",
                       "--cache-dir", str(tmp_path / "cache"),
                       "--manifest", str(manifest), *extra])
            out = capsys.readouterr().out
            return rc, json.loads(manifest.read_text()), out
        return run

    def test_one_manifest_with_the_report_sections_and_the_report_printed(
            self, run):
        rc, manifest, out = run("-j", "2")
        assert rc == 0
        assert manifest["schema"] == "pgmcc.run-manifest/v2"
        assert manifest["totals"]["ok"] == 2
        block = manifest["sweep"]
        assert block["spec"]["name"] == "cli-toy"
        assert block["tasks"]["cli-toy/mode=b"] == {"mode": "b"}
        assert block["metrics"] == ["score", "cost"]
        assert [row["task"] for row in block["ranked"]] == [
            "cli-toy/mode=a", "cli-toy/mode=b"]
        assert [d["axis"] for d in block["axis_deltas"]] == ["mode"]
        assert "# Sweep report: cli-toy" in out
        assert "## Ranked by `score`" in out
        assert "2/2 ok, 0 failed" in out
        assert f"results digest: {manifest['results_digest']}" in out

    def test_the_printed_report_renders_the_saved_manifest(self, run):
        rc, manifest, out = run()
        assert rc == 0
        assert out.startswith(render_markdown(manifest) + "\n\n2/2 ok")

    def test_no_report_silences_the_sweep_report(self, run):
        rc, _, out = run("--no-report")
        assert rc == 0
        assert "Sweep report" not in out and "2/2 ok" in out

    def test_digest_stable_j1_j2_cached(self, run):
        runs = [run("-j", jobs) for jobs in ("1", "2", "1")]
        assert {rc for rc, _, _ in runs} == {0}
        manifests = [manifest for _, manifest, _ in runs]
        assert len({m["results_digest"] for m in manifests}) == 1
        assert [m["totals"]["cache_hits"] for m in manifests] == [0, 2, 2]

    def test_scale_overrides_the_spec_only_when_given(self, run):
        _, own, _ = run("--no-cache")
        _, given, _ = run("--no-cache", "--scale", "0.25")
        assert (own["scale"], given["scale"]) == (0.5, 0.25)
        assert given["sweep"]["spec"]["scale"] == 0.25
        costs = {task["result"]["metrics"]["cost"] for task in given["tasks"]}
        assert costs == {25.0}

    def test_a_failed_cell_exits_one(self, run):
        # gain=13 is the toy's deterministic failure cell
        rc, manifest, out = run("--retries", "0", base={"gain": 13.0})
        assert rc == 1
        assert manifest["totals"]["failed"] == 2
        assert ("--- FAILED cli-toy/mode=a (RuntimeError: unlucky gain) ---"
                in out)
