"""The ``python -m repro.sweep`` CLI: subcommands, artifacts, exits."""

import json

import pytest

from repro.sweep.cli import main

SPEC_DOC = {
    "name": "cli-toy",
    "experiment": "EXP-RESILIENCE-CELL",
    "scale": 0.05,
    "axes": {"liveness": [True, False]},
    "base": {"scenario": "partition", "seed": 31},
    "report": {"rank_by": "ttr_s", "metrics": ["ttr_s",
                                               "goodput_retained"]},
}


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_DOC))
    return str(path)


class TestValidate:
    def test_valid_spec_exit_zero(self, spec_path, capsys):
        assert main(["validate", spec_path]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "2 task(s)" in out

    def test_invalid_spec_exit_two_lists_problems(self, tmp_path, capsys):
        doc = dict(SPEC_DOC, axes={"liveness": [True], "typo": [1]},
                   mode="zip")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "problem(s)" in err
        assert "typo" in err

    def test_unreadable_spec_exit_two(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_spec_key_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(SPEC_DOC, axis={})))
        assert main(["validate", str(path)]) == 2
        assert "unknown sweep-spec key" in capsys.readouterr().err


class TestExpand:
    def test_prints_matrix_without_running(self, spec_path, capsys):
        assert main(["expand", spec_path]) == 0
        out = capsys.readouterr().out
        assert "cli-toy/liveness=True" in out
        assert "cli-toy/liveness=False" in out
        assert "scenario='partition'" in out
        assert "2 task(s)" in out


class TestRun:
    def test_run_writes_all_artifacts(self, spec_path, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        json_path = tmp_path / "report.json"
        md_path = tmp_path / "report.md"
        rc = main(["run", spec_path, "-j", "2", "--quiet",
                   "--cache-dir", str(tmp_path / "cache"),
                   "--manifest", str(manifest_path),
                   "--json", str(json_path),
                   "--report", str(md_path)])
        assert rc == 0

        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema"] == "pgmcc.run-manifest/v2"
        assert manifest["sweep"]["spec"]["name"] == "cli-toy"
        assert manifest["totals"]["ok"] == 2

        report = json.loads(json_path.read_text())
        assert report["schema"] == "pgmcc.sweep-report/v1"
        assert report["totals"]["ok"] == 2

        text = md_path.read_text()
        assert "# Sweep report: cli-toy" in text
        assert "## Ranked by `ttr_s`" in text

        out = capsys.readouterr().out
        assert "2/2 ok" in out
        assert report["report_digest"] in out

    def test_digest_stable_j1_j2_cached(self, spec_path, tmp_path, capsys):
        digests = []
        cache = str(tmp_path / "cache")
        for jobs in ("1", "2", "1"):
            path = tmp_path / f"r{len(digests)}.json"
            rc = main(["run", spec_path, "-j", jobs, "--quiet",
                       "--cache-dir", cache, "--json", str(path)])
            assert rc == 0
            digests.append(
                json.loads(path.read_text())["report_digest"])
        capsys.readouterr()
        assert len(set(digests)) == 1
        # third run was fully cached
        last = json.loads((tmp_path / "r2.json").read_text())
        assert last["run"]["cache_hits"] == 2

    def test_invalid_spec_run_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(SPEC_DOC,
                                        axes={"liveness": ["typo"]})))
        assert main(["run", str(path)]) == 2
        assert "problem(s)" in capsys.readouterr().err

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
    def test_bad_jobs_is_usage_error(self, flag, value, expected, spec_path,
                                     capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", spec_path, flag, value])
        assert exit_info.value.code == 2
        assert expected in capsys.readouterr().err


class TestSpecShape:
    """A scalar where the spec wants an array is a usage error that
    names the key — not a sweep over the letters of a string, and not
    a traceback."""

    @pytest.mark.parametrize("command", ["validate", "expand", "run"])
    @pytest.mark.parametrize("patch, expected", [
        pytest.param({"axes": {"liveness": "on"}},
                     "axes.liveness: expected an array of values, got str",
                     id="axes-str"),
        pytest.param({"axes": {"liveness": 1}},
                     "axes.liveness: expected an array of values, got int",
                     id="axes-int"),
        pytest.param({"base": {"scenario": "partition"}, "seeds": 5},
                     "seeds: expected an array of values, got int",
                     id="seeds"),
        pytest.param({"report": {"metrics": "ttr_s"}},
                     "metrics: expected an array of values, got str",
                     id="metrics"),
        pytest.param({"scale": "big"}, "scale: expected a number, got str",
                     id="scale"),
    ])
    def test_scalar_for_an_array_names_the_key(self, command, patch,
                                               expected, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**SPEC_DOC, **patch}))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"
