"""tools/diff_manifests.py: leaf-by-leaf comparison of run manifests."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import diff_manifests  # noqa: E402


def manifest(events=100, rate=1.5, wall=0.2, extra_task=False):
    tasks = [{
        "id": "EXP-A", "status": "ok", "wall_s": wall, "worker": 1,
        "attempts": 1, "cache_hit": False, "result_digest": f"d{events}{wall}",
        "result": {
            "metrics": {"rate": rate},
            "rows": [{"n": 1}, {"n": 2}],
            "telemetry": {"counters": {"net.events_processed": events,
                                       "net.queue_drops": 3}},
        },
    }]
    if extra_task:
        tasks.append({"id": "EXP-B", "status": "ok", "result": {}})
    return {"schema": "pgmcc.run-manifest/v3", "created": str(wall),
            "tasks": tasks, "studies": {}}


def test_run_fields_never_count():
    assert diff_manifests.diff_manifests(manifest(wall=0.2), manifest(wall=9.9)) == []


def test_a_result_leaf_is_compared_whatever_it_is_called():
    """Only the top-level run fields are skipped by name: a metric that
    happens to be called ``perf`` or ``wall_s`` is a result."""
    a, b = manifest(), manifest()
    a["tasks"][0]["result"]["metrics"].update(perf=1, wall_s=1.0)
    b["tasks"][0]["result"]["metrics"].update(perf=2, wall_s=2.0)
    assert diff_manifests.diff_manifests(a, b) == [
        "EXP-A: result.metrics.perf: 1 -> 2",
        "EXP-A: result.metrics.wall_s: 1.0 -> 2.0"]


def test_differing_leaf_is_named_with_both_values():
    assert diff_manifests.diff_manifests(manifest(rate=1.5), manifest(rate=2.5)) == [
        "EXP-A: result.metrics.rate: 1.5 -> 2.5"]


def test_ignore_matches_a_dotted_path_suffix_only():
    a, b = manifest(events=100), manifest(events=60)
    key = "telemetry.counters.net.events_processed"
    assert len(diff_manifests.diff_manifests(a, b)) == 1
    assert diff_manifests.diff_manifests(a, b, ignore=(key,)) == []
    assert len(diff_manifests.diff_manifests(a, b, ignore=("processed",))) == 1


def test_task_on_one_side_only_is_a_difference():
    """One line for the task, not one per leaf it holds."""
    lines = diff_manifests.diff_manifests(manifest(), manifest(extra_task=True))
    assert lines == ["EXP-B: only in change"]
    lines = diff_manifests.diff_manifests(manifest(extra_task=True), manifest())
    assert lines == ["EXP-B: only in parent"]


def sweep_manifest(ranked, name="s"):
    doc = manifest()
    doc["studies"][name] = {
        "spec": {"name": name}, "tasks": {"EXP-A": {"x": 1}},
        "ranked": [{"rank": 1, "task": task} for task in ranked]}
    return doc


def test_the_sweep_block_is_one_more_task(tmp_path):
    """A study's ranking lives in its block of the manifest's
    ``studies`` only; each block is compared by the study's name."""
    a, b = sweep_manifest(["EXP-A", "EXP-B"]), sweep_manifest(["EXP-B", "EXP-A"])
    for doc in (a, b):
        doc["studies"].update(sweep_manifest(["EXP-A"], "t")["studies"])
    assert diff_manifests.diff_manifests(a, b) == [
        "studies.s: ranked.0.task: 'EXP-A' -> 'EXP-B'",
        "studies.s: ranked.1.task: 'EXP-B' -> 'EXP-A'"]
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    for path, doc in zip(paths, (a, b)):
        Path(path).write_text(json.dumps(doc))
    assert diff_manifests.main(paths) == 1


def test_a_sweep_block_on_one_side_only_is_a_difference():
    lines = diff_manifests.diff_manifests(sweep_manifest(["EXP-A"]),
                                          sweep_manifest(["EXP-A"], "t"))
    assert lines == ["studies.s: only in parent", "studies.t: only in change"]


def test_cli_exit_status_and_output(tmp_path, capsys):
    paths = []
    for name, doc in (("a", manifest(events=100)), ("b", manifest(events=60))):
        paths.append(str(tmp_path / f"{name}.json"))
        Path(paths[-1]).write_text(json.dumps(doc))
    assert diff_manifests.main(paths) == 1
    assert "net.events_processed: 100 -> 60" in capsys.readouterr().out
    assert diff_manifests.main(
        paths + ["--ignore", "telemetry.counters.net.events_processed"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("text, reason", [
    pytest.param("not json {", "Expecting value", id="not-json"),
    pytest.param('{"schema": "pgmcc.session-metrics/v1"}', "no 'tasks' list",
                 id="another-document"),
    pytest.param('{"tasks": {"EXP-A": {}}}', "no 'tasks' list",
                 id="tasks-not-a-list"),
    pytest.param("[1, 2]", "no 'tasks' list", id="not-an-object"),
    pytest.param('{"tasks": [1]}', "not an object with a string 'id'",
                 id="task-not-an-object"),
    pytest.param('{"tasks": [{"result": 1}]}',
                 "not an object with a string 'id'", id="task-without-id"),
    pytest.param('{"tasks": [{"id": "EXP-A"}, {"id": "EXP-A"}]}',
                 "'EXP-A' appears twice", id="duplicate-task-id"),
])
def test_a_file_that_is_no_manifest_is_a_usage_error(text, reason, tmp_path,
                                                     capsys):
    """Exit status 1 means "results differ"; a traceback has it too."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(manifest()))
    bad.write_text(text)
    for argv in ([str(good), str(bad)], [str(bad), str(good)]):
        assert diff_manifests.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {bad}: ") and reason in err
        assert err.count("\n") == 1
