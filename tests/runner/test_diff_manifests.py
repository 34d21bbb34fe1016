"""tools/diff_manifests.py: leaf-by-leaf comparison of run manifests."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import diff_manifests  # noqa: E402


def manifest(events=100, rate=1.5, wall=0.2, extra_task=False):
    tasks = [{
        "id": "EXP-A", "status": "ok", "wall_s": wall, "worker": 1,
        "attempts": 1, "cache_hit": False, "result_digest": f"d{events}{wall}",
        "result": {
            "metrics": {"rate": rate},
            "perf": {"wall_s": wall},
            "rows": [{"n": 1}, {"n": 2}],
            "telemetry": {"counters": {"net.events_processed": events,
                                       "net.queue_drops": 3}},
        },
    }]
    if extra_task:
        tasks.append({"id": "EXP-B", "status": "ok", "result": {}})
    return {"schema": "pgmcc.run-manifest/v2", "created": str(wall),
            "tasks": tasks}


def test_run_fields_and_perf_blocks_never_count():
    assert diff_manifests.diff_manifests(manifest(wall=0.2), manifest(wall=9.9)) == []


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
    lines = diff_manifests.diff_manifests(manifest(), manifest(extra_task=True))
    assert lines == ["EXP-B: id: '<missing>' -> 'EXP-B'",
                     "EXP-B: status: '<missing>' -> 'ok'"]


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
