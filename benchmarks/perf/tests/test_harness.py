import json
import re

import pytest
from conftest import REPO_ROOT, run_harness

import catalog
import compare
import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def child_result(workload, seed):
    return run.Children().run(
        "child.py", "--workload", workload, "--seed", str(seed),
        "--scale", "0.05", "--replays", "2", "--trace", "0")


# -- BENCHMARK.json and the names the harness emits ----------------------


def test_benchmark_json_is_the_catalogue(benchmark_json):
    assert benchmark_json == catalog.benchmark_json(
        benchmark_json["run_seconds"])


def test_names_are_well_formed(benchmark_json):
    names = [w["name"] for w in benchmark_json["workloads"]]
    names += [m["name"] for m in benchmark_json["end_to_end"]]
    names += [m["name"] for m in benchmark_json["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert len(benchmark_json["per_layer"]) <= 128
    assert {m["name"] for m in benchmark_json["end_to_end"]} >= {"setup_s"}


@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(benchmark_json, smoke_doc, trace):
    assert smoke_doc["smoke"] is True
    expected = {m["name"]: m["unit"] for m in
                benchmark_json["per_layer" if trace else "end_to_end"]}
    for workload in benchmark_json["workloads"]:
        line = run.contract_line(smoke_doc, workload["name"], trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        emitted = {k: v["unit"] for k, v in line["metrics"].items()}
        assert emitted == expected
        assert all(isinstance(v["value"], (int, float))
                   for v in line["metrics"].values())
        if not trace:
            assert all(v["value"] > 0 for v in line["metrics"].values())


def test_full_report_has_every_end_to_end_metric(smoke_doc):
    for metric, (unit, _, _, where, _) in catalog.END_TO_END.items():
        for workload in where:
            row = smoke_doc["workloads"][workload]["end_to_end"][metric]
            assert row["unit"] == unit and row["n"] >= 1


def test_result_line_is_last_on_stdout(tmp_path):
    code, stdout = run_harness("--smoke", "--workload", "sweep_24cell_warm",
                               "--seed", "5", "--seconds", "1",
                               "--trace", "0", out=tmp_path / "o.json")
    assert code == 0
    line = json.loads(stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    assert set(line["metrics"]) == set(catalog.DRIVER_END_TO_END)


# -- output checks -------------------------------------------------------


def test_broken_check_fails_the_run(tmp_path):
    out = tmp_path / "broken.json"
    code, stdout = run_harness("--smoke", "--workload", "session_tcp_3rx",
                               "--break-check", "session_tcp_3rx", out=out)
    assert code != 0
    workload = json.loads(out.read_text())["workloads"]["session_tcp_3rx"]
    assert workload["end_to_end"]["failed_ratio"]["median"] > 0
    assert workload["checks"]["deliberately_broken"] == 1
    line = json.loads(stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] > 0


# -- determinism ---------------------------------------------------------


@pytest.mark.parametrize("workload", ["session_tcp_3rx", "fanout_100rx",
                                      "sweep_24cell"])
def test_digest_and_counters_repeat_per_seed(workload):
    first, again = child_result(workload, 1), child_result(workload, 1)
    other = child_result(workload, 2)
    assert first["sim_digest"] == again["sim_digest"]
    assert first["counters"] == again["counters"]
    assert set(first["counters"]) <= set(catalog.COUNTERS)
    assert first["sim_digest"] != other["sim_digest"]
    if workload == "fanout_100rx":  # the one with seeded random loss
        assert first["counters"] != other["counters"]


# -- the traced run ------------------------------------------------------


def test_layer_self_time_covers_the_profiled_time(smoke_doc):
    for name, workload in smoke_doc["workloads"].items():
        trace = workload["trace"]
        assert set(trace["layers"]) == set(catalog.LAYERS)
        total = sum(v["self_s"] for v in trace["layers"].values())
        assert total == pytest.approx(trace["profiled_s"], rel=0.05), name


def test_spans_nest(smoke_doc):
    for name, workload in smoke_doc["workloads"].items():
        spans = {s["id"]: s for s in workload["trace"]["spans"]}
        assert spans[0]["parent"] is None
        for span in spans.values():
            assert span["start"] <= span["end"], (name, span)
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"], (name, span)
                assert span["end"] <= parent["end"], (name, span)
        names = {s["name"] for s in spans.values()}
        assert {"interpreter_start", "import"} <= names
        if name in catalog.SESSION_WORKLOADS:
            slices = [s for s in spans.values() if s["name"] == "run_slice"]
            assert len(slices) == catalog.RUN_SLICES
            assert {"build_topology", "create_session", "summary",
                    "close"} <= names


def test_layers_separate_by_workload(smoke_doc):
    """Only the hybrid session touches the aggregate/NE/invariant
    layers; only the sweeps touch the runner."""
    def self_s(workload, layer):
        trace = smoke_doc["workloads"][workload]["trace"]
        return trace["layers"][layer]["self_s"]

    for layer in ("pgm.aggregate", "pgm.network_element", "pgm.invariants"):
        assert self_s("hybrid_1e6", layer) > 0
        assert self_s("session_tcp_3rx", layer) == 0
        assert self_s("fanout_100rx", layer) == 0
    assert self_s("sweep_24cell_warm", "runner.cache") > 0
    assert self_s("session_tcp_3rx", "runner.cache") == 0


# -- compare -------------------------------------------------------------


def test_compare_refuses_a_smoke_run(smoke_path, capsys):
    assert compare.main([str(smoke_path), str(smoke_path)]) == 2
    assert "smoke" in capsys.readouterr().err


def metric(samples, better="lower", bound=0.10):
    from summary import summarize

    return {"unit": "s", "better": better, "bound": bound,
            **summarize(samples)}


@pytest.mark.parametrize("a, b, better, expected", [
    ([1.00, 1.01, 1.02], [1.00, 1.02, 1.03], "lower", "same"),
    ([1.00, 1.01, 1.02], [1.20, 1.21, 1.22], "lower", "worse"),
    ([1.00, 1.01, 1.02], [0.80, 0.81, 0.82], "lower", "better"),
    ([1.00, 1.01, 1.02], [0.80, 0.81, 0.82], "higher", "worse"),
    # parent's quartiles span 30 % > bound and the runs overlap
    ([0.90, 1.00, 1.20], [1.05, 1.15, 1.18], "lower", "unresolved"),
    # ... but not when every run of B is beyond every run of A
    ([0.90, 1.00, 1.20], [1.50, 1.60, 1.70], "lower", "worse"),
])
def test_compare_verdicts(a, b, better, expected):
    verdict, _ = compare.verdict(metric(a, better), metric(b, better))
    assert verdict == expected


def test_compare_flags_digest_and_counter_changes(smoke_doc, capsys):
    a = json.loads(json.dumps(smoke_doc))
    b = json.loads(json.dumps(smoke_doc))
    b["workloads"]["fanout_100rx"]["sim_digest"] = "0" * 64
    b["workloads"]["fanout_100rx"]["counters"]["sender.odata"] += 1
    compare.compare(a, b)
    text = capsys.readouterr().out
    assert "FLAG fanout_100rx: sim_digest differs" in text
    assert "FLAG fanout_100rx: exact counters differ" in text
    assert "sender.odata" in text
    assert "FLAG hybrid_1e6" not in text
