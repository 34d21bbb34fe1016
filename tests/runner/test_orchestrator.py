"""Orchestrator semantics: determinism across -j, isolation, retries,
timeouts, and cache integration."""

import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.common import ExperimentSpec
from repro.runner import Orchestrator, ResultCache, RunnerEvent
from repro.runner.cache import CACHE_SCHEMA

TOY = "tests.runner._toy"
#: repo root, so spawn-started workers can import the toy module too
REPO_ROOT = str(Path(__file__).resolve().parents[2])


def toy_spec(exp_id: str, func: str = "run_ok", **kwargs) -> ExperimentSpec:
    return ExperimentSpec(exp_id, TOY, func, kwargs=tuple(kwargs.items()))


def orchestrate(specs, **kw):
    kw.setdefault("extra_sys_path", [REPO_ROOT])
    kw.setdefault("backoff", 0.05)
    return Orchestrator(specs, **kw)


GRID = [toy_spec(f"TOY-{seed}", seed=seed) for seed in range(4)]


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie nobody reaped."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().split(")")[-1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestDeterminism:
    def test_j1_and_j4_manifests_digest_equal(self):
        m1 = orchestrate(GRID, jobs=1).run(run_id="a")
        m4 = orchestrate(GRID, jobs=4).run(run_id="b")
        assert m1["results_digest"] == m4["results_digest"]
        assert [t["id"] for t in m1["tasks"]] == [t["id"] for t in m4["tasks"]]
        assert m1["totals"]["ok"] == m4["totals"]["ok"] == 4

    def test_scale_changes_digest(self):
        a = orchestrate(GRID, jobs=1, scale=1.0).run()
        b = orchestrate(GRID, jobs=1, scale=0.5).run()
        assert a["results_digest"] != b["results_digest"]

    @pytest.mark.parametrize("scale", [0, -1.0, float("nan"), float("inf")])
    def test_bad_scale_rejected_before_any_worker(self, scale):
        with pytest.raises(ValueError, match="scale must be finite and > 0"):
            orchestrate(GRID, scale=scale)

    @pytest.mark.parametrize("option, value, match", [
        pytest.param(option, value, match, id=f"{option}={value}")
        for option, match, values in (
            ("timeout", "timeout must be finite and >= 0",
             (-5.0, float("nan"), float("inf"))),
            ("retries", "retries must be an integer >= 0", (-2, 1.5)))
        for value in values
    ])
    def test_bad_timeout_or_retries_rejected_before_any_worker(
            self, option, value, match):
        with pytest.raises(ValueError, match=match):
            orchestrate(GRID, **{option: value})

    def test_timeout_zero_disables_like_none(self):
        orch = orchestrate([toy_spec("TOY-Z", func="run_sleep", seconds=0.2)],
                           timeout=0, retries=0)
        orch.run()
        assert orch.outcomes[0].status == "ok"


class TestSessionMetricsFlow:
    """Session-metrics documents stay digest-stable through workers,
    the cache and manifests — telemetry must never break -j equality."""

    SPECS = [toy_spec(f"TOY-S{seed}", func="run_session", seed=seed)
             for seed in (5, 6)]

    def test_j1_and_jn_digest_equal_with_metrics_attached(self):
        m1 = orchestrate(self.SPECS, jobs=1, scale=0.5).run(run_id="s1")
        m2 = orchestrate(self.SPECS, jobs=2, scale=0.5).run(run_id="s2")
        assert m1["results_digest"] == m2["results_digest"]
        for task in m1["tasks"]:
            telemetry = task["result"]["telemetry"]
            assert telemetry["schema"] == "pgmcc.session-metrics/v1"
            assert telemetry["counters"]["sender.odata_sent"] > 0

    def test_metrics_survive_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = orchestrate(self.SPECS, jobs=1, scale=0.5, cache=cache).run()
        warm_orch = orchestrate(self.SPECS, jobs=1, scale=0.5, cache=cache)
        warm = warm_orch.run()
        assert warm["totals"]["cache_hits"] == 2
        assert warm["results_digest"] == cold["results_digest"]
        for outcome in warm_orch.outcomes:
            assert outcome.result.telemetry is not None

    def test_session_metrics_extracted_from_manifest(self):
        from repro.runner import session_metrics_from_manifest

        manifest = orchestrate(self.SPECS, jobs=1, scale=0.5).run()
        docs = session_metrics_from_manifest(manifest)
        assert [d["id"] for d in docs] == ["TOY-S5", "TOY-S6"]
        assert all(d["schema"] == "pgmcc.session-metrics/v1" for d in docs)


class TestFailureIsolation:
    def test_raising_task_reported_siblings_complete(self):
        specs = [toy_spec("TOY-OK1", seed=1),
                 toy_spec("TOY-BAD", func="run_fail", message="kaput"),
                 toy_spec("TOY-OK2", seed=2)]
        orch = orchestrate(specs, jobs=2, retries=1)
        manifest = orch.run()
        by_id = {o.id: o for o in orch.outcomes}
        assert by_id["TOY-OK1"].status == by_id["TOY-OK2"].status == "ok"
        bad = by_id["TOY-BAD"]
        assert bad.status == "failed"
        assert bad.attempts == 2  # retried once, then reported
        assert bad.error["type"] == "ValueError"
        assert "kaput" in bad.error["message"]
        assert "run_fail" in bad.error["traceback"]
        assert manifest["totals"] == dict(manifest["totals"],
                                          ok=2, failed=1)

    def test_hard_crash_reported(self):
        orch = orchestrate([toy_spec("TOY-CRASH", func="run_hard_crash")],
                           jobs=1, retries=0)
        orch.run()
        outcome = orch.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.error["type"] == "WorkerCrash"

    def test_timeout_kills_and_reports_while_sibling_completes(self):
        specs = [toy_spec("TOY-HANG", func="run_sleep", seconds=30.0),
                 toy_spec("TOY-OK", seed=5)]
        orch = orchestrate(specs, jobs=2, timeout=0.5, retries=1)
        manifest = orch.run()
        by_id = {o.id: o for o in orch.outcomes}
        assert by_id["TOY-OK"].status == "ok"
        hang = by_id["TOY-HANG"]
        assert hang.status == "failed"
        assert hang.attempts == 2
        assert hang.error["type"] == "TaskTimeout"
        assert manifest["totals"]["failed"] == 1
        # the sweep never waits for the full sleep
        assert manifest["totals"]["wall_s"] < 10.0

    def test_retry_recovers_transient_failure(self, tmp_path):
        marker = tmp_path / "marker"
        orch = orchestrate(
            [toy_spec("TOY-FLAKY", func="run_flaky", marker=str(marker))],
            jobs=1, retries=1)
        orch.run()
        outcome = orch.outcomes[0]
        assert outcome.status == "ok"
        assert outcome.attempts == 2


class TestWaitsInsteadOfPolling:
    @pytest.mark.parametrize("func, kwargs, status", [
        pytest.param("run_sleep", {"seconds": 0.3}, "ok", id="slow-task"),
        pytest.param("run_hard_crash", {}, "failed", id="silent-crash"),
    ])
    def test_loop_sleeps_in_the_kernel_until_a_worker_speaks(
            self, monkeypatch, func, kwargs, status):
        """Counted, not timed: the pool loop checks liveness once per
        pass, so a 0.3 s task costs a handful of passes (about thirty
        when the loop polled every 10 ms), a worker that dies silent
        costs no more (its sentinel closes before its exit status is
        there — seventy-odd passes if the loop spins on that), and the
        parent never calls ``time.sleep`` while a worker runs."""
        parent = os.getpid()
        passes, sleeps = [], []
        is_alive, sleep = multiprocessing.Process.is_alive, time.sleep

        def counting_is_alive(process):
            passes.append(process.pid)
            return is_alive(process)

        def counting_sleep(seconds):  # forked workers inherit the patch
            if os.getpid() == parent:
                sleeps.append(seconds)
            sleep(seconds)

        monkeypatch.setattr(multiprocessing.Process, "is_alive",
                            counting_is_alive)
        monkeypatch.setattr(time, "sleep", counting_sleep)
        orch = orchestrate([toy_spec("TOY-W", func=func, **kwargs)],
                           jobs=1, retries=0)
        orch.run()
        assert orch.outcomes[0].status == status
        assert orch.outcomes[0].wall_s >= kwargs.get("seconds", 0)
        assert 1 <= len(passes) <= 5
        assert sleeps == []


class TestWorkerLifecycle:
    """One long-lived worker per slot: reused after a success, retired
    after any failure, replaced if it dies idle, joined by the end of
    ``run()``.  The toys write their pid to a file so that results stay
    pure functions of their kwargs."""

    @staticmethod
    def pid_spec(tmp_path, name, then="ok"):
        return toy_spec(name, func="run_recording_pid",
                        path=str(tmp_path / name), then=then)

    @staticmethod
    def pid(tmp_path, name):
        return int((tmp_path / name).read_text())

    def test_two_ok_tasks_share_one_worker(self, tmp_path):
        orch = orchestrate([self.pid_spec(tmp_path, "A"),
                            self.pid_spec(tmp_path, "B")], jobs=1)
        orch.run()
        assert [o.status for o in orch.outcomes] == ["ok", "ok"]
        assert self.pid(tmp_path, "A") == self.pid(tmp_path, "B")

    @pytest.mark.parametrize("then", ["raise", "crash", "hang"])
    def test_the_task_after_a_failure_runs_in_a_new_process(
            self, tmp_path, then):
        orch = orchestrate([self.pid_spec(tmp_path, "BAD", then=then),
                            self.pid_spec(tmp_path, "NEXT")],
                           jobs=1, retries=0, timeout=0.5)
        orch.run()
        assert [o.status for o in orch.outcomes] == ["failed", "ok"]
        assert orch.outcomes[0].error["type"] == {
            "raise": "RuntimeError", "crash": "WorkerCrash",
            "hang": "TaskTimeout"}[then]
        assert self.pid(tmp_path, "BAD") != self.pid(tmp_path, "NEXT")

    def test_a_worker_killed_while_idle_is_replaced_free_of_charge(
            self, tmp_path):
        def kill_the_idle_worker(event):
            if event.kind == "done" and event.task_id == "FIRST":
                (worker,) = multiprocessing.active_children()
                worker.kill()
                worker.join(timeout=10)
                assert not worker.is_alive()

        orch = orchestrate([self.pid_spec(tmp_path, "FIRST"),
                            self.pid_spec(tmp_path, "SECOND")],
                           jobs=1, retries=0, on_event=kill_the_idle_worker)
        orch.run()
        second = orch.outcomes[1]
        assert (second.status, second.attempts) == ("ok", 1)
        assert self.pid(tmp_path, "FIRST") != self.pid(tmp_path, "SECOND")

    @pytest.mark.parametrize("then", ["ok", "raise", "crash", "hang"])
    def test_no_worker_outlives_the_run(self, tmp_path, then):
        specs = [self.pid_spec(tmp_path, f"T{i}", then=then if i == 1 else "ok")
                 for i in range(4)]
        orch = orchestrate(specs, jobs=2, retries=0, timeout=0.5)
        orch.run()
        assert multiprocessing.active_children() == []
        assert [o.status for o in orch.outcomes].count("ok") == (
            4 if then == "ok" else 3)

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="reads process states from /proc")
    def test_idle_workers_exit_when_the_orchestrator_is_killed(self, tmp_path):
        """A worker drops the copies of the parent's pipe ends it
        inherits, so the parent's death is an EOF it returns on."""
        marker = tmp_path / "both-done"
        script = (
            "import time\n"
            "from repro.experiments.common import ExperimentSpec\n"
            "from repro.runner import Orchestrator\n"
            "def hold(event):\n"
            "    if event.kind == 'done' and event.task_id == 'B':\n"
            f"        open({str(marker)!r}, 'w').close()\n"
            "        time.sleep(60)\n"
            f"specs = [ExperimentSpec(name, {TOY!r}, 'run_recording_pid',\n"
            f"    kwargs=(('path', {str(tmp_path)!r} + '/' + name),))\n"
            "    for name in 'AB']\n"
            "Orchestrator(specs, jobs=2, on_event=hold,\n"
            f"             extra_sys_path=[{REPO_ROOT!r}]).run()\n")
        parent = subprocess.Popen([sys.executable, "-c", script], env={
            **os.environ, "PYTHONPATH": str(Path(REPO_ROOT) / "src")})
        try:
            deadline = time.monotonic() + 30
            while not marker.exists():
                assert parent.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
        finally:
            parent.kill()
            parent.wait()
        pids = {self.pid(tmp_path, name) for name in "AB"}
        deadline = time.monotonic() + 10
        while pids and time.monotonic() < deadline:
            pids = {pid for pid in pids if _running(pid)}
            time.sleep(0.05)
        for pid in pids:
            os.kill(pid, 9)
        assert pids == set()

    def test_a_reply_stalled_mid_write_times_out(self, tmp_path):
        """The stalled worker has written a partial frame: the parent
        must not block reading the rest, but time the task out, retire
        the worker and let its siblings finish."""
        specs = [toy_spec("STALL", func="run_stalled_reply",
                          path=str(tmp_path / "STALL"), seconds=20.0),
                 toy_spec("OK1", seed=1), toy_spec("OK2", seed=2)]
        orch = orchestrate(specs, jobs=2, timeout=2.0, retries=0)
        t0 = time.perf_counter()
        orch.run()
        assert time.perf_counter() - t0 < 2.0 + 2.0
        by_id = {o.id: o for o in orch.outcomes}
        assert by_id["STALL"].error["type"] == "TaskTimeout"
        assert by_id["OK1"].status == by_id["OK2"].status == "ok"
        assert multiprocessing.active_children() == []
        with pytest.raises(ProcessLookupError):
            os.kill(self.pid(tmp_path, "STALL"), 0)


class TestCacheIntegration:
    def test_cold_then_warm(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = orchestrate(GRID, jobs=2, cache=cache).run()
        assert cold["totals"]["cache_hits"] == 0
        warm_orch = orchestrate(GRID, jobs=2, cache=cache)
        warm = warm_orch.run()
        assert warm["totals"]["cache_hits"] == 4
        assert warm["results_digest"] == cold["results_digest"]
        assert all(o.cache_hit for o in warm_orch.outcomes)

    def test_no_cache_writes_nothing(self, tmp_path):
        orchestrate(GRID, jobs=1, cache=None).run()
        assert not (tmp_path / "cache").exists()

    def test_failed_task_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = toy_spec("TOY-BAD", func="run_fail")
        orchestrate([spec], jobs=1, cache=cache, retries=0).run()
        rerun = orchestrate([spec], jobs=1, cache=cache, retries=0)
        manifest = rerun.run()
        assert manifest["totals"]["cache_hits"] == 0
        assert rerun.outcomes[0].status == "failed"

    def test_poisoned_entry_is_recomputed_and_overwritten(self, tmp_path):
        """Well-formed JSON of the wrong shape in a cell's slot is a
        miss, not an exception out of ``run``."""
        cache = ResultCache(tmp_path / "cache")
        spec = toy_spec("TOY-3", seed=3)
        orchestrate([spec], jobs=1, cache=cache).run()
        (entry,) = cache.root.rglob("*.json")
        entry.write_text(json.dumps({"schema": CACHE_SCHEMA, "result": []}))
        rerun = orchestrate([spec], jobs=1, cache=cache)
        rerun.run()
        assert rerun.outcomes[0].status == "ok"
        assert not rerun.outcomes[0].cache_hit
        again = orchestrate([spec], jobs=1, cache=cache).run()
        assert again["totals"]["cache_hits"] == 1

    def test_bench_and_sweep_share_entries(self, tmp_path):
        """fetch_or_run (direct library callers) and the orchestrator
        derive the same key for the same callable + kwargs."""
        from tests.runner import _toy

        cache = ResultCache(tmp_path / "cache")
        cache.fetch_or_run(_toy.run_ok, {"scale": 1.0, "seed": 9})
        orch = orchestrate([toy_spec("TOY-9", seed=9)], jobs=1, cache=cache)
        manifest = orch.run()
        assert manifest["totals"]["cache_hits"] == 1


class TestTelemetry:
    def test_event_stream_covers_lifecycle(self):
        events: list[RunnerEvent] = []
        orch = orchestrate([toy_spec("TOY-E", seed=1)], jobs=1,
                           on_event=events.append)
        orch.run()
        kinds = [e.kind for e in events]
        assert kinds == ["queued", "start", "done"]
        done = events[-1]
        assert done.task_id == "TOY-E"
        assert done.wall_s is not None and done.wall_s >= 0

    def test_manifest_schema_fields(self):
        manifest = orchestrate(GRID, jobs=1).run(run_id="rid")
        assert manifest["schema"] == "pgmcc.run-manifest/v2"
        assert manifest["run_id"] == "rid"
        for task in manifest["tasks"]:
            assert {"id", "status", "attempts", "wall_s", "worker",
                    "cache_hit", "result_digest", "error",
                    "result"} <= set(task)
        totals = manifest["totals"]
        assert totals["tasks"] == 4
        assert totals["serial_wall_s"] >= 0


class TestRegistryParity:
    """The real registry, through the orchestrator, matches a direct
    sequential call — digest-equal results at any -j."""

    @pytest.fixture(scope="class")
    def f2_spec(self):
        from repro.experiments.registry import get_experiment

        return [get_experiment("EXP-F2")]

    def test_pool_matches_direct_call(self, f2_spec):
        from repro.experiments import fig2_loss_filter

        orch = Orchestrator(f2_spec, scale=0.05, jobs=2)
        orch.run()
        via_pool = orch.outcomes[0]
        assert via_pool.status == "ok"
        direct = fig2_loss_filter.run(scale=0.05)
        assert via_pool.result.to_dict() == direct.to_dict()
        assert via_pool.result_digest == direct.digest()

    def test_unknown_id_is_helpful(self):
        from repro.experiments.registry import get_experiment

        with pytest.raises(KeyError, match="EXP-F3"):
            get_experiment("EXP-TYPO")
