"""EXP-RESILIENCE smoke, oracle and TTR-math tests (fast scales).

The EXP-RESILIENCE and ABL-WATCHDOG studies run once per module,
through ``sweep()`` with the cache off; ``tests/sweep/test_run.py``
pins that a study's results are the same at ``-j1``, ``-jN`` and from
cache.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import resilience
from repro.experiments.common import ExperimentResult
from repro.experiments.registry import get_experiment
from repro.experiments.resilience import DeliverySampler
from repro.pgm import create_session
from repro.simulator import NON_LOSSY, dumbbell
from repro.sweep import SweepSpec, sweep


class _FixedSampler(DeliverySampler):
    """A sampler with a hand-written sample series (no sim needed)."""

    def __init__(self, samples):
        self.samples = samples
        self.dt = 1.0


class TestTtrMath:
    def _samples(self, rates):
        """Turn per-second rates into cumulative (t, delivered) samples."""
        total, samples = 0, [(0.0, 0)]
        for i, rate in enumerate(rates):
            total += rate
            samples.append((float(i + 1), total))
        return samples

    def test_clean_dip_and_recovery(self):
        # 10 pkt/s steady, dead during [4, 6), back at t=6
        sampler = _FixedSampler(self._samples([10, 10, 10, 10, 0, 0, 10, 10]))
        ttr = sampler.time_to_recover(fault_at=4.0, heal_at=6.0,
                                      pre_window=4.0)
        # the first recovered bin is [6, 7): TTR = 7 - 6
        assert ttr == pytest.approx(1.0)

    def test_never_impacted_is_zero(self):
        sampler = _FixedSampler(self._samples([10] * 8))
        assert sampler.time_to_recover(4.0, 6.0, 4.0) == 0.0

    def test_never_recovered_is_none(self):
        sampler = _FixedSampler(self._samples([10, 10, 10, 10, 0, 0, 0, 0]))
        assert sampler.time_to_recover(4.0, 6.0, 4.0) is None

    def test_no_prefault_traffic_is_none(self):
        sampler = _FixedSampler(self._samples([0, 0, 0, 0, 10, 10, 10, 10]))
        assert sampler.time_to_recover(4.0, 6.0, 4.0) is None

    def test_permanent_fault_measures_full_disruption(self):
        # crash at t=4 heals at t=4 (heal_at == fault_at): the outage
        # window itself counts against the TTR
        sampler = _FixedSampler(self._samples([10, 10, 10, 10, 0, 0, 10, 10]))
        ttr = sampler.time_to_recover(fault_at=4.0, heal_at=4.0,
                                      pre_window=4.0)
        assert ttr == pytest.approx(3.0)

    def test_recovery_faster_than_heal_clamps_to_zero(self):
        # delivery back above threshold before the nominal heal time
        sampler = _FixedSampler(self._samples([10, 10, 10, 10, 0, 10, 10]))
        ttr = sampler.time_to_recover(fault_at=4.0, heal_at=6.5,
                                      pre_window=4.0)
        assert ttr == 0.0

    def test_late_dip_only_counts_after_fault(self):
        # a sub-threshold bin *before* the fault must not arm the
        # impact detector
        sampler = _FixedSampler(self._samples([10, 0, 10, 10, 10, 0, 10]))
        ttr = sampler.time_to_recover(fault_at=4.0, heal_at=6.0,
                                      pre_window=3.0)
        assert ttr == pytest.approx(1.0)


class TestSamplerLifecycle:
    def test_heap_drains_after_close(self):
        net = dumbbell(1, resilience.N_RECEIVERS, NON_LOSSY, seed=31)
        session = create_session(
            net, "h0", [f"r{i}" for i in range(resilience.N_RECEIVERS)])
        sampler = DeliverySampler(session)
        net.run(until=2.0)
        session.close()
        ticks = len(sampler.samples)
        net.sim.run(max_events=200_000)
        assert net.sim.pending() == 0
        assert net.sim.now < 3.0  # nothing but in-flight packets ran on
        assert len(sampler.samples) == ticks

    def test_samples_every_dt_from_construction(self):
        net = dumbbell(1, 1, NON_LOSSY, seed=31)
        session = create_session(net, "h0", ["r0"])
        sampler = DeliverySampler(session, dt=0.5)
        net.run(until=2.0)
        assert [t for t, _ in sampler.samples] == [0.0, 0.5, 1.0, 1.5, 2.0]
        session.close()


def test_registered_and_resolvable():
    study = get_experiment("EXP-RESILIENCE")
    assert isinstance(study, SweepSpec)
    assert (study.experiment, study.mode) == ("EXP-RESILIENCE-CELL", "grid")
    assert study.base_dict["liveness"] is True
    assert get_experiment("exp_resilience") == study
    assert get_experiment("exp-resilience") == study
    watchdog = get_experiment("abl_watchdog")
    assert (watchdog.experiment, watchdog.mode) == ("EXP-RESILIENCE-CELL",
                                                    "ablate")


def run_study(name):
    return sweep(get_experiment(name), scale=0.35, cache_dir=None)


@pytest.fixture(scope="module")
def run():
    return run_study("EXP-RESILIENCE")


@pytest.fixture(scope="module")
def watchdog():
    return run_study("ABL-WATCHDOG")


@pytest.fixture(scope="module")
def metrics(run):
    return run.manifest["studies"]["EXP-RESILIENCE"]["aggregate"]["metrics"]


def test_matrix_covers_every_backend_and_scenario(run):
    assert run.ok
    pairs = {(row["controller"], row["scenario"])
             for row in (cell.result.rows[0] for cell in run.cells)
             if row["liveness"]}
    assert pairs == {(name, scenario)
                     for name in ("pgmcc", "jain", "aimd", "tfrc")
                     for scenario in resilience.SCENARIOS}
    for cell in run.cells:
        assert "ttr_s" in cell.result.metrics


def test_every_cell_recovers_within_slo(metrics):
    assert metrics["all_recovered"] is True
    assert metrics["all_slo_ok"] is True


def test_zero_invariant_violations(metrics, watchdog):
    assert metrics["total_invariant_violations"] == 0
    for cell in watchdog.cells:
        assert cell.result.metrics["invariant_violations"] == 0


def test_watchdog_beats_stall_timer(watchdog):
    """The ``liveness`` axis delta is TTR(stall-only) - TTR(watchdog)."""
    assert watchdog.ok
    (axis,) = watchdog.manifest["studies"]["ABL-WATCHDOG"]["axis_deltas"]
    assert (axis["axis"], axis["baseline"]) == ("liveness", True)
    on, off = axis["groups"]
    assert off["value"] is False
    assert off["deltas"]["ttr_s"] > 0
    assert on["means"]["ttr_s"] < off["means"]["ttr_s"]


def test_baseline_row_is_liveness_off(watchdog):
    rows = {cell.task.id: cell.result.rows[0] for cell in watchdog.cells}
    assert set(rows) == {"ABL-WATCHDOG/base", "ABL-WATCHDOG/liveness=False"}
    for row in rows.values():
        assert (row["controller"], row["scenario"]) == ("pgmcc",
                                                        "acker-crash")
    assert rows["ABL-WATCHDOG/base"]["liveness"] is True
    assert rows["ABL-WATCHDOG/liveness=False"]["liveness"] is False


def test_rate_backends_get_the_wider_slo(run, watchdog):
    for cell in run.cells + watchdog.cells:
        row = cell.result.rows[0]
        expected = (resilience.TTR_SLO_S if row["kind"] == "window"
                    else resilience.RATE_TTR_SLO_S)
        assert row["slo_s"] == expected


def test_digest_stable_and_json_safe(run):
    """Every cell survives the JSON round trip a cache replay and a
    worker's reply take, with its digest; and the study's block is
    plain JSON."""
    json.dumps(run.manifest["studies"])
    for cell in run.cells:
        doc = json.loads(json.dumps(cell.result.to_dict()))
        assert ExperimentResult.from_dict(doc).digest() == cell.result.digest()
