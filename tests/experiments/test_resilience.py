"""EXP-RESILIENCE smoke, oracle and TTR-math tests (fast scales)."""

from __future__ import annotations

import json

import pytest

from repro.experiments import resilience
from repro.experiments.registry import get_experiment
from repro.experiments.resilience import DeliverySampler
from repro.pgm import create_session
from repro.simulator import NON_LOSSY, dumbbell


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
    spec = get_experiment("EXP-RESILIENCE")
    assert spec.module == "repro.experiments.resilience"
    assert get_experiment("exp_resilience") == spec
    assert get_experiment("exp-resilience") == spec


@pytest.fixture(scope="module")
def result():
    return resilience.run(scale=0.35)


def test_matrix_covers_every_backend_and_scenario(result):
    pairs = {(row["controller"], row["scenario"])
             for row in result.rows if row["liveness"]}
    for name in ("pgmcc", "jain", "aimd", "tfrc"):
        for scenario in resilience.SCENARIOS:
            assert (name, scenario) in pairs
            assert f"{name}:{scenario}:ttr_s" in result.metrics


def test_every_cell_recovers_within_slo(result):
    assert result.metrics["all_recovered"] is True
    assert result.metrics["all_slo_ok"] is True


def test_zero_invariant_violations(result):
    assert result.metrics["total_invariant_violations"] == 0


def test_watchdog_beats_stall_timer(result):
    assert result.metrics["watchdog_faster"] is True
    assert result.metrics["ttr_improvement_s"] > 0
    assert result.metrics["ttr_watchdog_s"] < result.metrics["ttr_stall_only_s"]


def test_baseline_row_is_liveness_off(result):
    baselines = [row for row in result.rows if not row["liveness"]]
    assert len(baselines) == 1
    assert baselines[0]["controller"] == "pgmcc"
    assert baselines[0]["scenario"] == "acker-crash"


def test_rate_backends_get_the_wider_slo(result):
    for row in result.rows:
        expected = (resilience.TTR_SLO_S if row["kind"] == "window"
                    else resilience.RATE_TTR_SLO_S)
        assert row["slo_s"] == expected


def test_markdown_report(result):
    md = result.metrics["markdown_report"]
    assert md.startswith("# EXP-RESILIENCE")
    assert "Watchdog vs stall timer" in md
    for scenario in resilience.SCENARIOS:
        assert scenario in md


def test_digest_stable_and_json_safe(result):
    doc = result.to_dict()
    json.dumps(doc)  # fully serializable
    assert result.digest() == resilience.run(scale=0.35).digest()
