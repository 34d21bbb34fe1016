"""EXP-SWEEP — §4.3's configuration grid, plus the delayed-ACK note."""

from conftest import BENCH_SCALE

from repro.experiments import ablations, fairness_sweep

#: a reduced grid for the bench (the full 18-cell grid runs via
#: ``python -m repro.runner EXP-SWEEP``)
QUICK_GRID = tuple(
    (rate, queue, loss)
    for rate in (250_000, 500_000)
    for queue in (10, 30)
    for loss in (0.0, 0.02)
)


def test_bench_fairness_sweep(cached_experiment):
    scale = max(BENCH_SCALE, 0.3)
    grid = fairness_sweep.DEFAULT_GRID if scale >= 1.0 else QUICK_GRID
    result = cached_experiment(fairness_sweep.run, scale=scale, grid=grid)
    # §4.3: good sharing in all configurations, no starvation anywhere
    assert result.metrics["worst_ratio"] < 4.0
    for row in result.rows:
        assert row["pgm_kbps"] > 0.05 * row["rate_kbps"]
        assert row["tcp_kbps"] > 0.05 * row["rate_kbps"]


def test_bench_delayed_acks(cached_experiment):
    result = cached_experiment(ablations.run_delayed_acks, scale=max(BENCH_SCALE, 0.3))
    # no-starvation holds with either TCP receiver behaviour
    for label in ("delack", "no-delack"):
        assert result.metrics[f"{label}:ratio"] < 4.0
        assert result.metrics[f"{label}:pgm"] > 50_000
        assert result.metrics[f"{label}:tcp"] > 50_000
