"""The committed sweep specs validate and expand to their matrices."""

import pytest

from repro.sweep import load_spec

RESILIENCE_SPEC = "examples/sweeps/resilience_matrix.toml"
CI_SPEC = "examples/sweeps/ci_smoke.toml"


def load(path):
    pytest.importorskip("tomllib")
    return load_spec(path)


class TestCommittedSpecs:
    def test_all_specs_validate_and_expand(self):
        from repro.sweep import expand

        assert len(expand(load(CI_SPEC))) == 8

    def test_resilience_matrix_expands_to_24_tasks(self):
        from repro.sweep import expand

        tasks = expand(load(RESILIENCE_SPEC))
        assert len(tasks) >= 24
        ids = {t.id for t in tasks}
        assert ("resilience-matrix/controller=pgmcc,"
                "scenario=acker-crash,liveness=False") in ids
        # the watchdog is a real axis: half the matrix runs without it
        assert sum(1 for t in tasks
                   if dict(t.spec.kwargs)["liveness"] is False) == 12
