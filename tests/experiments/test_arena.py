"""EXP-ARENA smoke and oracle tests (fast scales)."""

from __future__ import annotations

import json

import pytest

from repro.experiments import arena
from repro.experiments.registry import get_experiment


@pytest.fixture(scope="module")
def result():
    return arena.run(scale=0.15)


def test_registered_and_resolvable():
    spec = get_experiment("EXP-ARENA")
    assert spec.module == "repro.experiments.arena"
    # shell-friendly spellings resolve to the same spec
    assert get_experiment("exp_arena") == spec
    assert get_experiment("exp-arena") == spec


def test_ranked_table_covers_every_backend(result):
    controllers = [row["controller"] for row in result.rows]
    assert set(controllers) >= {"pgmcc", "jain", "aimd", "tfrc"}
    assert len(controllers) >= 3
    ranks = [row["rank"] for row in result.rows]
    assert ranks == list(range(1, len(result.rows) + 1))
    scores = [row["fairness_score"] for row in result.rows]
    assert scores == sorted(scores)


def test_every_bout_recorded(result):
    for name in ("pgmcc", "jain", "aimd", "tfrc"):
        for scenario in arena.SCENARIOS:
            assert f"{name}:{scenario}:goodput_bps" in result.metrics
            assert result.metrics[f"{name}:{scenario}:goodput_bps"] > 0


def test_invariants_hold_everywhere(result):
    violations = [row["inv_violations"] for row in result.rows]
    assert violations == [0] * len(result.rows)


def test_markdown_report(result):
    md = result.metrics["markdown_report"]
    assert md.startswith("# EXP-ARENA")
    assert "| rank |" in md or "| 1 |" in md
    for row in result.rows:
        assert row["controller"] in md


def test_digest_stable_and_json_safe(result):
    doc = result.to_dict()
    json.dumps(doc)  # fully serializable
    assert result.digest() == arena.run(scale=0.15).digest()


def test_fairness_helpers():
    assert arena.fairness_score(1.0) == 0.0
    assert arena.fairness_score(2.0) == arena.fairness_score(0.5)
    assert arena.in_envelope(1.0)
    assert not arena.in_envelope(100.0)


@pytest.mark.slow
def test_envelope_oracles_at_report_scale():
    """The acceptance configuration: runner scale 1.0 x factor 0.5."""
    full = arena.run(scale=0.5)
    assert full.metrics["pgmcc_in_envelope"] is True
    assert full.metrics["discriminates"] is True
