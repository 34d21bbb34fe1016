"""tools/mutants.py: the operators, the sample and the dominance rule."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import mutants  # noqa: E402

FIXTURE = b'''def f(a, b):
    """Doc."""
    if a < b and b == 2:
        a += 1
    while a:
        a -= 1
    return a > 0


def g(x):
    assert x
    return True


K = 3
'''

#: (operator, line) -> that line of the mutated module
EXPECTED = {
    ("negate", 3): "    if not (a < b and b == 2):",
    ("bool", 3): "    if (a < b or b == 2):",
    ("flip", 3): ["    if (a > b) and b == 2:", "    if a < b and (b != 2):"],
    ("bound", 3): "    if (a <= b) and b == 2:",
    ("inc", 3): "    if a < b and b == 3:",
    ("dec", 3): "    if a < b and b == 1:",
    ("drop", 4): "        pass",
    ("inc", 4): "        a += 2",
    ("dec", 4): "        a += 0",
    ("negate", 5): "    while not (a):",
    ("drop", 6): "        pass",
    ("inc", 6): "        a -= 2",
    ("dec", 6): "        a -= 0",
    ("return", 7): "    return None",
    ("flip", 7): "    return (a < 0)",
    ("bound", 7): "    return (a >= 0)",
    ("inc", 7): "    return a > 1",
    ("dec", 7): "    return a > (-1)",
    ("drop", 11): "    pass",
    ("return", 12): "    return False",
}


def test_each_operator_yields_the_expected_source():
    sites = mutants.module_sites("m.py", FIXTURE)
    seen = {}
    for site in sites:
        mutated = site.apply(FIXTURE).decode().splitlines()
        original = FIXTURE.decode().splitlines()
        changed = [i for i, (a, b) in enumerate(zip(original, mutated)) if a != b]
        assert changed == [site.line - 1], site.id
        seen.setdefault((site.id.split(":")[2], site.line), []).append(
            mutated[site.line - 1])
    # module-level code (``K = 3``) and docstrings are not sites
    assert seen == {key: v if isinstance(v, list) else [v]
                    for key, v in EXPECTED.items()}
    assert len({site.id for site in sites}) == len(sites)


def test_site_ids_do_not_depend_on_position():
    moved = b"import os\n\n\n" + FIXTURE
    assert ([s.id for s in mutants.module_sites("m.py", FIXTURE)]
            == [s.id for s in mutants.module_sites("m.py", moved)])


def test_the_sample_is_a_pure_function_of_the_ids():
    ids = [s.id for s in mutants.module_sites("m.py", FIXTURE)] * 50
    ids = [f"{i}:{n}" for n, i in enumerate(ids)]
    kept = {i for i in ids if mutants.sampled(i, 300)}
    assert kept == {i for i in reversed(ids) if mutants.sampled(i, 300)}
    assert 0 < len(kept) < len(ids)
    assert {i for i in ids if mutants.sampled(i, 1000)} == set(ids)
    assert not any(mutants.sampled(i, 0) for i in ids)
    assert kept <= {i for i in ids if mutants.sampled(i, 600)}


def file_tests(**kills):
    """Test id -> kill set, each written as space-separated mutant ids."""
    return {f"tests/t.py::{name}": set(ks.split()) for name, ks in kills.items()}


@pytest.fixture
def lines():
    return dict.fromkeys(file_tests(a="", b="", c="", d=""), {1, 2})


def test_equal_kill_sets_keep_more_lines_then_the_earlier_id(lines):
    kills = file_tests(a="m1", b="m1", c="m1")
    assert mutants.dominance(kills, lines, ()) == {
        "tests/t.py::b": "tests/t.py::a", "tests/t.py::c": "tests/t.py::a"}
    lines["tests/t.py::c"] = {1, 2, 3}
    assert mutants.dominance(kills, lines, ()) == {
        "tests/t.py::a": "tests/t.py::c", "tests/t.py::b": "tests/t.py::c"}


def test_a_dominator_executes_every_line_of_the_dominated(lines):
    kills = file_tests(a="m1 m2", b="m1")
    assert mutants.dominance(kills, lines, ()) == {"tests/t.py::b": "tests/t.py::a"}
    lines["tests/t.py::b"] = {1, 9}
    assert mutants.dominance(kills, lines, ()) == {}


def test_protected_and_empty_kill_sets_are_never_dominated(lines):
    kills = file_tests(a="m1 m2", b="m1", c="", d="m2")
    out = mutants.dominance(kills, lines, {"tests/t.py::b"})
    assert out == {"tests/t.py::d": "tests/t.py::a"}


def test_dominance_stays_inside_one_file():
    kills = {"tests/t.py::a": {"m1", "m2"}, "tests/u.py::b": {"m1"}}
    lines = dict.fromkeys(kills, {1})
    assert mutants.dominance(kills, lines, ()) == {}
