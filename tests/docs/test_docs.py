"""The docs CI, as tier-1 tests: links resolve, doc examples execute.

Runs the same checks as ``python tools/check_docs.py`` (the CI docs
job), so a broken anchor or a drifted code example fails the ordinary
test suite too.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tools"))

import check_docs  # noqa: E402


def test_doc_set_is_nonempty():
    docs = list(check_docs.iter_markdown(ROOT))
    names = {d.name for d in docs}
    assert {"README.md", "DESIGN.md", "EXPERIMENTS.md",
            "API.md", "CONTROLLERS.md"} <= names


def test_no_broken_links_or_anchors():
    errors = check_docs.check_links(ROOT)
    assert errors == []


def test_docs_actually_contain_links():
    """Guard against the checker silently parsing nothing."""
    total = sum(
        1
        for doc in check_docs.iter_markdown(ROOT)
        for _ in check_docs.links_of(doc)
    )
    assert total >= 10


def test_controllers_examples_execute():
    fences = list(check_docs.python_fences(ROOT / "docs" / "CONTROLLERS.md"))
    assert len(fences) >= 3, "walkthrough examples went missing"
    errors = check_docs.run_doc_examples(ROOT)
    assert errors == []


def test_example_runner_restores_registry():
    """The walkthrough registers a demo backend; the runner must not
    leak it into this process (the arena iterates the registry)."""
    from repro.core.controller import controller_names

    before = controller_names()
    check_docs.run_doc_examples(ROOT)
    assert controller_names() == before


def test_backends_survive_the_example_runner():
    """In a fresh interpreter the doc examples run first, then a
    ``tfrc`` session is built: the registry the runner restores must
    hold the built-in backends, whatever test file ran before."""
    script = (
        "import check_docs\n"
        "assert check_docs.run_doc_examples() == []\n"
        "from repro.core import CcConfig\n"
        "from repro.pgm import SessionConfig, create_session\n"
        "from repro.simulator import NON_LOSSY, dumbbell\n"
        "net = dumbbell(1, 1, NON_LOSSY, seed=1)\n"
        "cfg = SessionConfig(cc=CcConfig(controller='tfrc'))\n"
        "session = create_session(net, 'h0', ['r0'], config=cfg)\n"
        "assert session.sender.controller.backend.name == 'tfrc'\n"
    )
    path = f"{ROOT / 'src'}{os.pathsep}{ROOT / 'tools'}"
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_env_var_switches():
    """The repo has no environment switches left (they all carried the
    prefix below): the docs name none and nothing under ``src/`` spells
    one, so a deleted switch cannot live on as a documented no-op or
    an undocumented reader."""
    pattern = re.compile(r"PGMCC_[A-Z_]+")
    files = [*check_docs.iter_markdown(ROOT), *(ROOT / "src").rglob("*.py")]
    hits = sorted({f"{path.relative_to(ROOT)}: {token}"
                   for path in files
                   for token in pattern.findall(path.read_text())})
    assert hits == []


def test_schema_tags_are_documented_and_real():
    """Every ``pgmcc.<name>/v<N>`` tag under ``src/`` is documented in
    docs/API.md, and every tag a page under docs/ names is one ``src/``
    spells, so neither a new document nor a retired one can drift."""
    pattern = re.compile(r"pgmcc\.[a-z][a-z-]*/v\d+")
    in_src = {tag for path in (ROOT / "src").rglob("*.py")
              for tag in pattern.findall(path.read_text())}
    in_api = set(pattern.findall((ROOT / "docs" / "API.md").read_text()))
    in_docs = {tag for path in (ROOT / "docs").glob("*.md")
               for tag in pattern.findall(path.read_text())}
    undocumented, retired = sorted(in_src - in_api), sorted(in_docs - in_src)
    assert (undocumented, retired) == ([], [])


def test_documented_cli_flags_exist():
    """Every ``--long-option`` the docs mention is defined by an
    ``add_argument`` of one of the repo's own CLIs, so a deleted flag
    cannot live on in the docs.  The docs name no third-party tool's
    long options today; one that starts to needs an explicit allow-list
    entry here."""
    text = "\n".join(doc.read_text()
                     for doc in check_docs.iter_markdown(ROOT))
    documented = set(re.findall(r"(?<![\w-])(--[a-z][a-z0-9-]+)", text))
    defined = {
        flag
        for base in ("src/repro", "tools", "benchmarks/perf")
        for path in (ROOT / base).rglob("*.py")
        for flag in re.findall(
            r"add_argument\(\s*(?:\"-\w\",\s*)?\"(--[a-z][a-z0-9-]+)\"",
            path.read_text())
    }
    assert {"--scale", "--session-metrics"} <= documented & defined
    assert sorted(documented - defined) == []


def test_documented_entry_points_exist():
    """The repo has one front door: ``repro.runner`` is the only
    ``python -m repro.<mod>`` the docs name and ``pgmcc-runner`` the
    only console script, both of them real, so a deleted front door
    cannot live on in the docs."""
    text = "\n".join(doc.read_text()
                     for doc in check_docs.iter_markdown(ROOT))
    modules = set(re.findall(r"python3?\s+-m\s+(repro(?:\.\w+)*)", text))
    scripts = set(re.findall(r"`(pgmcc-[a-z]+)\b", text))
    assert modules == {"repro.runner"}
    assert scripts == {"pgmcc-runner"}

    runnable = {path.parent.relative_to(ROOT / "src").as_posix()
                .replace("/", ".")
                for path in (ROOT / "src" / "repro").rglob("__main__.py")}
    installed = set(re.findall(r"^(pgmcc-[a-z]+) = ",
                               (ROOT / "pyproject.toml").read_text(), re.M))
    assert runnable == modules
    assert installed == scripts


@pytest.mark.parametrize(
    ("heading", "slug"),
    [
        ("EXP-ARENA — controller head-to-head",
         "exp-arena--controller-head-to-head"),
        ("repro.core — the pgmcc engine", "reprocore--the-pgmcc-engine"),
        ("§4.3's configuration grid", "43s-configuration-grid"),
        ("`tfrc` — equation-based rate controller",
         "tfrc--equation-based-rate-controller"),
        ("Fig. 7: 100 receivers, uncorrelated 1 % loss",
         "fig-7-100-receivers-uncorrelated-1--loss"),
    ],
)
def test_slugify_matches_github(heading, slug):
    assert check_docs.slugify(heading) == slug


def test_cli_exit_status():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_docs.py"), "--links"],
        cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    assert "docs check: ok" in proc.stdout
