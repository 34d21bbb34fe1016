#!/usr/bin/env python
"""Point-mutation audit of the tests under ``tests/{core,pgm,simulator}``.

Usage::

    python tools/mutants.py --sample 250            # the full audit
    python tools/mutants.py --packages core --sample 50    # CI's samples
    python tools/mutants.py --packages simulator --sample 50

A *mutant* is one deterministic point change inside a function body of
``src/repro/<package>``:

========  ==========================================================
``flip``    a comparison reversed: ``<``/``>``, ``<=``/``>=``,
            ``==``/``!=``, ``is``/``is not``, ``in``/``not in``
``bound``   ``<``/``<=`` and ``>``/``>=`` swapped
``inc``     a numeric constant plus one
``dec``     a numeric constant minus one
``bool``    ``and``/``or`` swapped
``negate``  an ``if``/``while`` condition negated
``drop``    a simple statement replaced by ``pass``
``return``  a returned value swapped (``True``/``False``, else ``None``)
========  ==========================================================

A site id is ``path:function:operator:hash`` -- the hash is of the
mutated node's AST, not of its position -- so an edit elsewhere in the
module renames no mutant.  ``--sample N`` keeps the sites whose id's
sha256 falls in the first ``N`` per mille: the set is a pure function
of the ids.

The audit copies the working tree to one temporary directory per job
and runs everything there, from the copy's root, with
``--hypothesis-seed=0``, ``PYTHONHASHSEED=0`` and the example database
emptied before each run.  It

1. runs the target tests once untraced (each test's duration; a test
   that fails here is left out) and once under a ``sys.settrace`` line
   tracer (the ``src/repro`` lines each test executes);
2. runs each mutant against the target tests that execute a line of the
   mutated node.  A test that does not pass kills it.  A run that
   outlives 3x the same tests' unmutated time counts as killed but
   names no test;
3. marks a test *dominated* when it is not protected, its kill set is
   non-empty and contained in the kill set of one kept test of the same
   file, and its ``src/repro`` lines are contained in that test's.
   Equal kill sets keep the test that covers more lines, then the
   earlier id.  Protected tests (never the dominated side) are the
   reference and differential oracles below, every hypothesis
   ``@given`` test, and every test that ``docs/``, DESIGN.md or
   EXPERIMENTS.md names.

It writes ``results/mutants/matrix.json`` (test id -> killed mutant ids)
and ``results/mutants/TEST_AUDIT.md``, which carries the survivor
verdicts and the deletion rows over from the committed
``docs/TEST_AUDIT.md``; nothing else in the working tree is touched.

Standard library only.  This module is also the pytest plugin the runs
load (``-p mutants``); its ``pytest_*`` hooks do nothing unless
``MUTANTS_OUT`` is set.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import itertools
import json
import os
import queue
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGES = ("core", "pgm", "simulator")
OUT = Path("results") / "mutants"
TIMEOUT_FACTOR = 3.0

#: reference and differential oracles: whole files, a class, or the
#: tests of a file that take a given fixture
ORACLE_FILES = (
    "tests/core/test_ack_path_reference.py",
    "tests/pgm/test_aggregate_equivalence.py",
    "tests/simulator/test_layering.py",
)
ORACLE_CLASSES = ("tests/simulator/test_loss_models.py::TestDrawOrder",)
ORACLE_FIXTURES = {
    "tests/pgm/test_nak_pacer.py": "both",  # the PollingReceiver runs
    "tests/simulator/test_routing.py": "nx",  # the networkx references
}
NAMING_DOCS = ("docs", "DESIGN.md", "EXPERIMENTS.md")

_FLIP = {ast.Lt: ast.Gt, ast.Gt: ast.Lt, ast.LtE: ast.GtE, ast.GtE: ast.LtE,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
_BOUND = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
_DROPPABLE = (ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Raise,
              ast.Assert, ast.Delete, ast.Break, ast.Continue)


# --------------------------------------------------------------- sites

class Site(NamedTuple):
    """One mutant: a byte span of a module (lines ``line``..``end_line``)
    and its replacement."""

    id: str
    path: str
    line: int
    end_line: int
    start: int
    end: int
    text: bytes

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.text + source[self.end:]


def _replacements(node, span):
    """Yield ``(operator, replacement text)`` for one AST node."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            for name, table in (("flip", _FLIP), ("bound", _BOUND)):
                if type(op) in table:
                    ops = list(node.ops)
                    ops[i] = table[type(op)]()
                    new = ast.Compare(node.left, ops, node.comparators)
                    yield f"{name}{i or ''}", f"({ast.unparse(new)})"
    elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)):
        for name, delta in (("inc", 1), ("dec", -1)):
            value = node.value + delta
            yield name, f"({value!r})" if value < 0 else repr(value)
    elif isinstance(node, ast.BoolOp):
        op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        yield "bool", f"({ast.unparse(ast.BoolOp(op, node.values))})"
    elif isinstance(node, (ast.If, ast.While)):
        yield "negate", f"not ({span(node.test).decode()})"
    elif isinstance(node, _DROPPABLE):
        # a docstring or a bare annotation does nothing to drop
        if not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                or isinstance(node, ast.AnnAssign) and node.value is None):
            yield "drop", "pass"
    elif isinstance(node, ast.Return) and node.value is not None:
        value = node.value
        constant = value.value if isinstance(value, ast.Constant) else ...
        if type(constant) is bool:
            yield "return", f"return {not constant}"
        elif constant is not None:
            yield "return", "return None"


def module_sites(path: str, source: bytes) -> list:
    """Every site in the function bodies of one module, in source order.

    ``path`` is relative to ``src/repro``.
    """
    tree = ast.parse(source)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(line, col):
        return starts[line - 1] + col

    def span(node):
        return source[offset(node.lineno, node.col_offset):
                      offset(node.end_lineno, node.end_col_offset)]

    sites, seen = [], {}

    def visit(node, qualname, in_function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{qualname}.{node.name}" if qualname else node.name
            in_function = in_function or not isinstance(node, ast.ClassDef)
            for stmt in node.body:
                visit(stmt, qualname, in_function)
            return
        if in_function:
            # a span's node for ``negate`` is the condition, not the loop
            target = node.test if isinstance(node, (ast.If, ast.While)) else node
            for op, text in _replacements(node, span):
                key = f"{qualname}:{op}:{ast.dump(node)}"
                dup = seen[key] = seen.get(key, -1) + 1
                digest = hashlib.sha256(f"{key}#{dup}".encode()).hexdigest()[:10]
                sites.append(Site(
                    f"{path}:{qualname}:{op}:{digest}", path,
                    target.lineno, target.end_lineno,
                    offset(target.lineno, target.col_offset),
                    offset(target.end_lineno, target.end_col_offset),
                    text.encode()))
        for child in ast.iter_child_nodes(node):
            visit(child, qualname, in_function)

    for stmt in tree.body:
        visit(stmt, "", False)
    return sites


def all_sites(root: Path, packages) -> list:
    sites = []
    base = root / "src" / "repro"
    for package in packages:
        for file in sorted((base / package).rglob("*.py")):
            sites += module_sites(file.relative_to(base).as_posix(), file.read_bytes())
    return sites


def sampled(site_id: str, per_mille: int) -> bool:
    """True when ``site_id`` is in the ``per_mille`` sample."""
    digest = hashlib.sha256(site_id.encode()).digest()
    return int.from_bytes(digest[:8], "big") % 1000 < per_mille


def set_digest(ids) -> str:
    return hashlib.sha256("\n".join(sorted(ids)).encode()).hexdigest()


# ----------------------------------------------------------- dominance

def protected_tests(root: Path, test_ids) -> dict:
    """Test id -> why it is never the dominated side."""
    named = set()
    for entry in NAMING_DOCS:
        path = root / entry
        for doc in ([path] if path.is_file() else sorted(path.rglob("*.md"))):
            if doc.name != "TEST_AUDIT.md":
                named |= set(re.findall(r"\b(test_\w+)\b(?!\.py)", doc.read_text()))
    given, fixtures = {}, {}
    for file in {tid.split("::")[0] for tid in test_ids}:
        tree = ast.parse((root / file).read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = {ast.unparse(d).split("(")[0].split(".")[-1]
                              for d in node.decorator_list}
                given[(file, node.name)] = "given" in decorators
                fixtures[(file, node.name)] = {a.arg for a in node.args.args}
    out = {}
    for tid in test_ids:
        file, *_, func = tid.split("::")
        func = func.split("[")[0]
        if file in ORACLE_FILES or any(tid.startswith(c + "::") for c in ORACLE_CLASSES):
            out[tid] = "oracle"
        elif ORACLE_FIXTURES.get(file) in fixtures.get((file, func), ()):
            out[tid] = "oracle"
        elif given.get((file, func)):
            out[tid] = "hypothesis @given"
        elif func in named:
            out[tid] = "named in the docs"
    return out


def dominance(kills: dict, lines: dict, protected) -> dict:
    """Dominated test id -> its dominator.

    ``kills`` maps test id -> set of mutant ids, ``lines`` test id ->
    set of executed ``src/repro`` lines.  Tests are visited strongest
    first (more kills, then more lines, then the earlier id), so a
    dominator is always decided before the tests it dominates.
    """
    order = sorted(kills, key=lambda t: (-len(kills[t]), -len(lines[t]), t))
    kept, out = {}, {}
    for tid in order:
        file = tid.split("::")[0]
        if kills[tid] and tid not in protected:
            for other in kept.get(file, ()):
                if kills[tid] <= kills[other] and lines[tid] <= lines[other]:
                    out[tid] = other
                    break
        if tid not in out:
            kept.setdefault(file, []).append(tid)
    return out


# ------------------------------------------------------- pytest plugin

_lines: set = set()
_traced: dict = {}
_failed: set = set()


def _tracer(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PREFIXES):
        return _local
    return None


def _local(frame, event, arg):
    if event == "line":
        _lines.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


_PREFIXES = (os.path.join(os.getcwd(), "src", "repro", ""), os.path.join("src", "repro", ""))


def pytest_runtest_logstart(nodeid, location):
    if os.environ.get("MUTANTS_TRACE"):
        _lines.clear()
        sys.settrace(_tracer)


def pytest_runtest_logreport(report):
    if os.environ.get("MUTANTS_OUT"):
        _traced.setdefault(report.nodeid, {"duration": 0.0})["duration"] += report.duration
        if report.failed:
            _failed.add(report.nodeid)


def pytest_runtest_logfinish(nodeid, location):
    if not os.environ.get("MUTANTS_OUT"):
        return
    if os.environ.get("MUTANTS_TRACE"):
        sys.settrace(None)
        files = {}
        for file, line in _lines:
            files.setdefault(os.path.relpath(file), []).append(line)
        _traced.setdefault(nodeid, {"duration": 0.0})["lines"] = {
            f: sorted(v) for f, v in sorted(files.items())}


def pytest_sessionfinish(session, exitstatus):
    out = os.environ.get("MUTANTS_OUT")
    if out:
        for nodeid, entry in _traced.items():
            entry["passed"] = nodeid not in _failed
        Path(out).write_text(json.dumps(_traced))


# -------------------------------------------------------------- runner

def _copy_tree(dest: Path):
    ignore = shutil.ignore_patterns(".git", "results", "__pycache__",
                                    ".hypothesis", ".pytest_cache", "*.pyc")
    shutil.copytree(ROOT, dest, ignore=ignore, symlinks=True)


def _pytest(copy: Path, args, *, trace=False, bytecode=False, timeout=None):
    """Run pytest in ``copy``; return ``(report dict or None, wall s)``.

    ``None`` means the run timed out.
    """
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    out = copy / "results.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=f"src{os.pathsep}tools",
               MUTANTS_OUT=str(out), PYTHONHASHSEED="0")
    env.pop("MUTANTS_TRACE", None)
    if trace:
        env["MUTANTS_TRACE"] = "1"
    if not bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, "-m", "pytest", "-p", "mutants", "-p", "no:cacheprovider",
           "-o", "addopts=", "-q", "--tb=no", "--no-header",
           "--hypothesis-seed=0", *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        return None, time.perf_counter() - t0
    wall = time.perf_counter() - t0
    return (json.loads(out.read_text()) if out.exists() else {}), wall


def _test_dirs(packages):
    return [f"tests/{p}" for p in packages]


def run_audit(packages, per_mille, jobs):
    start = time.perf_counter()
    every = all_sites(ROOT, packages)
    total = len(every)
    sites = [s for s in every if sampled(s.id, per_mille)]
    print(f"{len(sites)} of {total} sites sampled ({per_mille}/1000), "
          f"set digest {set_digest(s.id for s in sites)[:16]}", flush=True)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copies = []
        for i in range(jobs):
            copy = Path(tmp) / f"copy{i}"
            _copy_tree(copy)
            _pytest(copy, ["--collect-only", *_test_dirs(packages)], bytecode=True)
            copies.append(copy)
        base, traced = _baseline(copies, packages)
        lines = {tid: {(f, n) for f, ns in entry.get("lines", {}).items() for n in ns}
                 for tid, entry in traced.items()}
        tests = sorted(t for t in base if base[t]["passed"])
        failing = sorted(t for t in base if not base[t]["passed"])
        overhead = max(base[t]["wall"] for t in base) if base else 0.0
        by_line = {}
        for tid in tests:
            for file, n in lines.get(tid, ()):
                by_line.setdefault((file, n), set()).add(tid)
        pool = queue.Queue()
        for copy in copies:
            pool.put(copy)
        sources = {}
        done = itertools.count(1)

        def run(site):
            path = f"src/repro/{site.path}"
            covering = set()
            for n in range(site.line, site.end_line + 1):
                covering |= by_line.get((path, n), set())
            if not covering:
                return site, "uncovered", []
            selected = sorted(covering)
            limit = TIMEOUT_FACTOR * (overhead + sum(base[t]["duration"] for t in selected))
            copy = pool.get()
            target = copy / path
            try:
                original = sources.setdefault(path, target.read_bytes())
                target.write_bytes(site.apply(original))
                for pyc in (target.parent / "__pycache__").glob(target.stem + ".*.pyc"):
                    pyc.unlink()
                report, _ = _pytest(copy, selected, timeout=limit)
            finally:
                target.write_bytes(original)
                pool.put(copy)
            n = next(done)
            if n % 50 == 0:
                print(f"  {n} mutants run, {time.perf_counter() - start:.0f} s", flush=True)
            if report is None:
                return site, "timeout", []
            killers = [t for t in selected if not report.get(t, {}).get("passed")]
            return site, ("killed" if killers else "survived"), killers

        with ThreadPoolExecutor(max_workers=jobs) as executor:
            outcomes = list(executor.map(run, sites))
    mutants = {site.id: {"status": status, "where": f"{site.path}:{site.line}",
                         "change": site.text.decode(), "killers": killers}
               for site, status, killers in outcomes}
    kills = {tid: sorted(m for m, v in mutants.items() if tid in v["killers"])
             for tid in tests}
    killed = sorted(m for m, v in mutants.items() if v["status"] in ("killed", "timeout"))
    return {
        "packages": list(packages), "sample_per_mille": per_mille,
        "sites_total": total, "mutants": mutants,
        "set_digest": set_digest(mutants), "killed_digest": set_digest(killed),
        "killed": len(killed), "failing_unmutated": failing,
        "kills": kills,
        "lines": {tid: sorted(f"{f}:{n}" for f, n in lines.get(tid, ())) for tid in tests},
        "durations": {tid: round(base[tid]["duration"], 4) for tid in tests},
        "wall_s": round(time.perf_counter() - start, 1),
    }


def _baseline(copies, packages):
    """One untraced and one traced run of the target tests, the
    directories spread over the copies."""
    dirs = _test_dirs(packages)
    shares = [dirs[i::len(copies)] for i in range(len(copies))]
    base, traced = {}, {}
    with ThreadPoolExecutor(max_workers=len(copies)) as executor:
        for trace, into in ((False, base), (True, traced)):
            runs = [executor.submit(_pytest, copy, share, trace=trace)
                    for copy, share in zip(copies, shares) if share]
            for future in runs:
                report, wall = future.result()
                tests_s = sum(e["duration"] for e in report.values())
                for entry in report.values():
                    entry["wall"] = max(0.0, wall - tests_s)
                into.update(report)
    return base, traced


# -------------------------------------------------------------- report

_ROW = re.compile(r"^\| `([^`]+)` \| (\w+) \| (\d+|—) \| (.*) \|$")
_SURVIVOR = re.compile(r"^\| `([^`]+)` \| `[^`]*` \| `[^`]*` \| (.*) \|$")


def _previous(doc: Path):
    """Rows of a committed audit: test id -> (status, note), and
    mutant id -> verdict."""
    tests, verdicts = {}, {}
    if doc.exists():
        for line in doc.read_text().splitlines():
            if m := _ROW.match(line):
                tests[m[1]] = (m[2], m[4])
            elif m := _SURVIVOR.match(line):
                verdicts[m[1]] = m[2]
    return tests, verdicts


def render(matrix, root: Path) -> str:
    kills = {t: set(v) for t, v in matrix["kills"].items()}
    lines = {t: set(v) for t, v in matrix["lines"].items()}
    protected = protected_tests(root, kills)
    dominated = dominance(kills, lines, protected)
    previous, verdicts = _previous(root / "docs" / "TEST_AUDIT.md")
    mutants = matrix["mutants"]
    counts = {s: sum(v["status"] == s for v in mutants.values())
              for s in ("killed", "timeout", "survived", "uncovered")}
    n = len(mutants)
    rows = {}
    for tid in kills:
        k = len(kills[tid])
        if tid in dominated:
            rows[tid] = ("kept", k, f"dominated by `{dominated[tid]}`")
        elif tid in protected:
            rows[tid] = ("kept", k, f"protected: {protected[tid]}")
        elif not k:
            rows[tid] = ("kept", k, "kills nothing in the set")
        else:
            rows[tid] = ("kept", k, "not dominated")
    for tid in matrix["failing_unmutated"]:
        rows[tid] = ("kept", "—", "fails unmutated: not audited")
    dirs = tuple(f"tests/{p}/" for p in matrix["packages"])
    for tid, (status, note) in previous.items():
        if tid not in rows and tid.startswith(dirs):
            rows[tid] = ("deleted", "—", note)
    deleted = sum(r[0] == "deleted" for r in rows.values())
    command = f"python tools/mutants.py --sample {matrix['sample_per_mille']}"
    if tuple(matrix["packages"]) != PACKAGES:
        command += f" --packages {' '.join(matrix['packages'])}"
    out = [
        f"# Test audit: point mutants of `{'`, `'.join(matrix['packages'])}`",
        "",
        f"Generated by `{command}`.  The method is",
        "in the tool's docstring and in [DESIGN.md](../DESIGN.md) §6, \"Test",
        "audit\"; a re-run carries the deletion rows and the survivor verdicts",
        "below over.",
        "",
        "| | |",
        "|---|---|",
        f"| packages | {', '.join(matrix['packages'])} |",
        f"| fixed set | {n} mutants: sha256 sample {matrix['sample_per_mille']}/1000 "
        f"of {matrix['sites_total']} sites |",
        f"| set digest | `{matrix['set_digest'][:16]}` |",
        f"| killed | {counts['killed'] + counts['timeout']} "
        f"({(counts['killed'] + counts['timeout']) / max(n, 1):.1%}; "
        f"{counts['timeout']} by timeout), digest `{matrix['killed_digest'][:16]}` |",
        f"| survived | {counts['survived']} run, {counts['uncovered']} "
        "executed by no target test |",
        f"| tests | {len(rows)} rows: {deleted} deleted, "
        f"{sum('dominated by' in r[2] for r in rows.values())} dominated and kept |",
        "",
        "## Tests",
        "",
        "| test | status | kills | reason or dominator |",
        "|---|---|---|---|",
    ]
    out += [f"| `{tid}` | {s} | {k} | {note} |" for tid, (s, k, note) in sorted(rows.items())]
    out += ["", "## Surviving mutants", "",
            "| mutant | where | change | verdict |", "|---|---|---|---|"]
    for mid, v in sorted(mutants.items()):
        if v["status"] in ("survived", "uncovered"):
            change = " ".join(v["change"].split()).replace("|", "\\|").replace("`", "'")
            default = ("hole: executed by no target test" if v["status"] == "uncovered"
                       else "unjudged")
            out.append(f"| `{mid}` | `{v['where']}` | `{change}` | "
                       f"{verdicts.get(mid, default)} |")
    return "\n".join(out) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--packages", nargs="+", choices=PACKAGES, default=PACKAGES)
    parser.add_argument("--sample", type=int, default=1000, metavar="PER_MILLE")
    args = parser.parse_args(argv)
    jobs = min(os.cpu_count() or 1, 4)
    matrix = run_audit(args.packages, args.sample, jobs)
    out = ROOT / OUT
    out.mkdir(parents=True, exist_ok=True)
    (out / "matrix.json").write_text(json.dumps(matrix, indent=1, sort_keys=True))
    (out / "TEST_AUDIT.md").write_text(render(matrix, ROOT))
    n = len(matrix["mutants"])
    print(f"killed {matrix['killed']}/{n} ({matrix['killed'] / max(n, 1):.1%}) in "
          f"{matrix['wall_s']} s; set {matrix['set_digest'][:16]}, "
          f"killed {matrix['killed_digest'][:16]}; wrote {OUT}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
