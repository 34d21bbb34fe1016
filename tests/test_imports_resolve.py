"""Static checks on import statements and on the benchmark's call shapes.

* Every import statement under ``src/repro`` names something that
  exists, and so does every ``repro.*`` import of the files that sit
  outside the package but use it (``benchmarks/perf``, ``examples``,
  ``tools``).  A function-local import on an untested branch is
  invisible to the test suite and to CI's ruff selection (which does
  not resolve imports), so this walks the source instead of executing
  it.  A ``try`` that catches ``ImportError`` gates an optional import
  and is skipped.
* Importing the package's entry modules in a fresh interpreter loads
  nothing outside the standard library: ``dependencies = []`` is a
  promise a stray third-party import would break only for users who
  do not happen to have that package.  ``import repro`` loads no
  subpackage, and a default session loads none of the optional
  subsystems (:data:`DEFERRED`) it does not build.
* No module under ``src/repro`` keeps a module-level import it never
  uses (ruff's F401, which CI runs; ruff is not installed everywhere
  the tests are).
* No module the result cache fingerprints reads the clock, the
  process's memory or the machine: a cached result is keyed by what
  would run, so whatever else it holds is another run's.
* Every call ``benchmarks/perf`` makes into ``repro`` still binds to the
  live signature: a ``src/`` change may not edit the benchmark, so it
  must not break it either.
"""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
USERS = ("benchmarks/perf", "examples", "tools")
HARNESS = [ROOT / "benchmarks" / "perf" / name
           for name in ("workloads.py", "child.py", "probes.py")]


def _imports(node: ast.AST):
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        yield node
    elif not (isinstance(node, ast.Try) and "ImportError" in "".join(
            ast.unparse(h.type) for h in node.handlers if h.type)):
        for child in ast.iter_child_nodes(node):
            yield from _imports(child)


def _unresolved(path: Path, only_repro: bool = False):
    package = () if only_repro else path.relative_to(SRC).parts[:-1]
    for node in _imports(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            wanted = [(alias.name, None) for alias in node.names]
        else:
            base = package[:len(package) - node.level + 1] if node.level else ()
            module = ".".join([*base, *([node.module] if node.module else [])])
            wanted = [(module, alias.name) for alias in node.names]
        for module, name in wanted:
            if only_repro and module.split(".")[0] != "repro":
                continue
            try:
                found = importlib.import_module(module)
                if name and name != "*" and not hasattr(found, name):
                    importlib.import_module(f"{module}.{name}")  # submodule
            except ImportError as exc:
                yield f"{path.relative_to(ROOT)}:{node.lineno}: {exc}"


def test_imports_resolve():
    paths = sorted((SRC / "repro").rglob("*.py"))
    assert len(paths) > 50
    assert [p for path in paths for p in _unresolved(path)] == []


def test_repro_imports_of_benchmark_examples_and_tools_resolve():
    paths = sorted(p for top in USERS for p in (ROOT / top).glob("*.py"))
    assert len(paths) > 10
    assert [p for path in paths
            for p in _unresolved(path, only_repro=True)] == []


# -- runtime dependencies ----------------------------------------------

ENTRY_MODULES = ("repro.pgm", "repro.simulator", "repro.tcp", "repro.runner",
                 "repro.sweep", "repro.experiments.registry")


def test_the_package_loads_nothing_outside_the_standard_library():
    probe = (
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        # __mp_main__ is multiprocessing's alias of __main__
        "ours = sys.stdlib_module_names | {'repro', '__mp_main__'}\n"
        "print(len(loaded), *sorted(loaded - ours))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout.split()
    assert int(out[0]) > 20  # the probe did import something
    assert out[1:] == [], f"third-party modules loaded: {out[1:]}"


#: what a default session never builds: each is imported where it is
#: used, so only a session that builds one pays for loading it
DEFERRED = ("repro.simulator.faults", "repro.pgm.aggregate", "repro.pgm.fec",
            "repro.pgm.guard", "repro.pgm.invariants", "repro.pgm.liveness",
            "repro.pgm.misbehavior", "repro.pgm.network_element",
            "repro.analysis")


def test_a_default_session_loads_only_what_it_builds():
    # the benchmark's session surface: its module-level repro imports
    surface = [ast.unparse(node)
               for node in ast.parse(HARNESS[0].read_text()).body
               if isinstance(node, ast.ImportFrom)
               and node.module.split(".")[0] == "repro"]
    assert surface
    probe = "\n".join([
        "import json, sys",
        "import repro",
        "bare = sorted(name for name in sys.modules if name.startswith('repro.'))",
        *surface,
        "from repro.pgm import create_session",
        "from repro.simulator import NON_LOSSY, dumbbell",
        "from repro.tcp import create_tcp_flow",
        "net = dumbbell(2, 4, NON_LOSSY, seed=1)",
        "session = create_session(net, 'h0', ['r0', 'r1', 'r2'])",
        "create_tcp_flow(net, 'h1', 'r3')",
        "net.run(until=3.0)",
        "assert session.summary()['odata_sent'] > 0",
        "print(json.dumps([bare, sorted(sys.modules)]))",
    ])
    bare, loaded = json.loads(subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout)
    assert bare == [], "import repro loads its subpackages"
    assert "repro.pgm.session" in loaded  # the probe did build a session
    assert [name for name in loaded if name.startswith(DEFERRED)] == []


# -- unused imports (F401) ---------------------------------------------


def _annotation_strings(tree: ast.AST):
    """Quoted annotations and ``__all__`` entries: the two places a
    name is used without being an ``ast.Name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            hosts = [node.value]
        elif isinstance(node, ast.arg):
            hosts = [node.annotation]
        elif isinstance(node, ast.AnnAssign):
            hosts = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            hosts = [node.returns]
        else:
            continue
        for host in filter(None, hosts):
            for sub in ast.walk(host):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.value


def _unused_imports(path: Path):
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for quoted in _annotation_strings(tree):
        used.update(re.findall(r"[A-Za-z_]\w*", quoted))
    # module level, including the bodies of top-level if/try blocks
    # (``if TYPE_CHECKING:``); function-local imports are out of scope
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
            continue
        if isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in used:
                yield node.lineno, bound


def test_no_unused_module_level_imports():
    # what CI's ``ruff check --select F401`` walks; benchmarks/perf has
    # its own tests
    paths = [p for top in ("src", "tests", "examples", "tools")
             for p in sorted((ROOT / top).rglob("*.py"))
             if p.name != "__init__.py"]  # re-exports
    assert [f"{path.relative_to(ROOT)}:{line}: {name} unused"
            for path in paths for line, name in _unused_imports(path)] == []


def test_unused_import_check_sees_what_it_should(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import TYPE_CHECKING, Any, Optional\n"
        "if TYPE_CHECKING:\n"
        "    from a import Quoted, Idle\n"
        "__all__ = ['Any']\n"
        "def f(x: 'Quoted') -> Optional[int]:\n"
        "    return x\n"
    )
    assert sorted(_unused_imports(probe)) == [(2, "os"), (6, "Idle")]


# -- host state --------------------------------------------------------

#: modules that exist to read the clock, the process or the machine
HOST_MODULES = frozenset(
    "time resource platform tracemalloc gc datetime psutil".split())


def _host_state_reads(path: Path):
    """Imports of :data:`HOST_MODULES` (function-local ones included)
    and any spelling of ``cpu_count``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "cpu_count":
            names = [ast.unparse(node)]
        else:
            continue
        for name in names:
            if (name.split(".")[0] in HOST_MODULES
                    or name.endswith(".cpu_count")):
                yield node.lineno, name


def test_the_fingerprinted_tree_reads_no_host_state():
    """A cache entry's key is (callable, kwargs, fingerprint of these
    files); a wall time or an RSS reading in the result is in none of
    the three, so a cache hit would replay it as this run's.  Timing
    lives in ``repro.runner`` (about the run, never in a result) and in
    ``benchmarks/perf``."""
    from repro.runner.cache import FINGERPRINT_EXCLUDE

    package = SRC / "repro"
    paths = [p for p in sorted(package.rglob("*.py"))
             if p.relative_to(package).parts[0] not in FINGERPRINT_EXCLUDE]
    assert len(paths) > 50
    assert [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path in paths for line, name in _host_state_reads(path)] == []


def test_host_state_check_sees_what_it_should(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os, time\n"
        "from datetime import datetime as dt\n"
        "from os import cpu_count, path\n"
        "import timeit, os.path\n"
        "from .time import Clock\n"
        "def f(timeout, resource):\n"
        "    import resource as r, gc\n"
        "    return os.cpu_count() or timeout.time\n"
    )
    assert sorted(_host_state_reads(probe)) == [
        (1, "time"), (2, "datetime"), (2, "datetime.datetime"),
        (3, "os.cpu_count"), (7, "gc"), (7, "resource"),
        (8, "os.cpu_count")]


# -- the benchmark's calls into repro ----------------------------------


#: the instance methods ``benchmarks/perf`` calls on what ``repro`` hands
#: it, and the classes that own them
METHODS = frozenset(
    "add_host add_router duplex_link build_routes host router link set_group "
    "run send forward_multicast throughput_bps summary export close "
    "conserves_packets stats".split())


def _owners():
    from repro.pgm.session import PgmSession
    from repro.simulator import (
        POOL, Host, Link, Network, Router, Simulator, SubtreePlan,
    )
    from repro.tcp.session import TcpFlow
    from repro.telemetry import MetricsRegistry

    return [Network, Simulator, Host, Router, Link, SubtreePlan, type(POOL),
            PgmSession, TcpFlow, MetricsRegistry]


def _binds(target, call: ast.Call, bound_method: bool) -> bool:
    try:
        signature = inspect.signature(target)
    except (TypeError, ValueError):  # a builtin without a signature
        return True
    args = [None] * (len(call.args) + (1 if bound_method else 0))
    kwargs = {kw.arg: None for kw in call.keywords}
    try:
        signature.bind(*args, **kwargs)
    except TypeError:
        return False
    return True


def _broken_calls(path: Path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    owners = _owners()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords):
            continue  # shape not known statically
        func = node.func
        if isinstance(func, ast.Name) and callable(imported.get(func.id)):
            if not _binds(imported[func.id], node, bound_method=False):
                yield f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        elif isinstance(func, ast.Attribute) and func.attr in METHODS:
            methods = [getattr(cls, func.attr) for cls in owners
                       if callable(getattr(cls, func.attr, None))]
            if not any(_binds(m, node, bound_method=True)
                                   for m in methods):
                yield f"{path.name}:{node.lineno}: {ast.unparse(node)}"


def test_benchmark_calls_bind_to_live_signatures():
    assert [b for path in HARNESS for b in _broken_calls(path)] == []


def test_pool_placeholder_keeps_the_keys_the_benchmark_reads():
    # benchmarks/perf/child.py:166-168 reads these two for packet.allocated
    # and its reuse ratio; the [benchmark] PR that drops the ratio deletes
    # this test and POOL in one move
    from repro.simulator import POOL

    assert {"allocated", "reused"} <= set(POOL.stats())


def test_benchmark_call_check_sees_a_removed_keyword(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from repro.pgm import add_receiver\n"
        "from repro.simulator import Network\n"
        "add_receiver(net, session, 'r1', at=1.0)\n"
        "add_receiver(net, session, 'r1', reliable=False)\n"
        "net = Network(seed=1)\n"
        "net.duplex_link('a', 'b', spec)\n"
        "net.duplex_link('a')\n"
    )
    assert list(_broken_calls(probe)) == [
        "probe.py:4: add_receiver(net, session, 'r1', reliable=False)",
        "probe.py:7: net.duplex_link('a')",
    ]
