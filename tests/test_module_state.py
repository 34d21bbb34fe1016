"""Module-level mutable state in ``repro`` is a reviewed list.

A runner worker runs one cell after another until a task fails
(``repro.runner``), so whatever a cell leaves in a module-level object
is there when the next cell in that worker starts.  The contract that
keeps results independent of which cells shared a worker is in
docs/API.md § repro.experiments: an experiment is a pure function of its
kwargs, and registries are filled at import time, never inside a cell.
This census lists every module-level name of the package bound to a
mutable object and holds it to :data:`ALLOWED`, each entry with the
reason it cannot carry one cell's state into another cell's result; new
process-global state fails here until someone adds it, with a reason.
"""

import ast
import dataclasses
import enum
import importlib
import inspect
import pkgutil
import re
import struct
import types
from pathlib import PurePath

import repro

ALLOWED = {
    "repro.core.controller._REGISTRY":
        "controller backends, registered at import time only",
    "repro.experiments.registry._REGISTRY":
        "experiment specs, registered at import time only",
    "repro.runner.cache._FINGERPRINTS":
        "memo keyed by the files' stat signatures: an edit misses it",
    "repro.simulator.packet._packet_ids":
        "Packet.uid, read by nothing but repr(): reaches no result",
    "repro.simulator.packet.POOL":
        "construction count the benchmark reads: reaches no result",
    "repro.experiments.common.PARAM_TYPES":
        "constant table of the ParamSpec types, never written",
    "repro.pgm.constants.TYPE_NAMES":
        "constant table of the packet type names, never written",
    "repro.pgm.misbehavior._BEHAVIORS":
        "constant table of the episode kinds, never written",
    "repro.simulator.faults._RX_EPISODE_KINDS":
        "constant table of the receiver episodes, never written",
}

#: values nothing can change in place
IMMUTABLE = (type(None), bool, int, float, complex, str, bytes, frozenset,
             range, PurePath, struct.Struct, re.Pattern, enum.Enum)
#: what ``def`` / ``class`` / ``import`` bind: code, not state
DEFINITIONS = (type, types.ModuleType, types.FunctionType,
               types.BuiltinFunctionType)


def _mutable(value) -> bool:
    if isinstance(value, tuple):
        return any(_mutable(item) for item in value)
    if isinstance(value, IMMUTABLE + DEFINITIONS) or type(value) is object:
        return False
    if isinstance(value, types.GenericAlias) or (
            type(value).__module__ == "typing"):
        return False  # an annotation alias
    if dataclasses.is_dataclass(value) and (
            type(value).__dataclass_params__.frozen):
        return any(_mutable(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    return True


def _imported_names(tree: ast.Module) -> set[str]:
    """Names bound by module-level imports, including those in the
    bodies of top-level ``if`` / ``try`` blocks."""
    names, stack = set(), list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
    return names


def mutable_globals(module: types.ModuleType) -> list[str]:
    """``module.name`` for each module-level name the module itself
    binds (not by import) to a mutable object."""
    imported = _imported_names(ast.parse(inspect.getsource(module)))
    return sorted(f"{module.__name__}.{name}"
                  for name, value in vars(module).items()
                  if not name.startswith("__") and name not in imported
                  and _mutable(value))


def _package_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):  # a CLI run on import
            yield importlib.import_module(info.name)


def test_module_level_mutable_state_is_the_reviewed_list():
    modules = list(_package_modules())
    assert len(modules) > 80
    found = [name for module in modules for name in mutable_globals(module)]
    assert sorted(found) == sorted(ALLOWED)


def test_census_sees_what_it_should(tmp_path):
    probe = tmp_path / "census_probe.py"
    probe.write_text(
        "import itertools\n"
        "from collections import deque\n"
        "from dataclasses import dataclass\n"
        "from typing import Callable\n"
        "from repro.simulator.topology import NON_LOSSY\n"
        "from repro.simulator.packet import POOL\n"
        "@dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    items: tuple = ()\n"
        "class Plain:\n"
        "    pass\n"
        "__all__ = ['Frozen']\n"
        "LIMIT, NAMES, SPEC = 3, ('a', 'b'), NON_LOSSY\n"
        "Handler = Callable[[int], None]\n"
        "FROZEN = Frozen(items=(1, 2))\n"
        "TABLE = {'a': 1}\n"
        "SEEN = set()\n"
        "_ids = itertools.count()\n"
        "BACKLOG = deque()\n"
        "HOLDER = Frozen(items=([],))\n"
        "STATE = Plain()\n"
        "def helper():\n"
        "    return TABLE\n"
    )
    spec = importlib.util.spec_from_file_location("census_probe", probe)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert mutable_globals(module) == [
        f"census_probe.{name}" for name in
        ("BACKLOG", "HOLDER", "SEEN", "STATE", "TABLE", "_ids")]
