"""The simulator knows no protocol.

``repro.simulator`` schedules receiver episodes without naming one:
the attacks are ``ReceiverEpisode`` subclasses in ``repro.pgm``, and
the dependency runs one way only — protocol packages import the
simulator, never the reverse.
"""

import ast
import importlib
from pathlib import Path

import pytest

import repro.simulator
from repro.simulator.faults import ReceiverEpisode

PACKAGE = "repro.simulator"
SIMULATOR_DIR = Path(repro.simulator.__file__).parent
PROTOCOL_PACKAGES = ("repro.pgm", "repro.tcp", "repro.core")


def imported_modules(path: Path) -> set[str]:
    """Every absolute module name an import anywhere in ``path`` (a
    module of :data:`PACKAGE`) may load, relative imports resolved."""
    names, parts = set(), PACKAGE.split(".")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = parts[:len(parts) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_the_walker_resolves_relative_imports():
    names = imported_modules(SIMULATOR_DIR / "faults.py")
    assert {"repro.simulator.link", "repro.simulator.loss_models"} <= names


@pytest.mark.parametrize(
    "path", sorted(SIMULATOR_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_simulator_module_imports_a_protocol_package(path):
    offending = sorted(
        name for name in imported_modules(path)
        if any(name == pkg or name.startswith(pkg + ".")
               for pkg in PROTOCOL_PACKAGES))
    assert offending == []


def test_the_simulator_exports_no_receiver_episode_of_its_own():
    subclasses = sorted(
        f"{path.stem}.{name}" for path in SIMULATOR_DIR.glob("*.py")
        for name, obj in vars(importlib.import_module(
            f"{PACKAGE}.{path.stem}" if path.stem != "__init__" else PACKAGE
        )).items()
        if isinstance(obj, type) and issubclass(obj, ReceiverEpisode)
        and obj is not ReceiverEpisode)
    assert subclasses == []
