"""The package layering rule (DESIGN.md §6).

A package ``__init__`` re-exports only its own layer: ``repro.core``
re-exports the network, and the session facades ``core/fabric.py`` and
``core/arrivals.py`` sit above ``faults``, ``resilience`` and
``control``.  With the layers in order, every module imports its
dependencies at module top, and every module imports cleanly when it
is the first ``repro`` module a process loads.
"""

from __future__ import annotations

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
PACKAGE = SRC / "repro"

#: Modules that once needed function-level imports to dodge a cycle.
HOISTED = (
    "core/fabric.py",
    "core/arrivals.py",
    "core/routing.py",
    "cluster/replica.py",
    "cluster/cluster.py",
)

FIRST_IMPORTS = [
    f"repro.{info.name}"
    for info in pkgutil.iter_modules([str(PACKAGE)])
    if info.ispkg
] + [
    "repro.core.fabric",
    "repro.core.arrivals",
    "repro.resilience.snapshot",
    "repro.faults.healing",
    "repro.cluster.replica",
]

# One interpreter for every module: drop every repro module, then
# import the next one first.
PROBE = """
import importlib, sys
for name in sys.argv[1:]:
    for key in [k for k in sys.modules if k == "repro" or k.startswith("repro.")]:
        del sys.modules[key]
    try:
        importlib.import_module(name)
    except Exception as exc:
        print(f"{name}: {type(exc).__name__}: {exc}")
"""


def test_every_module_imports_first():
    assert "repro.cluster" in FIRST_IMPORTS
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *FIRST_IMPORTS],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.stdout == "", out.stdout


def _repro_import(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").startswith("repro")
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "repro" for a in node.names)
    return False


@pytest.mark.parametrize("path", HOISTED)
def test_no_function_level_repro_imports(path):
    tree = ast.parse((PACKAGE / path).read_text())
    nested = [
        f"{path}:{node.lineno}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if _repro_import(node)
    ]
    assert not nested, nested


def test_core_init_imports_no_serving_module():
    tree = ast.parse((PACKAGE / "core" / "__init__.py").read_text())
    imported = {
        node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    assert not imported & {"fabric", "arrivals"}, imported


def test_serving_classes_left_repro_core():
    import repro.core

    with pytest.raises(ImportError):
        from repro.core import MulticastFabric  # noqa: F401
    for name in (
        "MulticastFabric",
        "FabricStats",
        "QueueingSimulator",
        "QueueingReport",
        "Arrival",
        "poisson_arrivals",
    ):
        assert name not in repro.core.__all__, name

