"""Every public name a module declares in ``__all__`` exists.

Deleting a function without its ``__all__`` entry leaves ``from sqglab.x
import *`` broken while direct imports keep working, so no other test sees
it.  Likewise every function the benchmark's span tracer wraps must exist,
or a traced benchmark run fails.  And the driver stays above the kernels:
it imports no private name of the spectral or dynamics layers.  The
failures of the operator kit and of the initial-condition builders stay
typed: they raise no bare ``ValueError`` or ``TypeError``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import sqglab

MODULES = ["sqglab"] + [f"sqglab.{info.name}" for info in pkgutil.iter_modules(sqglab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def _bench_tracer():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = _bench_tracer()
TRACER_TARGETS = [t for table in (TRACER.GROUPS, TRACER.COUNTED) for ts in table.values() for t in ts]


def test_bench_tracer_has_targets():
    assert TRACER_TARGETS


@pytest.mark.parametrize("target", TRACER_TARGETS)
def test_bench_tracer_targets_resolve(target):
    owner, attr, original, _ = TRACER._resolve(target)
    assert callable(original) and getattr(owner, attr) is original


def test_package_reexports_only_names_its_modules_export():
    exported = set()
    for name in MODULES[1:]:
        exported.update(importlib.import_module(name).__all__)
    assert sorted(set(sqglab.__all__) - exported - {"__version__"}) == []


def test_cli_imports_no_private_kernel():
    # a sample's grid, norms and battery come from the estimates layer's
    # sample pass, not from kernels wired together in the driver
    tree = ast.parse((Path(sqglab.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    private = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").rpartition(".")[2] in ("spectral", "dynamics")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("module", ["operators.py", "fields.py"])
def test_raises_no_bare_value_or_type_error(module):
    # a bad argument raises FieldError naming it, a broken spectrum
    # NonFiniteError; both stay ValueErrors for callers that catch those
    tree = ast.parse((Path(sqglab.__file__).parent / module).read_text(encoding="utf-8"))
    bare = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                bare.append(node.lineno)
    assert bare == []
