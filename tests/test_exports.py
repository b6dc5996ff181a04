"""Every public name a module declares in ``__all__`` exists.

Deleting a function without its ``__all__`` entry leaves ``from sqglab.x
import *`` broken while direct imports keep working, so no other test sees
it.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import sqglab

MODULES = ["sqglab"] + [f"sqglab.{info.name}" for info in pkgutil.iter_modules(sqglab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


def test_package_reexports_only_names_its_modules_export():
    exported = set()
    for name in MODULES[1:]:
        exported.update(importlib.import_module(name).__all__)
    assert sorted(set(sqglab.__all__) - exported - {"__version__"}) == []
