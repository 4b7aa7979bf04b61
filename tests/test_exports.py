"""Every exported name resolves: ``__all__`` of the package and of each module."""

import importlib
import pkgutil

import pytest

import casualstable

MODULES = ["casualstable"] + [f"casualstable.{info.name}" for info in pkgutil.iter_modules(casualstable.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == []
