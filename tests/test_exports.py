"""Every exported name resolves: ``__all__`` of the package and of each
module; importing the package leaves the heavy ``scipy.stats`` unloaded."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import casualstable

MODULES = ["casualstable"] + [f"casualstable.{info.name}" for info in pkgutil.iter_modules(casualstable.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == []


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 1 s and 40 MB at import; only the rank
    # correlation in ranking_instability needs it, so it loads on first use
    code = "import sys, casualstable; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "False"
