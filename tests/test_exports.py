"""Every exported name resolves: ``__all__`` of the package and of each
module; the package exports exactly its library modules' ``__all__``
lists, each name declared once; importing the package, and drawing citations or Sibuya values,
leaves ``scipy.stats`` and ``scipy.special`` unloaded; and the package
imports no third-party module beyond its declared runtime dependencies."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import casualstable

MODULES = ["casualstable"] + [f"casualstable.{info.name}" for info in pkgutil.iter_modules(casualstable.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
    assert missing == []


LIBRARY = [importlib.import_module(name) for name in MODULES[1:] if name != "casualstable.cli"]


def test_every_library_module_declares_its_own_names():
    assert [module.__name__ for module in LIBRARY if not hasattr(module, "__all__")] == []
    declared = [name for module in LIBRARY for name in module.__all__]
    assert sorted({name for name in declared if declared.count(name) > 1}) == []


def test_package_exports_exactly_its_modules_names():
    # the package re-exports each library module's __all__ in module
    # order and adds only __version__
    assert casualstable.__all__ == [name for module in LIBRARY for name in module.__all__] + ["__version__"]


def _loaded_after(code: str) -> str:
    probe = f"import sys, casualstable\n{code}\nprint('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    return result.stdout.strip()


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 1 s and 40 MB at import, scipy.special about
    # 0.3 s, and the package uses neither
    assert _loaded_after("") == "False False"


def test_citation_draws_load_no_scipy():
    # author and field draws come from the Beta mixture, heavy tails included
    code = (
        "from casualstable import FieldCitations, FieldSim, Seed, field_totals, ranking_instability, simulate_field\n"
        "simulate_field(FieldSim(FieldCitations(5e4, 0.5, 0.5), Seed(1)))\n"
        "field_totals(FieldSim(FieldCitations(1.0, 0.5, 0.5), Seed(2)), 250_000)\n"
        "ranking_instability(FieldSim(FieldCitations(500.0, 0.5, 0.5), Seed(3)), 4)"
    )
    assert _loaded_after(code) == "False False"


def test_scipy_stats_probe_sees_an_import():
    # negative control for the scipy.stats half of the probe
    assert _loaded_after("import scipy.stats") == "True True"


def test_sibuya_tail_draws_load_no_scipy():
    # 10^4 Sibuya(0.5) draws exceed 8192 with probability
    # 1 - (1 - 0.0062)^10^4 ~ 1 - 1e-27; the tail needs no scipy.special
    code = (
        "from casualstable import Seed, Sibuya, make_rng, sibuya_rvs\n"
        "assert sibuya_rvs(Sibuya(0.5), make_rng(Seed(1)), 10 ** 4).max() > 8192"
    )
    assert _loaded_after(code) == "False False"


def test_scipy_special_probe_sees_an_import():
    # negative control for the scipy.special half of the probe
    assert _loaded_after("import scipy.special") == "False True"


# -- declared runtime dependencies -----------------------------------------

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "casualstable"


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports in ``source``, function-local
    ones included, that are neither standard library nor the package."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"casualstable"}


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in project["dependencies"]}


def test_package_imports_only_its_declared_dependencies():
    imported = set().union(*(third_party_imports(path.read_text()) for path in PACKAGE.glob("*.py")))
    assert imported == declared_dependencies()


def test_import_collector_sees_a_function_local_import():
    # negative control: an import inside a function body is still collected
    source = "import math\nfrom . import errors\n\ndef f():\n    from scipy.special import gammaln\n    return gammaln\n"
    assert third_party_imports(source) == {"scipy"}
