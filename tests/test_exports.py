"""Every exported name resolves: ``__all__`` of the package and of each
module; importing the package, and drawing citations, leaves the heavy
``scipy.stats`` and ``scipy.special`` unloaded."""

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


def _loaded_after(code: str) -> str:
    probe = f"import sys, casualstable\n{code}\nprint('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    return result.stdout.strip()


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about 1 s and 40 MB at import and nothing uses it;
    # scipy.special (about 0.3 s) serves only Sibuya draws beyond the table
    assert _loaded_after("") == "False False"


def test_citation_draws_load_no_scipy():
    # author and field draws come from the Beta mixture and never reach
    # the Sibuya table; at lam = 5e4 the inversion sampler would take
    # about 310 tail draws, and 2.5e5 fields about 1550
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


def test_sibuya_tail_draw_loads_scipy_special():
    # negative control for the import check: 10^4 Sibuya(0.5) draws pass
    # the 8192-entry table with probability 1 - (1 - 0.0062)^10^4 ~ 1 - 1e-27
    code = (
        "from casualstable import Seed, Sibuya, make_rng, sibuya_rvs\n"
        "assert sibuya_rvs(Sibuya(0.5), make_rng(Seed(1)), 10 ** 4).max() > 8192"
    )
    assert _loaded_after(code) == "False True"
