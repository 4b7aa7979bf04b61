"""Process set-up shared by the benchmark's entry points (stdlib only).

``prepare`` must run before numpy is imported: it pins the native
thread pools to one thread and puts the checkout's ``src`` first on
``sys.path``, so the library under test is the one built from this
checkout and never an installed copy.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout holds no ``src/casualstable`` package to benchmark."""


def prepare() -> None:
    if not (SRC / "casualstable" / "__init__.py").is_file():
        raise MissingSource(f"no casualstable package under {SRC}")
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """Machine and library versions recorded with every result."""
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }
