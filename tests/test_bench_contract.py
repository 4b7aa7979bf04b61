"""The benchmark's correctness verdict holds on the library as it stands.

Each workload of ``perfbench`` is built for seed 1, repetition 0, run,
checked and rerun once; no operation may read as WRONG.  ``perfbench``
is imported read-only, with ``sys.path`` set up as its own tests do.
"""

import sys
from pathlib import Path
from unittest import mock

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import harness  # noqa: E402
import workloads  # noqa: E402
from casualstable import extraction  # noqa: E402
from workloads import Batch  # noqa: E402


def verdict(batch: Batch) -> harness.BatchRun:
    """Run, check and rerun one batch as the benchmark does."""
    run = harness.execute(batch)
    harness.evaluate(batch, run)
    harness.check_rerun(batch, run)
    return run


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_is_correct(workload):
    run = verdict(workloads.build(workload, 1, 0))
    assert not run.wrong, {index: problems for index, problems in run.failures.items()}


def test_validate_pgf_without_its_tol_argument_is_wrong():
    # negative control: the certify workload calls validate_pgf(pgf, n_max, tol)
    ops = [op for op in workloads.build("certify", 1, 0).ops if op.tag == "validate_pgf"]
    assert ops
    with mock.patch.object(extraction, "validate_pgf", lambda pgf, n_max: None):
        run = verdict(Batch(ops))
    assert run.wrong
