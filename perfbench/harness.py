"""Timing and checking of one batch of operations.

Operations run one after another in this process.  Each is timed alone;
its result is kept and checked after the batch, outside the timed
region.  An operation fails when it raises, exits with the wrong code,
or its result fails its own check or a pooled check over the batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from checks import CliResult, Problem, WRONG
from workloads import Batch


@dataclass
class BatchRun:
    wall_s: float
    latencies: list[float]
    results: list
    failures: dict[int, list[Problem]] = field(default_factory=dict)
    stdout_bytes: int = 0

    @property
    def wrong(self) -> bool:
        return any(problem.kind == WRONG for problems in self.failures.values() for problem in problems)


def execute(batch: Batch, tracer=None) -> BatchRun:
    """Run every operation of the batch in order, timing each."""
    clock = time.perf_counter
    results, latencies = [], []
    start = clock()
    for index, op in enumerate(batch.ops):
        began = clock()
        try:
            result = op.run() if tracer is None else tracer.run_op(index, op.run)
        except Exception as error:  # a raising operation is a failed operation
            result = error
        latencies.append(clock() - began)
        results.append(result)
    return BatchRun(clock() - start, latencies, results)


def _guarded(check, argument) -> list[Problem]:
    try:
        return list(check(argument))
    except Exception as error:  # a result the check cannot even read is wrong
        return [Problem(WRONG, f"check raised {type(error).__name__}: {error}")]


def evaluate(batch: Batch, run: BatchRun) -> dict[int, list[Problem]]:
    """Apply each operation's check and the batch's pooled checks."""
    failures: dict[int, list[Problem]] = {}
    for index, (op, result) in enumerate(zip(batch.ops, run.results)):
        if isinstance(result, Exception):
            problems = [Problem(WRONG, f"raised {type(result).__name__}: {result}")]
        else:
            problems = _guarded(op.check, result)
        if problems:
            failures[index] = problems
    for tag, check in batch.pooled:
        indices = [i for i, op in enumerate(batch.ops) if op.tag == tag]
        problems = _guarded(check, [run.results[i] for i in indices])
        if problems:
            for i in indices:
                failures.setdefault(i, []).extend(problems)
    run.failures = failures
    return failures


def fingerprint(result) -> bytes:
    """Bytes that identify a result exactly (criterion 11 compares them)."""
    if isinstance(result, CliResult):
        return f"{result.code}\0{result.out}\0{result.err}".encode()
    if isinstance(result, np.ndarray):
        return f"{result.dtype}{result.shape}".encode() + result.tobytes()
    return repr(result).encode()


def check_rerun(batch: Batch, run: BatchRun, index: int = 0) -> list[Problem]:
    """Rerun one operation with the same inputs; the result must be byte-identical."""
    try:
        again = batch.ops[index].run()
    except Exception as error:
        again = error
    if fingerprint(again) != fingerprint(run.results[index]):
        problems = [Problem(WRONG, f"rerun of {batch.ops[index].label!r} is not byte-identical")]
        run.failures.setdefault(index, []).extend(problems)
        return problems
    return []
