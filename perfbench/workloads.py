"""The three benchmark workloads, built from a seed.

A workload is a fixed batch of operations.  ``build(name, seed, rep)``
returns repetition ``rep`` of it: the same operations with parameters,
streams and p-jitter drawn from ``(seed, rep)``, so repeated batches in
one run never recompute an identical input, yet the same seed always
gives the same inputs.  Every operation is an in-process
``casualstable.cli.main`` call or a direct library call, looked up on
its module at call time so that the tracer's wrappers are seen.

Why these workloads: each layer does most of its work in one of them
and little or none in another, and each runs one of the three bracketing
root finders (golden section in ``certify``, the Sibuya tail bisection in
``citations``, ``g_inverse`` bisection in ``limit``).

* ``certify``: the certification a user runs before trusting a family.
  Complex kernels on the 65,536-point circle dominate, no random draws.
* ``citations``: the citation model at p = q = 0.5.  Sibuya search,
  negative-binomial and Poisson draws and segment sums dominate; one FFT
  table per TV call.  Large fields (arrays beyond L2) and many one-author
  fields exercise the samplers in two ways.
* ``limit``: the Laplace side.  Bisection in ``g_inverse`` and casual
  residuals on real grids; no complex kernel, FFT or sampler, so it is
  the no-change control for kernel, extraction and sampler work.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from casualstable import cli, convergence, extraction, families, stability

import checks
from checks import CliResult

NAMES = ("certify", "citations", "limit")

# criterion-4 set: the Example1 and Example2 normalizers at p = n^(-1/gamma)
N_SET = (2, 3, 5, 10, 50, 100)
PGF_N_MAX = 200
PGF_JITTER = 0.02
# The usage mix: the same number of stability sweeps for each family, and
# one composition-closure operation per thinning family.  Operation
# latencies then fall in three clusters of about 70 operations each
# (Example1 m = 1 tables and svh sweeps; ex1/ex2 sweeps and validations;
# Example2 and m = 2 tables and the closure operations), so the median
# and the 90th percentile sit inside a cluster, not at a gap between two.
SWEEPS_PER_FAMILY = 12
COMPOSE_PAIRS = 20
STABILITY_TOL = 1e-10
VALIDATE_TOL = 1e-8
COMPOSE_P_TOL = 1e-8
COMPOSE_FIT_TOL = 1e-9

FIELD_LAMBDA = 5e4
FIELD_CALLS = 100
TV_CALLS = 20
TV_LAMBDA = 1.0
TV_FIELDS = 250_000
TV_ATOMS = 200
TV_REPLICATES = 25
CITATION_P = CITATION_Q = 0.5
STREAMS_PER_REP = 10_000
TV_STREAM_OFFSET = 1_000

CONVERGE_A = 2.0
G_INVERSE_NS = range(2, 129)
CONDITION_B_NS = (2, 4, 8, 16, 32, 64, 128)


@dataclass
class Op:
    """One timed operation and the check applied to its result."""

    tag: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


@dataclass
class Batch:
    """A workload's operations plus checks over the whole batch.

    ``pooled`` holds (tag, check) pairs: the check gets the results of
    every operation with that tag, and a failure fails all of them.
    """

    ops: list[Op]
    pooled: list[tuple[str, Callable[[list], list]]] = field(default_factory=list)
    streams: str = "none: the workload draws no random numbers in the library"


def call(module, name: str, *args):
    """``module.name(*args)``, resolved at call time so wrappers are seen."""
    return getattr(module, name)(*args)


def run_cli(argv: list[str]) -> CliResult:
    """Call ``casualstable.cli.main`` in-process, capturing both streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse rejects bad arguments this way
            code = stop.code if isinstance(stop.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _cli_op(tag: str, argv: list[str], check: Callable[[Any], list]) -> Op:
    return Op(tag, " ".join(argv), functools.partial(run_cli, argv), check)


def _rng(seed: int, rep: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, rep, NAMES.index(workload)])


def _num(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _criterion4_thinnings():
    """(argv fragment, p) over the criterion-4 set: 123 tables."""
    out = []
    for gamma, kappa, m in itertools.product([0.4, 0.7, 1.0], [0.0, 0.3, 0.7], [1, 2]):
        if m == 2 and kappa == 0.0:
            continue  # kappa = 0 has no m = 2 normalizer
        for n in N_SET:
            p = float(n) ** (-1.0 / gamma)
            if m == 2 and not p < kappa:
                continue  # inadmissible: m = 2 needs p < kappa
            out.append((["--thinning", "ex1", "--kappa", _num(kappa), "--m", str(m)], p))
    for gamma, b in itertools.product([0.5, 1.0, 2.0], [-0.5, 0.0, 0.5]):
        for n in (2, 3, 5, 10):
            out.append((["--thinning", "ex2", "--b", _num(b)], float(n) ** (-1.0 / gamma)))
    return out


def _certify(seed: int, rep: int) -> Batch:
    rng = _rng(seed, rep, "certify")
    ops: list[Op] = []

    for fragment, p in _criterion4_thinnings():
        p *= 1.0 - PGF_JITTER * rng.random()  # stays inside every domain
        argv = ["check-pgf", *fragment, "--p", _num(p), "--n-max", str(PGF_N_MAX)]
        ops.append(_cli_op("check-pgf", argv, functools.partial(checks.check_pgf_table, n_max=PGF_N_MAX)))

    ns = list(range(2, 101))
    sweeps = []
    for _ in range(SWEEPS_PER_FAMILY):
        lam, alpha = rng.uniform(0.5, 2.0), rng.uniform(0.3, 1.0)
        sweeps.append((["--family", "svh", "--lambda", _num(lam), "--alpha", _num(alpha)], alpha))
        # p(n) <= 2^(-1/gamma) <= 0.5 < kappa keeps m = 2 admissible for all n >= 2
        lam, gamma, kappa = rng.uniform(0.5, 2.0), rng.uniform(0.4, 1.0), rng.uniform(0.55, 0.75)
        sweeps.append((["--family", "ex1", "--lambda", _num(lam), "--gamma", _num(gamma),
                        "--kappa", _num(kappa), "--m", "2"], gamma))
        lam, gamma, b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)
        sweeps.append((["--family", "ex2", "--lambda", _num(lam), "--gamma", _num(gamma), "--b", _num(b)], gamma))
    for fragment, exponent in sweeps:
        argv = ["check-stability", *fragment, "--n", "2..100"]
        p_of_n = functools.partial(_closed_form_p, exponent=exponent)
        ops.append(_cli_op("check-stability", argv, functools.partial(
            checks.check_stability_sweep, ns=ns, tol=STABILITY_TOL, p_of_n=p_of_n)))

    pgfs = []
    for _ in range(16):
        pgfs.append(families.SvhStable(rng.uniform(0.5, 4.0), rng.uniform(0.3, 1.0)))
        m = int(rng.integers(1, 3))
        pgfs.append(families.Example1(rng.uniform(0.5, 4.0), rng.uniform(0.4, 1.0), rng.uniform(0.0, 0.7), m))
        pgfs.append(families.FieldCitations(rng.uniform(0.5, 4.0), rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)))
    for family in pgfs:
        run = functools.partial(call, extraction, "validate_pgf", family, PGF_N_MAX, VALIDATE_TOL)
        ops.append(Op("validate_pgf", repr(family), run, functools.partial(checks.check_validity_report, tol=VALIDATE_TOL)))

    for kind in ("Bernoulli", "Example1Thin", "Example2Thin"):
        pairs = []
        for _ in range(COMPOSE_PAIRS):
            if kind == "Bernoulli":
                thinning, (p1, p2) = families.Bernoulli(), rng.uniform(0.05, 1.0, 2)
            elif kind == "Example1Thin":
                m = int(rng.integers(1, 3))
                kappa = rng.uniform(0.2, 0.9) if m == 2 else rng.uniform(0.0, 0.9)
                thinning = families.Example1Thin(kappa, m)
                p1, p2 = rng.uniform(0.05, 0.95, 2) * (kappa if m == 2 else 1.0)
            else:
                thinning, (p1, p2) = families.Example2Thin(rng.uniform(-0.9, 0.9)), rng.uniform(0.05, 1.0, 2)
            pairs.append((thinning, float(p1), float(p2)))
        ops.append(Op("compose_thinning", f"{kind}: {COMPOSE_PAIRS} compositions",
                      functools.partial(_compose_all, pairs), functools.partial(_check_compositions, pairs=pairs)))

    # criterion 10: p(n) perturbed by 1% must make the checker fail
    for fragment, exponent in sweeps[:3]:  # svh, ex1, ex2
        n = int(rng.integers(2, 101))
        p = 1.01 * _closed_form_p(n, exponent)
        argv = ["check-stability", *fragment, "--n", str(n), "--p", _num(p)]
        ops.append(_cli_op("negative-control", argv, functools.partial(
            checks.check_stability_sweep, ns=[n], tol=STABILITY_TOL, expected_code=1)))
    return Batch(ops)


def _closed_form_p(n: int, exponent: float) -> float:
    return float(n) ** (-1.0 / exponent)


def _compose_all(pairs) -> list:
    return [call(stability, "compose_thinning", thinning, p1, p2) for thinning, p1, p2 in pairs]


def _check_compositions(results: list, pairs) -> list:
    if len(results) != len(pairs):
        return checks.wrong(f"{len(results)} compositions for {len(pairs)} pairs")
    problems = []
    for result, (_, p1, p2) in zip(results, pairs):
        problems += checks.check_composition(result, p1, p2, COMPOSE_P_TOL, COMPOSE_FIT_TOL)
    return problems


# ---------------------------------------------------------------------------
# citations
# ---------------------------------------------------------------------------


@functools.cache
def _tv_bound() -> float:
    """``checks.tv_bound`` for the TV calls, from a table rebuilt outside the timed region."""
    table = extraction.extract_pmf(families.FieldCitations(TV_LAMBDA, CITATION_P, CITATION_Q), TV_ATOMS)
    return checks.tv_bound(table.masses, table.tol_neg, TV_FIELDS)


def _citations(seed: int, rep: int) -> Batch:
    base = rep * STREAMS_PER_REP
    common = ["--p", _num(CITATION_P), "--q", _num(CITATION_Q), "--seed", str(seed)]
    ops = []
    for i in range(FIELD_CALLS):
        argv = ["citations", "--lambda", _num(FIELD_LAMBDA), *common, "--stream", str(base + i), "--replicates", "1"]
        ops.append(_cli_op("field", argv, functools.partial(checks.check_field_replicate, lam=FIELD_LAMBDA)))
    for j in range(TV_CALLS):
        # rows use streams s..s+24 and the TV totals stream s+25
        stream = base + TV_STREAM_OFFSET + j * (TV_REPLICATES + 1)
        argv = ["citations", "--lambda", _num(TV_LAMBDA), *common, "--stream", str(stream),
                "--replicates", str(TV_REPLICATES), "--tv-check", "--tv-fields", str(TV_FIELDS),
                "--tv-atoms", str(TV_ATOMS)]
        ops.append(_cli_op("tv", argv, functools.partial(
            checks.check_tv_call, lam=TV_LAMBDA, replicates=TV_REPLICATES, bound=_tv_bound)))
    tv_last = TV_STREAM_OFFSET + TV_CALLS * (TV_REPLICATES + 1) - 1
    streams = (
        f"Philox seed {seed}; repetition r uses streams {STREAMS_PER_REP} r + 0..{FIELD_CALLS - 1} "
        f"for the field calls and {STREAMS_PER_REP} r + {TV_STREAM_OFFSET}..{tv_last} for the TV calls"
    )
    return Batch(ops, pooled=[("field", checks.pooled_hill), ("tv", checks.pooled_mode_zero)], streams=streams)


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------


def _limit(seed: int, rep: int) -> Batch:
    rng = _rng(seed, rep, "limit")
    ops: list[Op] = []

    for _ in range(12):
        b, gamma = rng.uniform(0.5, 2.0), rng.uniform(0.5, 5.0)
        argv = ["check-stability", "--family", "gamma", "--b", _num(b), "--gamma", _num(gamma), "--n", "2..400"]
        ops.append(_cli_op("check-stability", argv, functools.partial(
            checks.check_stability_sweep, ns=list(range(2, 401)), tol=STABILITY_TOL)))
    for index in range(12):
        lam, h = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        alpha = (0.5, 1.0 / 3.0)[index % 2]
        argv = ["check-stability", "--family", "ts", "--lambda", _num(lam), "--alpha", _num(alpha),
                "--h", _num(h), "--n", "2..200"]
        ops.append(_cli_op("check-stability", argv, functools.partial(
            checks.check_stability_sweep, ns=list(range(2, 201)), tol=STABILITY_TOL)))

    converge_ns = list(range(2, 257))
    b, gamma = rng.uniform(0.5, 2.0), rng.uniform(1.0, 4.0)
    for kind in ("matched", "target"):
        argv = ["converge", "--b", _num(b), "--gamma", _num(gamma), "--h-kind", kind,
                "--a", _num(CONVERGE_A), "--n", "2..256"]
        ops.append(_cli_op("converge", argv, functools.partial(
            checks.check_converge, ns=converge_ns, a=CONVERGE_A, target_is_limit=kind == "target")))

    grid = convergence.default_conv_grid()
    for _ in range(6):
        family = families.TemperedStable(rng.uniform(0.5, 2.0), 0.5, rng.uniform(0.5, 2.0))
        for n in G_INVERSE_NS:
            run = functools.partial(call, convergence, "g_inverse", family, n, grid)
            check = functools.partial(checks.check_g_inverse, family=family, n=n, s=grid)
            ops.append(Op("g_inverse", f"{family!r} n={n}", run, check))
        run = functools.partial(call, convergence, "condition_b", family, CONVERGE_A, CONDITION_B_NS)
        check = functools.partial(checks.check_condition_b, ns=list(CONDITION_B_NS), a=CONVERGE_A)
        ops.append(Op("condition_b", f"{family!r} n={list(CONDITION_B_NS)}", run, check))
    return Batch(ops)


def build(workload: str, seed: int, rep: int) -> Batch:
    """Repetition ``rep`` of ``workload``'s batch for ``seed``."""
    if workload == "certify":
        return _certify(seed, rep)
    if workload == "citations":
        return _citations(seed, rep)
    if workload == "limit":
        return _limit(seed, rep)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")
