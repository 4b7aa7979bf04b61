"""Negative controls for the benchmark's checks.

Each test feeds one check a wrong result (a perturbed p, a shifted mass
table, a biased sample, a perturbed root) through ``harness.evaluate``
and asserts that it counts as a failed operation, next to the correct
result that must pass.  Run with ``python3 -m pytest perfbench/tests``.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402
from casualstable import extraction, families  # noqa: E402
from checks import REFUSED, WRONG, CliResult  # noqa: E402
from tracer import MissingTarget, Tracer  # noqa: E402
from workloads import Batch, Op, run_cli  # noqa: E402


def failures_of(results, check, pooled=None):
    """Number of failed operations when ``check`` sees each result."""
    ops = [Op("op", f"op{i}", lambda r=result: r, check) for i, result in enumerate(results)]
    batch = Batch(ops, pooled=[("op", pooled)] if pooled else [])
    return len(harness.evaluate(batch, harness.execute(batch)))


def no_check(result):
    return []


def svh_sweep(n, p=None, tol=None):
    argv = ["check-stability", "--family", "svh", "--lambda", "1.0", "--alpha", "0.5", "--n", str(n)]
    argv += ["--p", repr(p)] if p is not None else []
    argv += ["--tol", repr(tol)] if tol is not None else []
    return run_cli(argv)


def p_svh(n):
    return float(n) ** -2.0


# -- certify ---------------------------------------------------------------


def test_perturbed_p_fails_the_exit_code_check():
    check = lambda r: checks.check_stability_sweep(r, [10], workloads.STABILITY_TOL, p_svh)
    assert failures_of([svh_sweep(10)], check) == 0
    assert failures_of([svh_sweep(10, p=1.01 * p_svh(10))], check) == 1


def test_perturbed_p_fails_the_residual_check_even_when_the_cli_passes():
    wrong = svh_sweep(10, p=1.01 * p_svh(10), tol=1.0)  # a lax CLI tolerance exits 0
    assert wrong.code == 0
    check = lambda r: checks.check_stability_sweep(r, [10], workloads.STABILITY_TOL)
    assert failures_of([wrong], check) == 1


def test_perturbed_p_fails_the_closed_form_check():
    wrong = svh_sweep(10, p=(1 + 1e-9) * p_svh(10), tol=1.0)
    check = lambda r: checks.check_stability_sweep(r, [10], 1.0, p_svh)
    assert failures_of([wrong], check) == 1


def test_negative_control_that_passes_is_a_failure():
    check = lambda r: checks.check_stability_sweep(r, [10], workloads.STABILITY_TOL, expected_code=1)
    assert failures_of([svh_sweep(10, p=1.01 * p_svh(10))], check) == 0
    assert failures_of([svh_sweep(10, p=p_svh(10))], check) == 1


def pgf_result(min_coeff_scale=None):
    result = run_cli(["check-pgf", "--thinning", "ex2", "--b", "0.5", "--p", "0.5"])
    if min_coeff_scale is None:
        return result
    header, row = result.out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    fields["min_coeff"] = repr(-min_coeff_scale * float(fields["tol_neg"]))
    return CliResult(0, header + "\n" + ",".join(fields[key] for key in header.split(",")) + "\n", "")


def test_shifted_table_fails_the_certificate_check():
    check = lambda r: checks.check_pgf_table(r, n_max=200)
    assert failures_of([pgf_result()], check) == 0
    assert failures_of([pgf_result(min_coeff_scale=2.0)], check) == 1


def test_non_pgf_fails_the_validity_check():
    check = lambda r: checks.check_validity_report(r, workloads.VALIDATE_TOL)
    good = extraction.validate_pgf(families.SvhStable(1.0, 0.5))
    shifted = extraction.validate_pgf(lambda z: 1.5 - 0.5 * z)  # masses (1.5, -0.5)
    assert failures_of([good], check) == 0
    assert failures_of([shifted], check) == 1


def test_perturbed_composition_fails():
    check = lambda r: checks.check_composition(r, 0.5, 0.4, workloads.COMPOSE_P_TOL, workloads.COMPOSE_FIT_TOL)
    from casualstable.stability import compose_thinning

    good = compose_thinning(families.Example2Thin(0.3), 0.5, 0.4)
    assert failures_of([good], check) == 0
    assert failures_of([(good[0] * 1.01, good[1])], check) == 1
    assert failures_of([(good[0], 1e-6)], check) == 1


def test_one_perturbed_composition_fails_the_closure_operation():
    op = next(op for op in workloads.build("certify", 1, 0).ops if op.tag == "compose_thinning")
    results = op.run()
    assert failures_of([results], op.check) == 0
    (p_eff, fit), *rest = results
    assert failures_of([[(p_eff * 1.01, fit), *rest]], op.check) == 1
    assert failures_of([rest], op.check) == 1  # a pair left out


# -- citations -------------------------------------------------------------


def field_call(lam, p=0.5, stream=0, seed=5):
    return run_cli(["citations", "--lambda", repr(lam), "--p", repr(p), "--q", "0.5", "--seed", str(seed),
                    "--stream", str(stream), "--replicates", "1"])


def test_biased_population_fails_the_poisson_check():
    check = lambda r: checks.check_field_replicate(r, workloads.FIELD_LAMBDA)
    assert failures_of([field_call(5e4)], check) == 0
    assert failures_of([field_call(5.5e4)], check) == 1


def test_broken_field_row_fails_the_invariants():
    check = lambda r: checks.check_field_replicate(r, workloads.FIELD_LAMBDA)
    good = field_call(5e4)
    header, row = good.out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    fields["total"] = str(int(fields["n_scientists"]) - 1)
    broken = CliResult(0, header + "\n" + ",".join(fields[key] for key in header.split(",")) + "\n", "")
    assert failures_of([broken], check) == 1


def test_biased_sample_fails_the_pooled_hill_check():
    good = [field_call(5e4, stream=i) for i in range(8)]
    biased = [field_call(5e4, p=0.35, stream=i) for i in range(8)]
    assert failures_of(good, no_check, checks.pooled_hill) == 0
    assert failures_of(biased, no_check, checks.pooled_hill) == len(biased)


def tv_call(lam, stream=0, fields=20_000, replicates=25):
    return run_cli(["citations", "--lambda", repr(lam), "--seed", "5", "--stream", str(stream),
                    "--replicates", str(replicates), "--tv-check", "--tv-fields", str(fields),
                    "--tv-atoms", "200"])


def test_biased_totals_fail_the_pooled_mode_check():
    good = [tv_call(1.0, stream=100 * i) for i in range(4)]
    biased = [tv_call(4.0, stream=100 * i) for i in range(4)]
    assert failures_of(good, no_check, checks.pooled_mode_zero) == 0
    assert failures_of(biased, no_check, checks.pooled_mode_zero) == len(biased)


def test_shifted_mass_table_fails_the_tv_check():
    n_fields, replicates = 20_000, 2
    table = extraction.extract_pmf(families.FieldCitations(1.0, 0.5, 0.5), 200)
    bound = lambda: checks.tv_bound(table.masses, table.tol_neg, n_fields)
    check = lambda r: checks.check_tv_call(r, 1.0, replicates, bound)
    good = tv_call(1.0, fields=n_fields, replicates=replicates)
    assert failures_of([good], check) == 0
    # a sampler whose frequencies are the mass table shifted by one atom
    shifted_tv = 0.5 * float(np.abs(np.roll(table.masses, 1) - table.masses).sum())
    lines = good.out.splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + repr(shifted_tv)
    assert failures_of([CliResult(0, "\n".join(lines) + "\n", "")], check) == 1


def test_value_cap_refusal_counts_as_failed_but_not_wrong():
    refused = CliResult(1, "", "check failed: sibuya draw exceeded the array sampler value cap 2^61\n")
    ops = [Op("op", "cap", lambda: refused, lambda r: checks.check_field_replicate(r, 5e4))]
    batch = Batch(ops)
    run = harness.execute(batch)
    failures = harness.evaluate(batch, run)
    assert [problem.kind for problem in failures[0]] == [REFUSED]
    assert not run.wrong


# -- limit -----------------------------------------------------------------


def test_perturbed_root_fails_the_g_inverse_check():
    from casualstable.convergence import default_conv_grid, g_inverse

    family, grid = families.TemperedStable(1.0, 0.5, 1.0), default_conv_grid()
    check = lambda r: checks.check_g_inverse(r, family, 8, grid)
    x = g_inverse(family, 8, grid)
    assert failures_of([x], check) == 0
    assert failures_of([x * (1 + 1e-6)], check) == 1


def test_condition_b_above_its_bound_fails():
    from casualstable.convergence import condition_b

    family = families.TemperedStable(1.0, 0.5, 1.0)
    ns = [2, 4, 8]
    check = lambda r: checks.check_condition_b(r, ns, 2.0)
    values = condition_b(family, 2.0, ns)
    assert failures_of([values], check) == 0
    assert failures_of([[v * 4 for v in values]], check) == 1


def test_mismatched_transform_fails_the_converge_check():
    ns = [2, 4, 8]
    check = lambda r: checks.check_converge(r, ns, 2.0, target_is_limit=True)
    target = run_cli(["converge", "--h-kind", "target", "--n", "2,4,8"])
    matched = run_cli(["converge", "--h-kind", "matched", "--n", "2,4,8"])  # h != L
    assert failures_of([target], check) == 0
    assert failures_of([matched], check) == 1


# -- harness ---------------------------------------------------------------


def test_raising_operation_counts_as_failed():
    def boom():
        raise ValueError("boom")

    batch = Batch([Op("op", "boom", boom, no_check)])
    failures = harness.evaluate(batch, harness.execute(batch))
    assert failures[0][0].kind == WRONG


def test_nondeterministic_rerun_fails():
    counter = iter(range(10))
    batch = Batch([Op("op", "drift", lambda: np.array([next(counter)]), no_check)])
    run = harness.execute(batch)
    harness.evaluate(batch, run)
    assert harness.check_rerun(batch, run)
    assert 0 in run.failures


def test_seeded_workloads_are_reproducible():
    for name in workloads.NAMES:
        first, second = workloads.build(name, 3, 1), workloads.build(name, 3, 1)
        assert [op.label for op in first.ops] == [op.label for op in second.ops]
        assert len(first.ops) >= 100
    assert len([op for op in workloads.build("certify", 3, 0).ops if op.tag == "check-pgf"]) == 123


# -- tracer and contract ---------------------------------------------------


def test_tracer_attributes_time_and_restores_originals():
    original = extraction.extract_pmf
    tracer = Tracer()
    tracer.install()
    try:
        tracer.run_op(0, lambda: extraction.validate_pgf(families.SvhStable(1.0, 0.5)))
    finally:
        tracer.uninstall()
    assert extraction.extract_pmf is original
    metrics = tracer.layer_metrics(1)
    assert metrics["extraction.tables"] == 1
    assert metrics["extraction.family_table_share"] == 1.0
    assert metrics["extraction.fft_points"] == 1 << 16
    assert metrics["families.kernel_points"] == (1 << 16) + 1  # circle plus the radial limit
    assert all(metrics[name] >= 0 for name in metrics if name.endswith("_s"))


@pytest.mark.parametrize("owner, name", [
    ("convergence", "g_inverse"),  # a renamed function
    ("citations", "author_rvs"),
    ("TemperedStable", "neg_log_gfun"),  # a method a class no longer defines
    ("Example2Thin", "thin"),
])
def test_missing_trace_target_stops_the_traced_run(monkeypatch, capsys, owner, name):
    import casualstable
    import run

    holder = getattr(casualstable, owner) if hasattr(casualstable, owner) else getattr(families, owner)
    monkeypatch.delattr(holder, name)
    with pytest.raises(MissingTarget, match=name):
        Tracer()
    code = run.main(["--workload", "limit", "--seed", "1", "--seconds", "1", "--trace", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_every_metric_the_runner_prints():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = set(Tracer().layer_metrics(1)) | {"cli.emit_bytes", "trace.overhead_s", "trace.plain_wall_range_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb"}


def test_runner_refuses_a_directory_without_the_library(tmp_path):
    for path in [ROOT / "BENCHMARK.json", *BENCH.rglob("*.py")]:
        target = tmp_path / path.relative_to(ROOT)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(path.read_bytes())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "limit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("name", workloads.NAMES)
def test_first_operation_of_each_workload_passes_its_check(name):
    batch = workloads.build(name, 1, 0)
    op = batch.ops[0]
    assert op.check(op.run()) == []
