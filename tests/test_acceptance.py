"""Acceptance gate: eleven criteria, one printed PASS/FAIL line each.

Every criterion is exercised at its stated tolerance and runtime
budget; the printed lines survive pytest capture so a full run reads
as a checklist.  Seeds are frozen so criteria 6, 8 and 11 are
reproducible bit for bit.
"""

import itertools
import time

import numpy as np

from casualstable import (
    AuthorCitations,
    Bernoulli,
    Example1,
    Example1Thin,
    Example2,
    Example2Thin,
    FieldCitations,
    FieldSim,
    Gamma,
    ParameterError,
    Seed,
    SvhStable,
    TemperedStable,
    author_rvs,
    empirical_mode,
    field_totals,
    lower_median,
    make_rng,
    tail_exponent,
)
from casualstable.cli import emit
from casualstable.convergence import condition_b, convergence_curve, matched_exponential
from casualstable.extraction import validate_pgf
from casualstable.samplers import _tv_check, inverse_gaussian_rvs
from casualstable.stability import (
    casual_stability_residual,
    commutativity_residual,
    discrete_stability_residual,
    solve_pn,
)

N_SET = [2, 3, 5, 10, 50, 100]
GROWTH_BLOCKS = 100
_cache: dict = {}


def report(capsys, number, passed, detail):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"[criterion {number:2d}] {status}  {detail}")


def test_criterion_01_svh_identity(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for lam, alpha in itertools.product([0.5, 1.0, 2.0], [0.3, 0.5, 0.8, 1.0]):
        family = SvhStable(lam, alpha)
        for n in N_SET:
            p = float(n) ** (-1.0 / alpha)
            worst = max(worst, discrete_stability_residual(family, Bernoulli(), n, p).sup_residual)
    elapsed = time.monotonic() - t0
    passed = worst < 1e-10 and elapsed < 5.0
    report(capsys, 1, passed, f"svh identity: worst residual {worst:.3e} ({elapsed:.2f}s)")
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_02_example1_identity(capsys):
    t0 = time.monotonic()
    worst, checked, skipped = 0.0, 0, 0
    for gamma, kappa, m in itertools.product([0.4, 0.7, 1.0], [0.0, 0.3, 0.7], [1, 2]):
        try:
            thinning = Example1Thin(kappa, m)
        except ParameterError:  # kappa = 0 has no m = 2 normalizer
            skipped += len(N_SET)
            continue
        family = Example1(1.0, gamma, kappa, m)
        for n in N_SET:
            try:
                p = solve_pn(family, thinning, n)
            except ParameterError:  # p(n) >= kappa is inadmissible for m = 2
                skipped += 1
                continue
            worst = max(worst, discrete_stability_residual(family, thinning, n, p).sup_residual)
            checked += 1
    elapsed = time.monotonic() - t0
    passed = worst < 1e-10 and elapsed < 5.0 and (checked, skipped) == (87, 21)
    report(
        capsys, 2, passed,
        f"example 1 identity: worst residual {worst:.3e}, "
        f"{checked} checked / {skipped} inadmissible ({elapsed:.2f}s)",
    )
    assert (checked, skipped) == (87, 21)
    assert worst < 1e-10
    assert elapsed < 5.0


def test_criterion_03_example2_identity(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for gamma, b in itertools.product([0.5, 1.0, 2.0], [-0.5, 0.0, 0.5]):
        family = Example2(1.0, gamma, b)
        thinning = Example2Thin(b)
        for n in [2, 3, 5, 10]:
            p = float(n) ** (-1.0 / gamma)
            worst = max(worst, discrete_stability_residual(family, thinning, n, p).sup_residual)
    elapsed = time.monotonic() - t0
    passed = worst < 1e-8 and elapsed < 10.0
    report(capsys, 3, passed, f"example 2 identity: worst residual {worst:.3e} ({elapsed:.2f}s)")
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_04_pgf_validity(capsys):
    t0 = time.monotonic()
    worst_violation, tables = 0.0, 0
    for gamma, kappa, m in itertools.product([0.4, 0.7, 1.0], [0.0, 0.3, 0.7], [1, 2]):
        try:
            thinning = Example1Thin(kappa, m)
        except ParameterError:
            continue
        for n in N_SET:
            p = float(n) ** (-1.0 / gamma)
            try:
                thinning.check_p(p)
            except ParameterError:
                continue
            closure = lambda z, _t=thinning, _p=p: _t.thin(_p, z)
            worst_violation = max(worst_violation, validate_pgf(closure, n_max=200).sup_residual)
            tables += 1
    for gamma, b in itertools.product([0.5, 1.0, 2.0], [-0.5, 0.0, 0.5]):
        thinning = Example2Thin(b)
        for n in [2, 3, 5, 10]:
            p = float(n) ** (-1.0 / gamma)
            closure = lambda z, _t=thinning, _p=p: _t.thin(_p, z)
            worst_violation = max(worst_violation, validate_pgf(closure, n_max=200).sup_residual)
            tables += 1
    elapsed = time.monotonic() - t0
    passed = worst_violation <= 1e-8 and elapsed < 30.0
    report(
        capsys, 4, passed,
        f"p.g.f. validity: most negative coefficient {-worst_violation:.3e} "
        f"over {tables} tables at n_max=200 ({elapsed:.2f}s)",
    )
    assert worst_violation <= 1e-8
    assert elapsed < 30.0


def test_criterion_05_commutativity(capsys):
    t0 = time.monotonic()
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(20):
        p1, p2 = rng.uniform(0.05, 1.0, size=2)
        worst = max(worst, commutativity_residual(Bernoulli(), p1, p2).sup_residual)
    for _ in range(20):
        m = int(rng.integers(1, 3))
        kappa = rng.uniform(0.2, 0.9) if m == 2 else rng.uniform(0.0, 0.9)
        scale = kappa if m == 2 else 1.0
        p1, p2 = rng.uniform(0.05, 0.95, size=2) * scale
        worst = max(worst, commutativity_residual(Example1Thin(kappa, m), p1, p2).sup_residual)
    for _ in range(20):
        b = rng.uniform(-0.9, 0.9)
        p1, p2 = rng.uniform(0.05, 1.0, size=2)
        worst = max(worst, commutativity_residual(Example2Thin(b), p1, p2).sup_residual)
    elapsed = time.monotonic() - t0
    passed = worst < 1e-12 and elapsed < 5.0
    report(capsys, 5, passed, f"commutativity: worst residual {worst:.3e} over 60 pairs ({elapsed:.2f}s)")
    assert worst < 1e-12
    assert elapsed < 5.0


def run_criterion6_pipeline():
    totals = field_totals(FieldSim(FieldCitations(1.0, 0.5, 0.5), Seed(42, 0)), 10 ** 6)
    tv, tv_bound = _tv_check(FieldCitations(1.0, 0.5, 0.5), 100, totals)
    mode = empirical_mode(totals)
    authors = author_rvs(AuthorCitations(0.5, 0.5), make_rng(Seed(42, 1)), 10 ** 6)
    hill = tail_exponent(authors)
    big = author_rvs(AuthorCitations(0.5, 0.5), make_rng(Seed(42, 2)), 10 ** 7)
    small = big[: 10 ** 6]
    ratio_small = float(np.mean(small)) / lower_median(small)
    ratio_big, ratio_blocks = mean_median_growth(big)
    return {
        "tv": tv,
        "tv_bound": tv_bound,
        "mode": float(mode),
        "hill": hill,
        "ratio_1e6": ratio_small,
        "ratio_1e7": ratio_big,
        "ratio_blocks": ratio_blocks,
    }


def mean_median_growth(sample):
    """Mean/median ratio of the whole sample, and its median over GROWTH_BLOCKS equal blocks.

    Where the mean is infinite the ratio grows with the sample size: at
    p = 1/2 a block's sum is about (block size)^2 times a 1/2-stable
    variable, so the whole sample's ratio is about GROWTH_BLOCKS times
    a block's.  The check "whole > 2 x median block" failed 0 times in
    4e6 Monte Carlo trials of 100 i.i.d. 1/Z^2 block sums (Z standard
    normal).  Comparing nested samples instead, 1e7 against its first
    1e6, fails a correct sampler with probability
    (2/pi) arctan(1/3) ~ 0.20.
    """
    blocks = np.split(sample, GROWTH_BLOCKS)
    per_block = [float(np.mean(block)) / lower_median(block) for block in blocks]
    return float(np.mean(sample)) / lower_median(sample), float(np.median(per_block))


def test_criterion_06_citation_model(capsys):
    t0 = time.monotonic()
    stats = run_criterion6_pipeline()
    _cache["c6"] = stats
    elapsed = time.monotonic() - t0
    checks = (
        stats["tv"] < 8e-3
        and stats["tv"] <= stats["tv_bound"]
        and stats["mode"] == 0.0
        and 0.4 <= stats["hill"] <= 0.6
        and stats["ratio_1e6"] > 5.0
        and stats["ratio_1e7"] > 2.0 * stats["ratio_blocks"]
    )
    passed = checks and elapsed < 60.0
    report(
        capsys, 6, passed,
        f"citation model: tv={stats['tv']:.5f} (bound {stats['tv_bound']:.5f}), mode={stats['mode']:.0f}, "
        f"hill={stats['hill']:.3f}, mean/median {stats['ratio_1e6']:.3g} at 1e6, "
        f"{stats['ratio_1e7']:.3g} at 1e7 against a block median {stats['ratio_blocks']:.3g} at 1e5 "
        f"({elapsed:.2f}s)",
    )
    assert stats["tv"] < 8e-3
    assert stats["tv"] <= stats["tv_bound"]
    assert stats["mode"] == 0.0
    assert 0.4 <= stats["hill"] <= 0.6
    assert stats["ratio_1e6"] > 5.0
    assert stats["ratio_1e7"] > 2.0 * stats["ratio_blocks"]
    assert elapsed < 60.0


def test_criterion_06_growth_check_sees_a_finite_mean():
    # negative control: geometric authors, whose mean is finite, keep one
    # mean/median ratio at every sample size
    whole, blocks = mean_median_growth(author_rvs(AuthorCitations(1.0, 0.5), make_rng(Seed(42, 3)), 10 ** 7))
    assert not whole > 2.0 * blocks


def test_criterion_07_gamma_casual_stability(capsys):
    t0 = time.monotonic()
    worst = 0.0
    for b, gamma in itertools.product([0.5, 1.0, 2.0], [0.5, 1.0, 2.0, 5.0]):
        family = Gamma(b, gamma)
        for n in range(2, 101):
            worst = max(worst, casual_stability_residual(family, n).sup_residual)
    elapsed = time.monotonic() - t0
    passed = worst < 1e-12 and elapsed < 5.0
    report(capsys, 7, passed, f"gamma casual stability: worst residual {worst:.3e} ({elapsed:.2f}s)")
    assert worst < 1e-12
    assert elapsed < 5.0


def run_criterion8_pipeline():
    worst = 0.0
    for lam, alpha, h in itertools.product([0.5, 1.0], [0.5, 1.0 / 3.0], [0.5, 1.0, 2.0]):
        family = TemperedStable(lam, alpha, h)
        for n in range(2, 51):
            worst = max(worst, casual_stability_residual(family, n).sup_residual)
    family = TemperedStable(1.0, 0.5, 1.0)
    draws = inverse_gaussian_rvs(family, make_rng(Seed(43, 0)), 10 ** 6)
    points = []
    for s in (0.5, 1.0, 2.0):
        emp = float(np.mean(np.exp(-s * draws)))
        target = float(family.laplace(s))
        se = float(np.sqrt((float(family.laplace(2.0 * s)) - target ** 2) / len(draws)))
        points.append({"s": s, "empirical": emp, "target": target, "z": abs(emp - target) / se})
    return {"worst_residual": worst, "points": points}


def test_criterion_08_tempered_stable(capsys):
    t0 = time.monotonic()
    result = run_criterion8_pipeline()
    _cache["c8"] = result
    elapsed = time.monotonic() - t0
    worst_z = max(point["z"] for point in result["points"])
    passed = result["worst_residual"] < 1e-10 and worst_z <= 4.0 and elapsed < 60.0
    report(
        capsys, 8, passed,
        f"tempered stable: worst residual {result['worst_residual']:.3e}, "
        f"inverse-gaussian worst |z| = {worst_z:.2f} at 1e6 draws ({elapsed:.2f}s)",
    )
    assert result["worst_residual"] < 1e-10
    assert worst_z <= 4.0
    assert elapsed < 60.0


def test_criterion_09_convergence_theorem(capsys):
    t0 = time.monotonic()
    family = Gamma(1.0, 2.0)
    h = matched_exponential(family)
    ns = list(range(2, 257))
    b_values = condition_b(family, 2.0, ns)
    b_ok = all(value <= 1.0 / n for n, value in zip(ns, b_values))
    curve = dict(convergence_curve(h, family, ns))
    decreasing = all(curve[n + 1] < curve[n] for n in range(8, 256))
    final = curve[256]
    elapsed = time.monotonic() - t0
    passed = b_ok and decreasing and final < 1e-3 and elapsed < 10.0
    report(
        capsys, 9, passed,
        f"convergence: condition (b) <= 1/n for n in 2..256, "
        f"distance decreasing for n >= 8, final {final:.3e} ({elapsed:.2f}s)",
    )
    assert b_ok
    assert decreasing
    assert final < 1e-3
    assert elapsed < 10.0


def test_criterion_10_negative_control(capsys):
    t0 = time.monotonic()
    family = SvhStable(1.0, 0.5)
    p = solve_pn(family, Bernoulli(), 10)
    residual = discrete_stability_residual(family, Bernoulli(), 10, 1.01 * p).sup_residual
    elapsed = time.monotonic() - t0
    passed = residual > 1e-4 and elapsed < 1.0
    report(
        capsys, 10, passed,
        f"negative control: 1% perturbation of p(10) lifts residual to {residual:.3e} ({elapsed:.2f}s)",
    )
    assert residual > 1e-4
    assert elapsed < 1.0


def _criterion6_rows(stats):
    return ["metric", "value"], [
        {"metric": name, "value": stats[name]}
        for name in ["tv", "mode", "hill", "ratio_1e6", "ratio_1e7", "ratio_blocks"]
    ]


def _criterion8_rows(result):
    header = ["record", "s", "empirical", "target", "z"]
    rows = [{"record": "worst_residual", "z": result["worst_residual"]}]
    for point in result["points"]:
        rows.append({"record": "laplace_point", **point})
    return header, rows


def test_criterion_11_determinism(capsys, tmp_path):
    t0 = time.monotonic()
    first6 = _cache.get("c6") or run_criterion6_pipeline()
    first8 = _cache.get("c8") or run_criterion8_pipeline()
    second6 = run_criterion6_pipeline()
    second8 = run_criterion8_pipeline()
    paths = []
    for tag, payload, renderer in [
        ("c6_first", first6, _criterion6_rows),
        ("c6_second", second6, _criterion6_rows),
        ("c8_first", first8, _criterion8_rows),
        ("c8_second", second8, _criterion8_rows),
    ]:
        header, rows = renderer(payload)
        path = tmp_path / f"{tag}.csv"
        emit(header, rows, out=str(path), as_json=False)
        paths.append(path)
    same6 = paths[0].read_bytes() == paths[1].read_bytes()
    same8 = paths[2].read_bytes() == paths[3].read_bytes()
    elapsed = time.monotonic() - t0
    passed = same6 and same8
    report(
        capsys, 11, passed,
        f"determinism: criteria 6 and 8 reruns byte-identical = {same6 and same8} ({elapsed:.2f}s)",
    )
    assert same6
    assert same8
