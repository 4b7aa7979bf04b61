"""Coefficient extraction against independently computed series oracles.

The frozen arrays below are Taylor coefficients of the respective
generating functions computed with mpmath at 60 decimal digits
(mp.taylor of the closed-form expression); they are written out to 17
significant digits, the full double precision.
"""

import numpy as np
import pytest
from scipy.special import gammaln

from casualstable import (
    AuthorCitations,
    Bernoulli,
    Example1,
    Example1Thin,
    Example2,
    Example2Thin,
    FieldCitations,
    Geometric,
    ParameterError,
    PmfTable,
    PrecisionError,
    ResidualReport,
    Sibuya,
    SvhStable,
    extract_pmf,
    fft_points,
    radial_norm_defect,
    validate_pgf,
)
from casualstable import extraction

# mpmath taylor(exp(-lam*(1-z)**alpha), 0, ...) at dps=60
SVH_1_05 = [0.36787944117144232, 0.18393972058572116, 0.09196986029286058,
            0.053649085170835339, 0.035446716987873349, 0.025483315456146786,
            0.019407875900342367, 0.015400731751793686]
SVH_2_08 = [0.13533528323661269, 0.21653645317858031, 0.19488280786072228,
            0.13569617732524366, 0.085026647281455867, 0.052523082082996439,
            0.033655731606216745, 0.022803600991540991]
# mpmath taylor(exp(-lam*((1-z**m)/(1-kappa*z**m))**gamma), 0, ...)
EX1_07_03_M1 = [0.36787944117144232, 0.18026092617400674, 0.11716960201310438,
                0.076307454398226619, 0.050674868946445611, 0.034678924481414787,
                0.024583184707007109]
EX1_05_04_M2 = [0.36787944117144232, 0.0, 0.1103638323514327, 0.0,
                0.077254682646002888, 0.0, 0.055733735337473512, 0.0,
                0.041455414527006907]
# mpmath taylor(exp(-lam*acos(((1+b)z-2b)/(2-(1+b)z))**gamma), 0, ...)
EX2_1_02 = [0.16996644435107651, 0.08326621241105795, 0.066192390148211053,
            0.05449306243259941, 0.045578745329216269, 0.038548369841838457,
            0.032914049954266774]
EX2_2_M05 = [0.33399718598613179, 0.30290194179883182, 0.18831459316717003,
             0.09756591732607084, 0.04519344098263782, 0.01937601161533845,
             0.0078445641607233588]
EX2_05_0 = [0.28555685229871412, 0.056960350920152051, 0.038693909236809445,
            0.028830465738485844, 0.022628864120554569, 0.018416709492765271,
            0.01540594040423078]
# mpmath taylor(exp(-lam*((1-z)/(1-(1-q)z))**p), 0, ...)
FIELD_1_05_05 = [0.36787944117144232, 0.09196986029286058, 0.068977395219645435,
                 0.052691065792784708, 0.041015204622792642, 0.03253074550593174,
                 0.026274554637784175]


@pytest.mark.parametrize(
    "family,oracle",
    [
        (SvhStable(1.0, 0.5), SVH_1_05),
        (SvhStable(2.0, 0.8), SVH_2_08),
        (Example1(1.0, 0.7, 0.3, 1), EX1_07_03_M1),
        (Example1(1.0, 0.5, 0.4, 2), EX1_05_04_M2),
        (Example2(1.0, 1.0, 0.2), EX2_1_02),
        (Example2(1.0, 2.0, -0.5), EX2_2_M05),
        (Example2(1.0, 0.5, 0.0), EX2_05_0),
        (FieldCitations(1.0, 0.5, 0.5), FIELD_1_05_05),
    ],
)
def test_extraction_matches_series_oracle(family, oracle):
    table = extract_pmf(family, len(oracle) - 1)
    assert np.max(np.abs(table.masses - np.array(oracle))) < 1e-13


def test_sibuya_pmf_closed_form():
    # p (1-p)_{k-1}/k! = exp(log p + gammaln(k-p) - gammaln(1-p) - gammaln(k+1))
    p = 0.3
    table = extract_pmf(Sibuya(p), 12)
    k = np.arange(1, 13)
    pmf = np.exp(np.log(p) + gammaln(k - p) - gammaln(1 - p) - gammaln(k + 1))
    assert table.masses[0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(table.masses[1:], pmf, atol=1e-12)


def test_sibuya_pmf_frozen_values():
    # k = 1..8 at p = 1/2: 1/2, 1/8, 1/16, 5/128, ...
    table = extract_pmf(Sibuya(0.5), 8)
    frozen = [0.5, 0.125, 0.0625, 0.0390625, 0.02734375, 0.0205078125,
              0.01611328125, 0.013092041015625]
    assert np.allclose(table.masses[1:], frozen, atol=1e-12)


def test_geometric_pmf_closed_form():
    q = 0.35
    table = extract_pmf(Geometric(q), 10)
    k = np.arange(1, 11)
    assert np.allclose(table.masses[1:], q * (1 - q) ** (k - 1), atol=1e-12)
    assert table.mass_deficit == pytest.approx((1 - q) ** 10, abs=1e-10)


def test_poisson_special_case():
    lam = 3.0
    table = extract_pmf(SvhStable(lam, 1.0), 15)
    k = np.arange(16)
    pmf = np.exp(-lam + k * np.log(lam) - gammaln(k + 1))
    assert np.allclose(table.masses, pmf, atol=1e-12)


def test_table_helpers():
    table = extract_pmf(Geometric(0.5), 4)
    assert table.ks.tolist() == [0, 1, 2, 3, 4]
    assert table.atoms[1] == (1, pytest.approx(0.5, abs=1e-12))
    assert table.min_mass == pytest.approx(0.0, abs=1e-12)
    assert table.argmin_atom == 0


def test_pmf_table_validation():
    with pytest.raises(ParameterError):
        PmfTable(ks=[0, 1], masses=[0.5], mass_deficit=0.0)
    with pytest.raises(ParameterError):
        PmfTable(ks=[0], masses=[1.0], mass_deficit=1.5)


def test_residual_report_refuses_a_nan_residual():
    assert ResidualReport(0.0, 0.5, "grid").sup_residual == 0.0
    for bad in (-1.0, float("nan")):
        with pytest.raises(ParameterError, match=r"sup_residual must lie in \[0, inf\]"):
            ResidualReport(bad, 0.5, "grid")


def test_extract_pmf_argument_validation():
    with pytest.raises(ParameterError):
        extract_pmf(Geometric(0.5), 0)
    with pytest.raises(ParameterError):
        extract_pmf(Geometric(0.5), 10, radius=1.0)
    with pytest.raises(ParameterError):
        extract_pmf(object(), 10)


def test_precision_request():
    # requesting more than the certificate can give raises, the default
    # request-free call returns the table with the bound recorded
    with pytest.raises(PrecisionError):
        extract_pmf(Geometric(0.5), 400, tol=1e-12)
    table = extract_pmf(Geometric(0.5), 400)
    assert table.tol_neg > 1e-9


def test_extraction_invariant_under_settings():
    # deeper tables and a different radius reproduce the shared
    # coefficients; the noise floor at depth 50 is ~1e-13
    base = extract_pmf(FieldCitations(1.0, 0.5, 0.5), 50)
    deeper = extract_pmf(FieldCitations(1.0, 0.5, 0.5), 200)
    assert np.max(np.abs(base.masses - deeper.masses[:51])) < 1e-10
    smaller = extract_pmf(FieldCitations(1.0, 0.5, 0.5), 50, radius=0.8)
    assert np.max(np.abs(base.masses - smaller.masses)) < 1e-9


def test_cached_circle_is_read_only():
    family = FieldCitations(1.0, 0.5, 0.5)
    before = extract_pmf(family, 50)

    def scribbler(z):
        z[0] = 0.0
        return family.pgf(z)

    with pytest.raises(ValueError, match="read-only"):
        extract_pmf(scribbler, 50)
    after = extract_pmf(family, 50)
    assert np.array_equal(after.masses, before.masses)
    assert after.tol_neg == before.tol_neg


def test_thinning_pgf_table_is_clean():
    from casualstable import Example1Thin

    thin = Example1Thin(0.5, 1)
    table = extract_pmf(lambda z: thin.thin(0.3, z), 50)
    assert table.min_mass >= -1e-9
    assert table.masses.sum() + table.mass_deficit == pytest.approx(1.0, abs=1e-9)


def test_mass_accounting():
    for fam in [Geometric(0.25), Sibuya(0.5), SvhStable(1.0, 0.5)]:
        table = extract_pmf(fam, 60)
        assert table.masses.sum() + table.mass_deficit == pytest.approx(1.0, abs=1e-9)


def test_validate_pgf_accepts_true_pgf():
    report = validate_pgf(FieldCitations(1.0, 0.5, 0.5), n_max=200)
    assert report.sup_residual == 0.0
    report = validate_pgf(SvhStable(1.0, 0.3), n_max=200)
    assert report.sup_residual < 1e-8


def test_validate_pgf_flags_negative_coefficient():
    # exp(-(1-z)^2) = e^{-1} sum H_k(1) z^k / k! with Hermite H_3(1) = -4
    # and H_4(1) = -20; the most negative coefficient is -20 e^{-1}/24
    report = validate_pgf(lambda z: np.exp(-((1.0 - z) ** 2)), n_max=50)
    assert report.sup_residual == pytest.approx(20.0 * np.exp(-1.0) / 24.0, abs=1e-9)
    assert report.argmax_point == 4


def test_radial_norm_defect():
    assert radial_norm_defect(Geometric(0.5)) < 1e-5
    # a defective "pgf" that does not reach 1 at z = 1
    assert radial_norm_defect(lambda z: 0.9 * Geometric(0.5).pgf(z)) > 0.09


@pytest.mark.parametrize("n_max, part, advice, better", [
    (400, "rounding part", "raise the radius or lower n_max", 0.95),
    (20, "aliasing part", "lower the radius or raise n_max", 0.5),
])
def test_precision_error_names_the_part_that_dominates(n_max, part, advice, better):
    # Geometric(0.5) at radius 0.9: the bound is 11.4 at n_max 400, all
    # of it rounding, and 0.11 at n_max 20, all of it aliasing
    with pytest.raises(PrecisionError, match=f"its {part} .* dominates .*; {advice}$"):
        extract_pmf(Geometric(0.5), n_max, tol=1e-12)
    # the advice is right: the radius it points to tightens the bound
    table = extract_pmf(Geometric(0.5), n_max)
    assert extract_pmf(Geometric(0.5), n_max, radius=better).tol_neg < table.tol_neg / 100


@pytest.mark.parametrize("n_max", [2 ** 62, 10 ** 18, 10 ** 11])
def test_huge_n_max_is_refused_by_name(n_max):
    # 0.9^n_max underflows too: the cap is checked first, so its message stays
    for call in (fft_points, lambda n: extract_pmf(Sibuya(0.5), n), lambda n: validate_pgf(Sibuya(0.5), n)):
        with pytest.raises(ParameterError, match=f"n_max must be at most 2\\^23 = 8388608, not {n_max}"):
            call(n_max)


def test_n_max_cap_is_exact():
    # through fft_points only, which allocates nothing: a table at the cap holds 2 GiB
    assert fft_points(2 ** 23) == 2 ** 26
    with pytest.raises(ParameterError, match="n_max must be at most"):
        fft_points(2 ** 23 + 1)


# every class of p.g.f. the library extracts, on the whole circle and in blocks
_BLOCKED_CASES = {
    "svh": SvhStable(1.0, 0.5),
    "ex1-m1": Example1(1.0, 0.7, 0.3, 1),
    "ex1-m2": Example1(1.3, 0.6, 0.3, 2),
    "ex2": Example2(1.0, 1.0, 0.2),
    "geometric": Geometric(0.5),
    "sibuya": Sibuya(0.5),
    "author": AuthorCitations(0.5, 0.5),
    "field": FieldCitations(1.0, 0.5, 0.5),
    "bernoulli": lambda z: Bernoulli().thin(0.3, z),
    "ex1thin-m1": lambda z: Example1Thin(0.6, 1).thin(0.4, z),
    "ex1thin-m2": lambda z: Example1Thin(0.6, 2).thin(0.4, z),
    "ex2thin-0.5": lambda z: Example2Thin(0.5).thin(0.3, z),
    "ex2thin-m0.5": lambda z: Example2Thin(-0.5).thin(0.3, z),
    "ex2thin-0.999": lambda z: Example2Thin(0.999).thin(0.5, z),
    "closure": lambda z: np.exp(-((1.0 - z) ** 2)),
}


def _whole_circle(n_max, radius):
    n_points = fft_points(n_max)
    return radius * np.exp(2j * np.pi * np.arange(n_points) / n_points)


def _whole_circle_table(pgf, n_max, radius=0.9):
    """Masses and tol_neg from one evaluation on the whole circle and one FFT."""
    f = pgf.pgf if hasattr(pgf, "pgf") else pgf
    n_points = fft_points(n_max)
    values = np.asarray(f(_whole_circle(n_max, radius)), dtype=complex)
    masses = np.fft.fft(values).real[: n_max + 1] / n_points / radius ** np.arange(n_max + 1)
    peak = float(np.abs(values).max())
    alias = peak * radius ** n_max / (1.0 - radius ** n_max)
    rounding = 2.0 * np.finfo(float).eps * peak * np.sqrt(np.log2(n_points) / n_points) / radius ** n_max
    return masses, max(alias + rounding, 1e-9)


# 80,008 points at n_max 10,001 is not a multiple of 2^14; 0.9^10001
# underflows, so that depth is extracted on a radius near 1
_DEPTHS = [(200, 0.9), (10_001, 0.999)]


@pytest.mark.parametrize("n_max, radius", _DEPTHS)
@pytest.mark.parametrize("name", list(_BLOCKED_CASES))
def test_blocked_extraction_is_bitwise_the_whole_circle(name, n_max, radius):
    masses, tol_neg = _whole_circle_table(_BLOCKED_CASES[name], n_max, radius)
    table = extract_pmf(_BLOCKED_CASES[name], n_max, radius)
    assert np.array_equal(table.masses, masses)
    assert table.tol_neg == tol_neg


def test_blocks_below_the_elision_size_change_the_table(monkeypatch):
    # negative control: 2^13-point complex temporaries (128 KiB) are not
    # elided, so the kernel rounds differently than on the whole circle
    family = Example1(1.3, 0.6, 0.3, 2)
    masses, _ = _whole_circle_table(family, 200)
    monkeypatch.setattr(extraction, "_BLOCK_POINTS", 1 << 13)
    assert not np.array_equal(extract_pmf(family, 200).masses, masses)


@pytest.mark.parametrize("n_max, radius", _DEPTHS)
def test_pgf_sees_read_only_blocks_covering_the_circle(n_max, radius):
    seen = []

    def recorder(z):
        seen.append(z)
        return Sibuya(0.5).pgf(z)

    extract_pmf(recorder, n_max, radius)
    assert all(z.size >= 1 << 14 and not z.flags.writeable for z in seen)
    assert sum(z.size for z in seen) == fft_points(n_max)
    assert np.array_equal(np.concatenate(seen), _whole_circle(n_max, radius))


@pytest.mark.parametrize("result", [
    lambda z: 1.0,
    lambda z: np.ones(1),
    lambda z: z[:-1],
    lambda z: np.ones((2, z.size)),
], ids=["scalar", "length-1", "short", "two-rows"])
def test_pgf_result_must_have_one_value_per_point(result):
    with pytest.raises(ParameterError, match="returned shape .* on a block of 16384 points"):
        extract_pmf(result, 50)


@pytest.mark.parametrize("n_max", [6724, 10_001], ids=["subnormal", "zero"])
def test_radius_power_that_underflows_is_refused_before_evaluation(n_max):
    # 0.9^6724 is subnormal and 0.9^10001 is 0: the bound and the 1/r^k
    # scaling would be meaningless, so nothing is evaluated
    calls = []
    with pytest.raises(ParameterError, match=rf"radius \*\* n_max = 0.9 \*\* {n_max} underflows"):
        extract_pmf(lambda z: calls.append(z) or Sibuya(0.5).pgf(z), n_max)
    assert calls == []
    # negative control: the deepest normal power, 0.9^6723, and a radius near 1
    extract_pmf(Sibuya(0.5), 6723)
    extract_pmf(Sibuya(0.5), n_max, 0.999)
