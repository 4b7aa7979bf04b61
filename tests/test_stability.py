"""Residual certification: identities hold at rounding level, and the
checks are falsifiable (a 1% parameter perturbation lifts the residual
by ten orders of magnitude)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casualstable import (
    Bernoulli,
    Example1,
    Example1Thin,
    Example2,
    Example2Thin,
    FieldCitations,
    Gamma,
    ParameterError,
    SvhStable,
    TemperedStable,
    ThinningFamily,
    UnsupportedError,
)
from casualstable.stability import (
    casual_stability_residual,
    commutativity_residual,
    compose_thinning,
    default_s_grid,
    default_z_grid,
    discrete_stability_residual,
    solve_pn,
)


# ---------------------------------------------------------------------------
# identity residuals on the default grids
# ---------------------------------------------------------------------------


def test_svh_identity_at_rounding_level():
    # p(4) = 4^(-1/0.5) = 0.0625 exactly
    report = discrete_stability_residual(SvhStable(1.0, 0.5), Bernoulli(), 4, 0.0625)
    assert report.sup_residual < 1e-12
    assert "n=4" in report.grid_spec


def test_example1_identity_at_rounding_level():
    family = Example1(1.0, 0.7, 0.3, 1)
    thinning = Example1Thin(0.3, 1)
    p = solve_pn(family, thinning, 4)
    report = discrete_stability_residual(family, thinning, 4, p)
    assert report.sup_residual < 1e-12


def test_example2_identity_at_rounding_level():
    # gamma = 1 gives p(3) = 1/3 exactly
    report = discrete_stability_residual(
        Example2(1.0, 1.0, 0.2), Example2Thin(0.2), 3, 1.0 / 3.0
    )
    assert report.sup_residual < 1e-12


def test_identity_is_trivial_at_n_equals_one():
    report = discrete_stability_residual(SvhStable(2.0, 0.8), Bernoulli(), 1, 1.0)
    assert report.sup_residual == 0.0


def test_casual_identity_gamma():
    assert casual_stability_residual(Gamma(0.5, 2.0), 7).sup_residual < 1e-12
    assert casual_stability_residual(Gamma(2.0, 0.5), 100).sup_residual < 1e-12


def test_casual_identity_tempered_stable():
    assert casual_stability_residual(TemperedStable(1.0, 0.5, 1.0), 5).sup_residual < 1e-12
    assert casual_stability_residual(TemperedStable(0.5, 1.0 / 3.0, 2.0), 50).sup_residual < 1e-12


# ---------------------------------------------------------------------------
# solver: closed forms, admissibility, unmatched pairs
# ---------------------------------------------------------------------------


def test_solve_pn_closed_forms():
    # matched pairs use p(n) = n^(-1/exponent)
    assert solve_pn(SvhStable(1.0, 0.5), Bernoulli(), 9) == 0.012345679012345678  # 9^(-2)
    assert solve_pn(Example2(1.0, 1.0, 0.2), Example2Thin(0.2), 5) == 0.2
    assert solve_pn(FieldCitations(1.0, 0.5, 0.5), Example1Thin(0.5, 1), 4) == 0.0625
    assert solve_pn(SvhStable(1.0, 0.5), Example1Thin(0.0, 1), 4) == 0.0625
    assert solve_pn(SvhStable(3.0, 0.7), Bernoulli(), 1) == 1.0


def test_matched_pairs_live_on_the_families():
    assert SvhStable(1.0, 0.5).matched_pairs() == ((Bernoulli(), 0.5), (Example1Thin(0.0, 1), 0.5))
    assert FieldCitations(1.0, 0.5, 0.3).matched_pairs() == ((Example1Thin(0.7, 1), 0.5),)
    # kappa = 0 has no m = 2 normalizer: unmatched, so there is no p(n)
    family = Example1(1.0, 0.6, 0.0, 2)
    assert family.matched_pairs() == ()
    with pytest.raises(UnsupportedError, match="not a matched thinning"):
        solve_pn(family, Bernoulli(), 2)


def test_example1_at_kappa_zero_reports_the_svh_pairs():
    assert Example1(1.0, 0.6, 0.0, 1).matched_pairs() == SvhStable(1.0, 0.6).matched_pairs()
    assert Example1(1.0, 0.6, 0.0, 1).matched_pairs() == ((Bernoulli(), 0.6), (Example1Thin(0.0, 1), 0.6))
    assert Example1(1.0, 0.6, 0.3, 1).matched_pairs() == ((Example1Thin(0.3, 1), 0.6),)


def test_solve_pn_rejects_bad_n():
    with pytest.raises(ParameterError, match="integer >= 1"):
        solve_pn(SvhStable(1.0, 0.5), Bernoulli(), 0)
    with pytest.raises(ParameterError, match="integer >= 1"):
        solve_pn(SvhStable(1.0, 0.5), Bernoulli(), 2.5)


def test_solve_pn_inadmissible_when_pn_exceeds_kappa():
    # m = 2 needs p < kappa; 2^(-1/0.4) = 0.177 > 0.1
    with pytest.raises(ParameterError, match=r"\(0, kappa\)"):
        solve_pn(Example1(1.0, 0.4, 0.1, 2), Example1Thin(0.1, 2), 2)


def test_solve_pn_fallback_recovers_disguised_match():
    # Example1 with kappa = 0, m = 1 is SvhStable with alpha = gamma, so
    # it reports the Bernoulli pair and p(n) has the closed form
    family = Example1(1.0, 0.6, 0.0, 1)
    p = solve_pn(family, Bernoulli(), 4)
    assert isinstance(p, float)
    assert abs(p - 4.0 ** (-1.0 / 0.6)) < 1e-9
    assert discrete_stability_residual(family, Bernoulli(), 4, p).sup_residual < 1e-9


@pytest.mark.parametrize(
    "family, thinning, n",
    [(Example2(1.0, 0.01, 0.0), Example2Thin(0.0), 40), (SvhStable(1.0, 0.01), Bernoulli(), 1100)],
    ids=["ex2", "svh"],
)
def test_underflowing_thinned_complement_is_refused(family, thinning, n):
    # p(n) is a normal float64, but 1 - Q_p(z) is subnormal somewhere on the
    # grid, where P(Q_p(z)) would read as P(1) = 1
    p = solve_pn(family, thinning, n)
    with pytest.raises(ParameterError, match=f"underflows at n = {n}, p = {p!r}"):
        discrete_stability_residual(family, thinning, n, p)
    with pytest.raises(ParameterError, match=f"underflows at n = {n}"):  # in a sweep as well
        discrete_stability_residual(family, thinning, [2, n], [solve_pn(family, thinning, 2), p])


def test_perturbed_pn_lifts_residual():
    # negative control: the certificate must not pass vacuously
    family = SvhStable(1.0, 0.5)
    p = solve_pn(family, Bernoulli(), 10)
    assert discrete_stability_residual(family, Bernoulli(), 10, p).sup_residual < 1e-12
    perturbed = discrete_stability_residual(family, Bernoulli(), 10, 1.01 * p)
    assert perturbed.sup_residual > 1e-4


# ---------------------------------------------------------------------------
# n-sweeps: one call, one report per (n, p) pair
# ---------------------------------------------------------------------------

# each family with its first matched thinning
SWEEP_FAMILIES = {
    "svh-bernoulli": SvhStable(1.3, 0.6),
    "ex1-m2": Example1(0.8, 0.5, 0.7, 2),
    "ex2": Example2(2.0, 0.8, 0.3),
    "field-citations": FieldCitations(5.0, 0.5, 0.3),
}


def sweep_inputs(family, ns=range(2, 31)):
    thinning = family.matched_pairs()[0][0]
    ns = list(ns)
    return thinning, ns, [solve_pn(family, thinning, n) for n in ns]


def report_bits(report):
    return report.sup_residual.hex(), report.argmax_point.hex(), report.grid_spec


@pytest.mark.parametrize("grid", [None, np.linspace(0.05, 0.999, 517)], ids=["default", "custom"])
@pytest.mark.parametrize("name", SWEEP_FAMILIES)
def test_sweep_equals_the_scalar_loop_bitwise(name, grid):
    family = SWEEP_FAMILIES[name]
    thinning, ns, ps = sweep_inputs(family)
    sweep = discrete_stability_residual(family, thinning, ns, ps, grid)
    loop = [discrete_stability_residual(family, thinning, n, p, grid) for n, p in zip(ns, ps)]
    assert [report_bits(r) for r in sweep] == [report_bits(r) for r in loop]


def test_sweep_perturbation_lifts_only_its_own_report():
    # negative control: a 1% error in one p(n) shows in that report alone
    family = SvhStable(1.0, 0.5)
    thinning, ns, ps = sweep_inputs(family, range(2, 21))
    ps[7] *= 1.01
    sups = [r.sup_residual for r in discrete_stability_residual(family, thinning, ns, ps)]
    assert sups[7] > 1e-4
    assert max(sups[:7] + sups[8:]) < 1e-12


@pytest.mark.parametrize(
    "ns, ps",
    [([2, 3], [0.25]), ([2], [0.25, 0.1]), ([2, 3], 0.25), (2, [0.25])],
    ids=["short-p", "short-n", "scalar-p", "scalar-n"],
)
def test_sweep_needs_equal_length_sequences(ns, ps):
    with pytest.raises(ParameterError, match="equal length"):
        discrete_stability_residual(SvhStable(1.0, 0.5), Bernoulli(), ns, ps)


@pytest.mark.parametrize("position", [0, 5, 9])
@pytest.mark.parametrize("bad", [0, 2.5])
def test_sweep_checks_every_n_before_evaluating(bad, position):
    family = SvhStable(1.0, 0.5)
    thinning, ns, ps = sweep_inputs(family, range(2, 12))
    ns[position] = bad
    with mock.patch.object(SvhStable, "pgf_from_complement", side_effect=AssertionError("evaluated")) as kernel:
        with pytest.raises(ParameterError, match="integer >= 1"):
            discrete_stability_residual(family, thinning, ns, ps)
    assert kernel.call_count == 0


# ---------------------------------------------------------------------------
# semigroup structure: commutativity and composition
# ---------------------------------------------------------------------------

admissible_p = st.floats(min_value=0.05, max_value=0.95)


@settings(max_examples=40, deadline=None)
@given(p1=admissible_p, p2=admissible_p, kappa=st.floats(min_value=0.0, max_value=0.9))
def test_example1_thinning_commutes(p1, p2, kappa):
    report = commutativity_residual(Example1Thin(kappa, 1), p1, p2)
    assert report.sup_residual < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    p1=st.floats(min_value=0.05, max_value=0.95),
    p2=st.floats(min_value=0.05, max_value=0.95),
    kappa=st.floats(min_value=0.2, max_value=0.9),
)
def test_example1_thinning_commutes_m2(p1, p2, kappa):
    # m = 2 admissibility: scale the parameters into (0, kappa)
    report = commutativity_residual(Example1Thin(kappa, 2), p1 * kappa, p2 * kappa)
    assert report.sup_residual < 1e-12


@settings(max_examples=40, deadline=None)
@given(p1=admissible_p, p2=admissible_p, b=st.floats(min_value=-0.9, max_value=0.9))
def test_example2_thinning_commutes(p1, p2, b):
    report = commutativity_residual(Example2Thin(b), p1, p2)
    assert report.sup_residual < 1e-12


def test_compose_thinning_recovers_product():
    cases = [
        (Bernoulli(), 0.6, 0.3),
        (Example1Thin(0.4, 1), 0.7, 0.5),
        (Example1Thin(0.6, 2), 0.5, 0.4),
        (Example2Thin(-0.3), 0.8, 0.25),
    ]
    for thinning, p1, p2 in cases:
        p_eff, fit = compose_thinning(thinning, p1, p2)
        assert abs(p_eff - p1 * p2) < 1e-9
        assert fit < 1e-9


def scaled_thinning_p(thinning, fraction: float) -> float:
    """fraction of the top of the thinning's domain, kept below an open top."""
    domain = thinning.p_domain()
    return fraction * domain.hi * (1.0 if domain.ends[1] == "]" else 0.95)


any_thinning = st.one_of(
    st.just(Bernoulli()),
    st.builds(Example1Thin, st.floats(0.0, 0.95), st.just(1)),
    st.builds(Example1Thin, st.floats(0.05, 0.95), st.integers(2, 4)),
    st.builds(Example2Thin, st.floats(-0.9, 0.9)),
)


@settings(max_examples=200, deadline=None)
@given(thinning=any_thinning, f1=st.floats(0.01, 1.0), f2=st.floats(0.01, 1.0))
def test_compose_thinning_is_exact(thinning, f1, f2):
    # measured over 5,000 examples: |p_eff - p1 p2| <= 2 ulps of p1 p2 and a
    # fit residual <= 3.9e-15 (Example2Thin at b = 0.9, p1 and p2 near 1)
    p1, p2 = scaled_thinning_p(thinning, f1), scaled_thinning_p(thinning, f2)
    p_eff, fit = compose_thinning(thinning, p1, p2)
    assert abs(p_eff - p1 * p2) <= 4.0 * np.spacing(p1 * p2)
    assert fit <= 1e-14


class SquaringThinning(ThinningFamily):
    """1 - Q_p(z) = p u^2: Q_p1 o Q_p2 = p1 p2^2 u^4 is no Q_p, so no semigroup."""

    def complement_map(self, p, u):
        self.check_p(p)
        return p * u ** 2

    def coordinate(self, u):
        return u


def test_compose_thinning_reports_non_closure_as_a_residual():
    p_eff, fit = compose_thinning(SquaringThinning(), 0.5, 0.5)
    assert 0.0 < p_eff < 1.0 and fit > 1e-9


def test_compose_thinning_skips_z_one():
    grid = np.append(default_z_grid(), 1.0)
    for thinning in (Bernoulli(), Example1Thin(0.6, 2), Example2Thin(-0.3)):
        p_eff, fit = compose_thinning(thinning, 0.5, 0.4, grid)
        assert abs(p_eff - 0.2) <= 4.0 * np.spacing(0.2) and fit <= 1e-15
    with pytest.raises(ParameterError, match="z != 1"):
        compose_thinning(Bernoulli(), 0.5, 0.4, [1.0])


def test_sweep_report_text_does_not_depend_on_the_input_type():
    family, ns = SvhStable(1.0, 0.5), np.arange(2, 5)
    ps = 1.0 / ns.astype(float) ** 2
    arrays = discrete_stability_residual(family, Bernoulli(), ns, ps)
    lists = discrete_stability_residual(family, Bernoulli(), ns.tolist(), ps.tolist())
    assert [r.grid_spec for r in arrays] == [r.grid_spec for r in lists]
    assert arrays[0].grid_spec.endswith("n=2, p=0.25")
    scalars = commutativity_residual(Bernoulli(), np.float64(0.5), np.float64(0.25))
    assert scalars.grid_spec == commutativity_residual(Bernoulli(), 0.5, 0.25).grid_spec


# ---------------------------------------------------------------------------
# grids and input validation
# ---------------------------------------------------------------------------


def test_default_grids():
    z = default_z_grid()
    assert z[0] == 0.0 and z[-1] == 1.0 - 1e-6 and z.size == 2001
    s = default_s_grid()
    assert np.isclose(s[0], 1e-3) and np.isclose(s[-1], 1e3) and s.size == 200


def test_z_grid_refinement_leaves_residual_unchanged():
    family = SvhStable(1.0, 0.5)
    p = solve_pn(family, Bernoulli(), 10)
    coarse = discrete_stability_residual(family, Bernoulli(), 10, p).sup_residual
    fine_grid = np.linspace(0.0, 1.0 - 1e-6, 4001)
    fine = discrete_stability_residual(family, Bernoulli(), 10, p, fine_grid).sup_residual
    assert abs(coarse - fine) < 1e-10


def test_s_grid_refinement_leaves_residual_unchanged():
    coarse = casual_stability_residual(Gamma(0.5, 2.0), 7).sup_residual
    fine = casual_stability_residual(Gamma(0.5, 2.0), 7, np.logspace(-3, 3, 400)).sup_residual
    assert abs(coarse - fine) < 1e-9


def test_residual_checkers_reject_mismatched_objects():
    with pytest.raises(ParameterError, match="not a p.g.f. family"):
        discrete_stability_residual(Gamma(1.0, 1.0), Bernoulli(), 2, 0.5)
    with pytest.raises(ParameterError, match="not a thinning family"):
        discrete_stability_residual(SvhStable(1.0, 0.5), SvhStable(1.0, 0.5), 2, 0.5)
    with pytest.raises(ParameterError, match="not a Laplace family"):
        casual_stability_residual(SvhStable(1.0, 0.5), 2)
    with pytest.raises(ParameterError, match="not a thinning family"):
        commutativity_residual(Gamma(1.0, 1.0), 0.5, 0.5)
    with pytest.raises(ParameterError, match="nonempty"):
        discrete_stability_residual(SvhStable(1.0, 0.5), Bernoulli(), 2, 0.5, [])


@pytest.mark.parametrize(
    "call",
    [
        lambda grid: discrete_stability_residual(SvhStable(1.0, 0.5), Bernoulli(), 2, 0.5, grid),
        lambda grid: casual_stability_residual(Gamma(1.0, 1.0), 2, grid),
        lambda grid: commutativity_residual(Bernoulli(), 0.5, 0.5, grid),
        lambda grid: compose_thinning(Bernoulli(), 0.5, 0.5, grid),
    ],
    ids=["discrete", "casual", "commutativity", "compose"],
)
def test_empty_grid_is_refused(call):
    for grid in ([], [float("nan"), 0.5]):
        with pytest.raises(ParameterError, match="grid must be nonempty|grid point must lie in"):
            call(grid)


@pytest.mark.parametrize(
    "call",
    [
        lambda grid: discrete_stability_residual(SvhStable(1.0, 0.5), Bernoulli(), 2, 0.5, grid),
        lambda grid: commutativity_residual(Bernoulli(), 0.5, 0.5, grid),
        lambda grid: compose_thinning(Bernoulli(), 0.5, 0.5, grid),
    ],
    ids=["discrete", "commutativity", "compose"],
)
def test_z_grid_outside_the_unit_interval_is_refused_by_name(call):
    for grid in ([0.0, 1.5], [-1.0 - 1e-15, 0.5]):
        with pytest.raises(ParameterError, match=r"z grid point must lie in \[-1, 1\]"):
            call(grid)
    call([-1.0, 0.0, 1.0])  # both ends belong to the domain
