"""Limit-theorem harness: the two sufficient conditions, the inverse
normalizer, and transform-domain convergence of normalized sums."""

import warnings

import mpmath
import numpy as np
import pytest

from casualstable import Gamma, ParameterError, SvhStable, TemperedStable
from casualstable.convergence import (
    condition_a,
    condition_b,
    convergence_curve,
    default_conv_grid,
    g_inverse,
    matched_exponential,
    normalized_sum_transform,
)


def nested_refinement(s, factor=2):
    lo, hi = np.log10(s[0]), np.log10(s[-1])
    return np.logspace(lo, hi, factor * (s.size - 1) + 1)


# ---------------------------------------------------------------------------
# normalized sum transform
# ---------------------------------------------------------------------------


def test_normalized_sum_of_the_fixed_point_is_the_fixed_point():
    s = default_conv_grid()
    for family in [Gamma(1.0, 2.0), TemperedStable(1.0, 0.5, 1.0)]:
        for n in [1, 7, 100]:
            out = normalized_sum_transform(family.laplace, family, n, s)
            assert np.max(np.abs(out - family.laplace(s))) < 1e-12


def test_normalized_sum_at_n_equals_one_is_h_itself():
    # g_1 is the identity up to the expm1/log1p round trip (1 ulp)
    family = Gamma(1.0, 2.0)
    h = matched_exponential(family)
    s = default_conv_grid()
    out = normalized_sum_transform(h, family, 1, s)
    assert np.max(np.abs(out - h(s))) < 1e-15


def test_normalized_sum_double_evaluation():
    # independent re-derivation: for the Gamma normalizer,
    # -log g_n(s) = ((1+bs)^(1/n) - 1)/b, so the transform at s = 1 is
    # h(((1+b)^(1/n) - 1)/b)^n
    family = Gamma(1.0, 2.0)
    h = matched_exponential(family)
    value = float(normalized_sum_transform(h, family, 10, np.array([1.0]))[0])
    rederived = (1.0 / (1.0 + 2.0 * ((1.0 + 1.0) ** 0.1 - 1.0))) ** 10
    assert abs(value - rederived) < 1e-15
    assert abs(value - 0.2614930168754404) < 1e-15


def test_normalized_sum_rejects_bad_n():
    family = Gamma(1.0, 2.0)
    with pytest.raises(ParameterError, match="integer >= 1"):
        normalized_sum_transform(family.laplace, family, 0, np.array([1.0]))


# ---------------------------------------------------------------------------
# condition (a)
# ---------------------------------------------------------------------------


def test_condition_a_vanishes_for_the_target_itself():
    family = Gamma(1.0, 2.0)
    assert condition_a(family.laplace, family, 2.0) == 0.0


def test_condition_a_matched_mean_is_finite():
    # h - L = b^2 g (g-1)/2 s^2 + O(s^3) when h matches the mean bg, so
    # |h-L|/s^2 approaches 1.0 for b=1, g=2 as s -> 0 and the grid sup
    # sits just below that limit
    family = Gamma(1.0, 2.0)
    value = condition_a(matched_exponential(family), family, 2.0)
    assert 0.95 < value <= 1.0


def test_condition_a_mismatched_mean_diverges_with_the_grid():
    # means differ => |h-L| ~ c s, so the sup grows by ~100x when the
    # grid extends two more decades toward 0
    family = Gamma(1.0, 2.0)

    def h(s):
        return 1.0 / (1.0 + 4.0 * np.asarray(s, dtype=float))

    near = condition_a(h, family, 2.0, np.logspace(-4, 0, 100))
    far = condition_a(h, family, 2.0, np.logspace(-6, 0, 100))
    assert far > 50.0 * near


def test_condition_a_rejects_nonpositive_exponent():
    family = Gamma(1.0, 2.0)
    with pytest.raises(ParameterError, match=r"a must lie in \(0, inf\)"):
        condition_a(family.laplace, family, 0.0)


@pytest.mark.parametrize("a", [0.0, -1.0, float("inf"), float("nan")])
def test_every_entry_point_refuses_a_bad_exponent(a):
    family = Gamma(1.0, 2.0)
    for call in (
        lambda: condition_a(family.laplace, family, a),
        lambda: condition_b(family, a, [2, 4]),
        lambda: convergence_curve(family.laplace, family, [2], a=a),
    ):
        with pytest.raises(ParameterError, match=r"a must lie in \(0, inf\)"):
            call()


@pytest.mark.parametrize("grid", [[], [0.0, 1.0], [float("nan"), 1.0], [1.0, float("inf")]])
def test_caller_grid_must_be_positive_and_finite(grid):
    family = Gamma(1.0, 2.0)
    with pytest.raises(ParameterError, match=r"s grid must be nonempty|s grid point must lie in \(0, inf\)"):
        condition_b(family, 2.0, [2], grid)


# ---------------------------------------------------------------------------
# condition (b) and the inverse normalizer
# ---------------------------------------------------------------------------


def test_condition_b_bounded_by_one_over_n():
    # (1+bs)^n - 1 >= nbs gives n (s/g_inv)^a <= n^(1-a) = 1/n at a = 2
    values = condition_b(Gamma(1.0, 1.0), 2.0, [2, 4, 8, 16])
    for n, value in zip([2, 4, 8, 16], values):
        assert value <= 1.0 / n
    assert all(b < a for a, b in zip(values, values[1:]))


def test_condition_b_trivial_at_n_equals_one():
    # g_1^{-1}(e^{-s}) = s, so the ratio is identically 1
    values = condition_b(Gamma(1.0, 1.0), 2.0, [1])
    assert abs(values[0] - 1.0) < 1e-12


def test_condition_b_matches_closed_form_pointwise():
    # reference (1+bs)^n - 1 evaluated in extended precision: the double
    # version loses ~4 digits to cancellation at the small-s edge
    family = Gamma(1.0, 1.0)
    s = default_conv_grid()
    for n in [2, 7, 100]:
        ginv = g_inverse(family, n, s)
        mine = n * (s / ginv) ** 2.0
        sl = s.astype(np.longdouble)
        ref = np.asarray(n * sl ** 2 / ((1.0 + sl) ** n - 1.0) ** 2, dtype=float)
        mask = np.isfinite(ginv) & (ref > 1e-300)
        assert np.max(np.abs(mine[mask] - ref[mask]) / ref[mask]) < 1e-12


def test_g_inverse_gamma_closed_forms():
    family = Gamma(1.0, 1.0)
    s = default_conv_grid()
    assert np.max(np.abs(g_inverse(family, 1, s) - s) / s) < 1e-14
    assert abs(float(g_inverse(family, 2, np.array([1.0]))[0]) - 3.0) < 1e-14


def test_g_inverse_tempered_stable_bisection_matches_closed_form():
    # -log g_n(x) = s solves in closed form:
    # x = h ((1 + n ((1+s/h)^alpha - 1))^(1/alpha) - 1); g_inverse
    # evaluates it through expm1/log1p, checked here against plain powers
    family = TemperedStable(1.0, 0.5, 1.0)
    s = default_conv_grid()
    x = g_inverse(family, 5, s)
    closed = family.h * (
        (1.0 + 5 * ((1.0 + s / family.h) ** family.alpha - 1.0)) ** (1.0 / family.alpha)
        - 1.0
    )
    assert np.max(np.abs(x - closed) / closed) < 1e-10


ORACLE_ALPHAS = (1.0 / 2.0, 1.0 / 3.0, 1.0 / 5.0, 1.0 / 10.0)
ORACLE_HS = (0.1, 1.0, 10.0)
ORACLE_NS = (1, 2, 7, 128, 10 ** 5)
ORACLE_S = np.append(default_conv_grid()[::9], default_conv_grid()[-1])
ORACLE_ULPS = 8


def _oracle_excess(inverse, family) -> float:
    """Largest relative error against mpmath over ORACLE_NS x ORACLE_S,
    in units of its bound: ORACLE_ULPS ulps times 1 + y, which bounds the
    condition number y e^y / (e^y - 1) of the last step expm1(y),
    y = log1p(n d)/alpha; the earlier steps each amplify by at most
    about 1.  Above 1 means the check fails."""
    eps = np.finfo(float).eps
    worst = 0.0
    with mpmath.workdps(40):
        alpha, h = mpmath.mpf(family.alpha), mpmath.mpf(family.h)
        for n in ORACLE_NS:
            for value, s in zip(inverse(family, n, ORACLE_S), ORACLE_S):
                w = n * ((1 + mpmath.mpf(s) / h) ** alpha - 1)
                ref = h * mpmath.expm1(mpmath.log1p(w) / alpha)
                bound = ORACLE_ULPS * eps * (1 + float(mpmath.log1p(w) / alpha))
                worst = max(worst, float(abs(mpmath.mpf(value) - ref) / ref) / bound)
    return worst


def _wrong_exponent(family, n, s):
    # mutant: alpha where 1/alpha belongs
    d = np.expm1(family.alpha * np.log1p(s / family.h))
    return family.h * np.expm1(np.log1p(n * d) * family.alpha)


def _wrong_multiplier(family, n, s):
    # mutant: (n-1) d where n d belongs
    d = np.expm1(family.alpha * np.log1p(s / family.h))
    return family.h * np.expm1(np.log1p((n - 1) * d) / family.alpha)


def _alpha_id(alpha):
    return f"alpha=1/{round(1 / alpha)}"


@pytest.mark.parametrize("h", ORACLE_HS, ids=lambda h: f"h={h:g}")
@pytest.mark.parametrize("alpha", ORACLE_ALPHAS, ids=_alpha_id)
def test_g_inverse_tempered_stable_matches_mpmath(alpha, h):
    assert _oracle_excess(g_inverse, TemperedStable(1.0, alpha, h)) <= 1.0


@pytest.mark.parametrize("mutant", [_wrong_exponent, _wrong_multiplier], ids=["alpha-for-1/alpha", "n-1-for-n"])
@pytest.mark.parametrize("alpha", ORACLE_ALPHAS, ids=_alpha_id)
def test_g_inverse_oracle_catches_mutants(alpha, mutant):
    assert _oracle_excess(mutant, TemperedStable(1.0, alpha, 1.0)) > 1.0


@pytest.mark.parametrize("family", [Gamma(1.0, 1.0), TemperedStable(1.0, 0.1, 0.1)], ids=["gamma", "ts"])
def test_g_inverse_overflows_to_inf_quietly(family):
    # n = 1e5 at s = 1e300 leaves the double range on both branches; the
    # inverse is inf, no RuntimeWarning escapes, and condition (b) reads
    # the inf as a zero contribution
    s = np.array([1e-6, 1e300, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = g_inverse(family, 10 ** 5, s)
        (b_value,) = condition_b(family, 2.0, [10 ** 5], s)
    assert np.isfinite(x[0]) and np.all(np.isinf(x[1:]))
    assert np.isfinite(b_value)


def test_g_inverse_round_trip():
    s = default_conv_grid()
    families = [
        Gamma(1.0, 2.0),
        Gamma(0.5, 2.0),
        TemperedStable(1.0, 0.5, 1.0),
        TemperedStable(0.5, 1.0 / 3.0, 2.0),
    ]
    for family in families:
        for n in [1, 2, 7, 100]:
            x = g_inverse(family, n, s)
            finite = np.isfinite(x)
            round_trip = np.exp(-family.neg_log_gfun(n, x[finite]))
            assert np.max(np.abs(round_trip - np.exp(-s[finite]))) < 1e-10


def test_g_inverse_rejects_bad_input():
    family = Gamma(1.0, 1.0)
    for s in (0.0, float("nan")):
        with pytest.raises(ParameterError, match=r"s must lie in \(0, inf\)"):
            g_inverse(family, 2, np.array([s]))
    with pytest.raises(ParameterError, match="integer >= 1"):
        g_inverse(family, 0, np.array([1.0]))
    with pytest.raises(ParameterError, match="not a Laplace family"):
        g_inverse(SvhStable(1.0, 0.5), 2, np.array([1.0]))


# ---------------------------------------------------------------------------
# convergence curves
# ---------------------------------------------------------------------------


def test_curve_decreases_at_the_expected_rate():
    # matched exponential vs Gamma(1, 2): distance halves with each
    # doubling of n once n >= 16 (the n^(1-a) = 1/n regime)
    family = Gamma(1.0, 2.0)
    h = matched_exponential(family)
    ns = [2, 4, 8, 16, 32, 64, 128, 256]
    curve = dict(convergence_curve(h, family, ns))
    assert all(curve[b] < curve[a] for a, b in zip(ns, ns[1:]))
    for n in [16, 32, 64, 128]:
        assert curve[2 * n] / curve[n] <= 0.6
    assert curve[256] < 1e-3


def test_curve_is_flat_for_the_fixed_point():
    family = Gamma(1.0, 2.0)
    curve = convergence_curve(family.laplace, family, [2, 10, 100])
    assert all(distance < 1e-12 for _, distance in curve)


def test_curve_at_n_equals_one_is_the_plain_sup_distance():
    family = Gamma(1.0, 2.0)
    h = matched_exponential(family)
    s = default_conv_grid()
    ((n, distance),) = convergence_curve(h, family, [1], s)
    assert n == 1
    assert distance == float(np.max(np.abs(h(s) - family.laplace(s))))


def test_curve_warns_on_mismatched_mean():
    family = Gamma(1.0, 2.0)

    def h(s):
        return 1.0 / (1.0 + 4.0 * np.asarray(s, dtype=float))

    with pytest.warns(UserWarning, match=r"condition \(a\)"):
        convergence_curve(h, family, [2, 4])


def test_curve_is_quiet_when_conditions_hold():
    family = Gamma(1.0, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        convergence_curve(matched_exponential(family), family, [2, 4])


@pytest.mark.parametrize("ns", [[2.5, 4], ["3", 4]], ids=["fraction", "text"])
def test_curve_refuses_a_non_count_n(ns):
    # int(n) once read 2.5 as 2 and '3' as 3, labelling rows with an n never asked for
    family = Gamma(1.0, 2.0)
    with pytest.raises(ParameterError, match="integer >= 1"):
        convergence_curve(matched_exponential(family), family, ns)


@pytest.mark.parametrize("ns", [[2, 4], [2.0, 4]], ids=["int", "integral-float"])
def test_curve_reads_an_integral_n_as_before(ns):
    # negative control for the refusal above: both label their rows with int n
    family = Gamma(1.0, 2.0)
    curve = convergence_curve(matched_exponential(family), family, ns)
    assert curve == [(2, 0.05412794851641706), (4, 0.030074137734029532)]
    assert all(type(n) is int for n, _ in curve)


# ---------------------------------------------------------------------------
# grid robustness
# ---------------------------------------------------------------------------


def test_edge_attained_sups_are_grid_stable():
    # conditions (a) and (b) peak at the small-s grid edge, which a
    # nested refinement preserves, so the sups do not move
    family = Gamma(1.0, 2.0)
    h = matched_exponential(family)
    s = default_conv_grid()
    fine = nested_refinement(s)
    assert abs(condition_a(h, family, 2.0, s) - condition_a(h, family, 2.0, fine)) < 1e-9
    coarse_b = condition_b(family, 2.0, [2, 256], s)
    fine_b = condition_b(family, 2.0, [2, 256], fine)
    assert max(abs(a - b) for a, b in zip(coarse_b, fine_b)) < 1e-9


def test_fixed_point_curve_is_grid_stable():
    family = Gamma(1.0, 2.0)
    s = default_conv_grid()
    coarse = dict(convergence_curve(family.laplace, family, [2, 100], s))
    fine = dict(convergence_curve(family.laplace, family, [2, 100], nested_refinement(s)))
    assert all(abs(coarse[n] - fine[n]) < 1e-9 for n in coarse)


def test_distance_sup_has_quadratic_grid_sensitivity():
    # the h != L distance peaks in the grid interior, so the grid sup
    # carries an O((grid spacing)^2) sampling error of order 1e-6; only
    # edge-attained sups are grid-exact (see the two tests above)
    family = Gamma(1.0, 2.0)
    h = matched_exponential(family)
    s = default_conv_grid()
    ns = [2, 16, 256]
    coarse = dict(convergence_curve(h, family, ns, s))
    fine = dict(convergence_curve(h, family, ns, nested_refinement(s, 4)))
    assert all(abs(coarse[n] - fine[n]) < 1e-4 for n in ns)
    # refinement can only raise a nested-grid sup
    assert all(fine[n] >= coarse[n] for n in ns)
