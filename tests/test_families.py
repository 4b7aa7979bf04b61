"""Parameter validation and closed-form values of the distribution families."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casualstable import citations, extraction, families, samplers
from casualstable import (
    FieldSim,
    PmfTable,
    Seed,
    AuthorCitations,
    Bernoulli,
    Example1,
    Example1Thin,
    Example2,
    Example2Thin,
    FieldCitations,
    Gamma,
    Geometric,
    ParameterError,
    Sibuya,
    SvhStable,
    TemperedStable,
)
from casualstable.stability import default_z_grid
from reference import as_example1

Z = np.linspace(0.0, 1.0, 41)


def test_svh_rejects_alpha_above_one():
    with pytest.raises(ParameterError, match="cannot be greater than 1"):
        SvhStable(1.0, 1.5)


@pytest.mark.parametrize(
    "ctor",
    [
        lambda: SvhStable(0.0, 0.5),
        lambda: SvhStable(1.0, 0.0),
        lambda: Example1(1.0, 0.5, 1.0, 1),
        lambda: Example1(1.0, 0.5, -0.1, 1),
        lambda: Example1(1.0, 0.5, 0.3, 0),
        lambda: Example1(1.0, 1.2, 0.3, 1),
        lambda: Example2(1.0, 2.5, 0.0),
        lambda: Example2(1.0, 1.0, 1.0),
        lambda: Example2(1.0, 1.0, -1.0),
        lambda: Geometric(0.0),
        lambda: Sibuya(1.1),
        lambda: AuthorCitations(0.5, 1.2),
        lambda: FieldCitations(-1.0, 0.5, 0.5),
        lambda: Example1Thin(0.0, 2),
        lambda: Example1Thin(1.0, 2),
        lambda: Gamma(0.0, 1.0),
        lambda: Gamma(1.0, -1.0),
        lambda: TemperedStable(1.0, 0.4, 1.0),
        lambda: TemperedStable(1.0, 0.5, 0.0),
    ],
)
def test_invalid_parameters_raise(ctor):
    with pytest.raises(ParameterError):
        ctor()


# one valid instance of every family class the module exports
VALID = [
    SvhStable(1.0, 0.5),
    Example1(1.0, 0.5, 0.3, 2),
    Example2(1.0, 1.0, 0.0),
    Geometric(0.5),
    Sibuya(0.5),
    AuthorCitations(0.5, 0.5),
    FieldCitations(1.0, 0.5, 0.5),
    Bernoulli(),
    Example1Thin(0.3, 1),
    Example2Thin(0.0),
    Gamma(1.0, 2.0),
    TemperedStable(1.0, 0.5, 1.0),
]
FLOAT_FIELDS = [
    (family, field.name)
    for family in VALID
    for field in dataclasses.fields(family)
    if field.type == "float"
]


def test_valid_instances_cover_every_family_class():
    exported = [getattr(families, name) for name in families.__all__]
    assert {type(family) for family in VALID} == {cls for cls in exported if dataclasses.is_dataclass(cls)}


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize(
    "family, name", FLOAT_FIELDS, ids=[f"{type(f).__name__}.{name}" for f, name in FLOAT_FIELDS]
)
def test_non_finite_float_field_raises(family, name, value):
    with pytest.raises(ParameterError, match=f"{name} must be finite"):
        dataclasses.replace(family, **{name: value})


KIND_METHODS = {
    "pgf_from_complement": families.PgfFamily,
    "complement_map": families.ThinningFamily,
    "log_laplace": families.LaplaceFamily,
}


def kind_strays(classes) -> list[tuple[str, str]]:
    """(class, method) for each class that defines a kind's method but is not of that kind."""
    return [
        (cls.__name__, method)
        for cls in classes
        for method, kind in KIND_METHODS.items()
        if hasattr(cls, method) and not issubclass(cls, kind)
    ]


def test_every_family_is_of_its_kind():
    exported = [getattr(families, name) for name in families.__all__]
    assert kind_strays(exported) == []


def test_kind_guard_sees_a_class_outside_its_kind():
    # negative control: a p.g.f. kernel without the p.g.f. base class
    class Stray:
        def pgf_from_complement(self, u):
            return 1.0 - u

    assert kind_strays([Stray]) == [("Stray", "pgf_from_complement")]


@pytest.mark.parametrize("n", [0, -3, 2.5, float("inf"), float("-inf"), float("nan"), "3"])
def test_check_n_refuses_every_non_count(n):
    with pytest.raises(ParameterError, match="integer >= 1"):
        families.check_n(n)


# every count argument outside the families goes through check_n
COUNT_CALLS = {
    "extract_pmf": lambda n: extraction.extract_pmf(Sibuya(0.5), n),
    "validate_pgf": lambda n: extraction.validate_pgf(Sibuya(0.5), n),
    "thin_general": lambda n: samplers.thin_general(n, PmfTable([0, 1], [0.5, 0.5], 0.0), np.random.default_rng(0)),
    "author_citations_rvs": lambda n: samplers.author_citations_rvs(AuthorCitations(0.5, 0.5), np.random.default_rng(0), n),
    "ex1_rvs": lambda n: samplers.ex1_rvs(SvhStable(1.0, 0.5), np.random.default_rng(0), n),
    "field_totals": lambda n: citations.field_totals(FieldSim(FieldCitations(1.0, 0.5, 0.5), Seed(1)), n),
    "ranking_instability": lambda n: citations.ranking_instability(FieldSim(FieldCitations(5.0, 0.5, 0.5), Seed(1)), n),
}


@pytest.mark.parametrize("n", [2.5, float("nan"), float("inf"), -1, "3"])
@pytest.mark.parametrize("call", COUNT_CALLS)
def test_every_count_argument_refuses_a_non_count(call, n):
    with pytest.raises(ParameterError, match="must be an integer >= "):
        COUNT_CALLS[call](n)


@pytest.mark.parametrize("call", COUNT_CALLS)
def test_every_count_argument_takes_an_integral_float(call):
    COUNT_CALLS[call](3.0)  # read as 3, as the integer itself is


@pytest.mark.parametrize("m", [2.5, float("nan"), float("inf"), 0])
@pytest.mark.parametrize(
    "ctor", [lambda m: Example1(1.0, 0.5, 0.3, m), lambda m: Example1Thin(0.3, m)], ids=["Example1", "Example1Thin"]
)
def test_integer_field_refuses_a_non_count(ctor, m):
    # int(m) alone would read 2.5 as 2 and raise ValueError or OverflowError on nan or inf
    with pytest.raises(ParameterError, match="^m must be"):
        ctor(m)


# ---------------------------------------------------------------------------
# each field's declared domain is the one construction enforces
# ---------------------------------------------------------------------------

DOMAIN_CASES = [(family, name) for family in VALID for name in type(family).domains]


def domain_defects(instance, name, domain) -> list[str]:
    """Where constructing ``instance`` with field ``name`` at or just past an end of ``domain`` departs from it."""
    defects = []

    def accepts(value) -> bool:
        try:
            dataclasses.replace(instance, **{name: value})
        except ParameterError as error:
            if not str(error).startswith(f"{name} must"):
                defects.append(f"{name} = {value!r} refused without naming the field: {error}")
            return False
        return True

    for end, bracket, outward in ((domain.lo, domain.ends[0], -np.inf), (domain.hi, domain.ends[1], np.inf)):
        closed = bracket in "[]"
        if accepts(end) != closed:
            defects.append(f"{name} = {end!r} {'refused' if closed else 'accepted'} at a {bracket} end")
        if np.isfinite(end) and accepts(np.nextafter(end, outward)):
            defects.append(f"{name} just outside {end!r} accepted")
    return defects


def test_every_field_has_a_domain():
    assert [
        type(family).__name__ for family in VALID
        if list(type(family).domains) != [field.name for field in dataclasses.fields(family)]
    ] == []


@pytest.mark.parametrize(
    "family, name", DOMAIN_CASES, ids=[f"{type(f).__name__}.{name}" for f, name in DOMAIN_CASES]
)
def test_construction_enforces_the_declared_domain(family, name):
    assert domain_defects(family, name, type(family).domains[name]) == []


@pytest.mark.parametrize(
    "family, name", DOMAIN_CASES, ids=[f"{type(f).__name__}.{name}" for f, name in DOMAIN_CASES]
)
def test_domain_check_sees_a_flipped_bracket(family, name):
    # negative control: a copy of the domain with either bracket flipped is not what construction enforces
    domain = type(family).domains[name]
    flip = {"(": "[", "[": "(", ")": "]", "]": ")"}
    for ends in (flip[domain.ends[0]] + domain.ends[1], domain.ends[0] + flip[domain.ends[1]]):
        assert domain_defects(family, name, dataclasses.replace(domain, ends=ends)) != []


def test_matched_family_and_thinning_share_their_domain():
    assert Example1.domains["kappa"] is Example1Thin.domains["kappa"]
    assert Example2.domains["b"] is Example2Thin.domains["b"]


@pytest.mark.parametrize("s", [-1.0, float("nan")])
def test_laplace_transforms_refuse_a_negative_or_nan_argument(s):
    for family in (Gamma(1.0, 2.0), TemperedStable(1.0, 0.5, 1.0)):
        with pytest.raises(ParameterError, match="s must be nonnegative"):
            family.laplace(np.array([1.0, s]))
        with pytest.raises(ParameterError, match="s must be nonnegative"):
            family.gfun(2, np.array([1.0, s]))


def test_families_are_frozen():
    fam = SvhStable(1.0, 0.5)
    with pytest.raises(Exception):
        fam.lam = 2.0


def test_family_fields_roundtrip():
    fam = Example1(1.0, 0.7, 0.3, 2)
    assert dataclasses.asdict(fam) == {"lam": 1.0, "gamma": 0.7, "kappa": 0.3, "m": 2}
    assert Example1(**dataclasses.asdict(fam)) == fam


def test_svh_pgf_closed_form():
    fam = SvhStable(2.0, 0.5)
    assert np.allclose(fam.pgf(Z), np.exp(-2.0 * (1.0 - Z) ** 0.5), atol=1e-15)
    assert fam.pgf(1.0) == pytest.approx(1.0, abs=1e-15)
    # alpha = 1 is Poisson
    assert SvhStable(3.0, 1.0).pgf(0.25) == pytest.approx(np.exp(-3.0 * 0.75), abs=1e-15)


def test_geometric_and_sibuya_pgf_closed_forms():
    q = 0.4
    z = np.linspace(0.0, 0.999, 30)
    assert np.allclose(Geometric(q).pgf(z), q * z / (1.0 - (1.0 - q) * z), atol=1e-15)
    p = 0.3
    assert np.allclose(Sibuya(p).pgf(z), 1.0 - (1.0 - z) ** p, atol=1e-15)


def test_author_is_sibuya_of_geometric():
    author = AuthorCitations(0.5, 0.4)
    composed = Sibuya(0.5).pgf(Geometric(0.4).pgf(Z))
    assert np.allclose(author.pgf(Z), composed, atol=1e-14)


def test_field_reduces_to_example1():
    field = FieldCitations(2.0, 0.6, 0.3)
    ex1 = as_example1(field)
    assert ex1 == Example1(2.0, 0.6, 0.7, 1)
    assert np.allclose(field.pgf(Z), ex1.pgf(Z), atol=1e-15)


def test_example1_literal_form():
    # exp(-lam W^gamma) with W = (1 - z^m)/(1 - kappa z^m)
    fam = Example1(1.5, 0.7, 0.3, 2)
    w = (1.0 - Z**2) / (1.0 - 0.3 * Z**2)
    assert np.allclose(fam.pgf(Z), np.exp(-1.5 * w**0.7), atol=1e-14)


def test_example2_literal_form():
    fam = Example2(1.0, 1.3, 0.2)
    a = ((1.0 + 0.2) * Z - 2 * 0.2) / (2.0 - (1.0 + 0.2) * Z)
    theta = np.arccos(a)
    assert np.allclose(fam.pgf(Z), np.exp(-1.0 * theta**1.3), atol=1e-13)


def test_bernoulli_thin_literal():
    thin = Bernoulli()
    assert np.allclose(thin.thin(0.3, Z), 1.0 - 0.3 + 0.3 * Z, atol=1e-16)
    thin.check_p(1.0)
    with pytest.raises(ParameterError):
        thin.check_p(0.0)


def test_example1_thin_literal_m1():
    kappa, p = 0.4, 0.35
    thin = Example1Thin(kappa, 1)
    expect = ((1.0 - p) + (p - kappa) * Z) / ((1.0 - p * kappa) - kappa * (1.0 - p) * Z)
    assert np.allclose(thin.thin(p, Z), expect, atol=1e-14)


def test_example1_thin_literal_m2():
    kappa, p, m = 0.6, 0.25, 2
    thin = Example1Thin(kappa, m)
    zm = Z**m
    inner = ((1.0 - p) + (p - kappa) * zm) / ((1.0 - p * kappa) - kappa * (1.0 - p) * zm)
    assert np.allclose(thin.thin(p, Z), inner ** (1.0 / m), atol=1e-14)
    # m > 1 restricts p to (0, kappa)
    thin.check_p(0.5)
    with pytest.raises(ParameterError):
        thin.check_p(0.7)


def test_example2_thin_literal():
    b, p = 0.2, 0.45
    thin = Example2Thin(b)

    def a_map(z):
        return ((1.0 + b) * z - 2.0 * b) / (2.0 - (1.0 + b) * z)

    def a_inv(w):
        return 2.0 * (w + b) / ((1.0 + b) * (1.0 + w))

    expect = a_inv(np.cos(p * np.arccos(a_map(Z))))
    assert np.allclose(thin.thin(p, Z), expect, atol=1e-13)


def test_thin_at_p_one_is_identity():
    for thin in [Bernoulli(), Example1Thin(0.5, 1), Example2Thin(-0.3)]:
        assert np.allclose(thin.thin(1.0, Z), Z, atol=1e-14)


@pytest.mark.parametrize("b", [-0.999, -0.5, 0.0, 0.5, 0.99, 0.999])
def test_chebyshev_map_at_p_one_is_the_identity(b):
    circle = 0.9 * np.exp(2j * np.pi * np.arange(1 << 16) / (1 << 16))
    for z in (circle, default_z_grid()):
        u = 1.0 - z
        assert np.abs(Example2Thin(b).complement_map(1.0, u) - u).max() <= 1e-13


def test_thin_fixes_z_one():
    for thin in [Bernoulli(), Example1Thin(0.5, 1), Example1Thin(0.5, 2), Example2Thin(0.3)]:
        p = 0.3
        assert thin.thin(p, 1.0) == pytest.approx(1.0, abs=1e-15)
        assert thin.complement_map(p, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_gamma_laplace_closed_form():
    # (1 + b s)^(-shape), frozen 17-digit values
    fam = Gamma(0.5, 2.0)
    assert fam.laplace(0.1) == pytest.approx(0.90702947845804989, abs=5e-16)
    assert fam.laplace(1.0) == pytest.approx(0.44444444444444444, abs=5e-16)
    assert fam.laplace(10.0) == pytest.approx(0.027777777777777778, abs=5e-17)


def test_tempered_stable_laplace_closed_form():
    # exp(-lam^a (1 + tan(pi a/2)) ((s+h)^a - h^a)), frozen values
    fam = TemperedStable(1.0, 0.5, 2.0)
    assert fam.laplace(0.1) == pytest.approx(0.93253534519166686, abs=1e-15)
    assert fam.laplace(1.0) == pytest.approx(0.52957817243915898, abs=1e-15)
    assert fam.laplace(10.0) == pytest.approx(0.016576386347562713, abs=1e-16)


def test_tempered_stable_requires_integer_reciprocal_alpha():
    TemperedStable(1.0, 1.0 / 3.0, 1.0)
    with pytest.raises(ParameterError, match="1/alpha"):
        TemperedStable(1.0, 0.4, 1.0)


def test_gfun_telescopes():
    # g_n for the tempered stable family composes: applying the n-fold
    # root twice equals the (n*m)-fold root
    fam = TemperedStable(1.0, 0.5, 1.0)
    s = np.logspace(-2, 2, 25)
    twice = fam.neg_log_gfun(3, fam.neg_log_gfun(5, s))
    assert np.allclose(twice, fam.neg_log_gfun(15, s), rtol=1e-13)


def test_gfun_validity_necessary_conditions():
    # g_n(0) = 1, decreasing, convex and log-convex on the s-grid
    s = np.linspace(0.0, 8.0, 401)
    for fam, n in [(Gamma(1.0, 2.0), 7), (TemperedStable(1.0, 0.5, 1.0), 4)]:
        g = np.exp(-fam.neg_log_gfun(n, s))
        assert g[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(g) < 0)
        assert np.all(np.diff(g, 2) > -1e-12)
        assert np.all(np.diff(np.log(g), 2) > -1e-12)


def test_transform_methods_closed_form_values():
    assert SvhStable(1.0, 1.0).pgf(0.5) == pytest.approx(np.exp(-0.5))
    assert Gamma(1.0, 1.0).laplace(1.0) == pytest.approx(0.5)
    assert Bernoulli().thin(0.25, 0.0) == pytest.approx(0.75)
    # -log g_2(3) = sqrt(1 + 3) - 1 = 1 for b = 1
    assert Gamma(1.0, 1.0).gfun(2, 3.0) == pytest.approx(np.exp(-1.0))


@given(
    p=st.floats(0.01, 1.0),
    kappa=st.floats(0.0, 0.95),
    u=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_thinned_complement_shrinks(p, kappa, u):
    # thinning pulls the p.g.f. argument toward 1: 0 <= 1-Q(z) <= 1-z
    cm = Example1Thin(kappa, 1).complement_map(p, u)
    assert -1e-15 <= cm <= u + 1e-12


@given(p=st.floats(0.01, 1.0), b=st.floats(-0.9, 0.9), u=st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_example2_complement_shrinks(p, b, u):
    cm = Example2Thin(b).complement_map(p, u)
    assert -1e-12 <= cm <= u + 1e-12


@given(z=st.floats(0.0, 1.0), p=st.floats(0.01, 1.0))
@settings(max_examples=200, deadline=None)
def test_complement_form_matches_literal_example1(z, p):
    kappa = 0.3
    thin = Example1Thin(kappa, 1)
    literal = ((1.0 - p) + (p - kappa) * z) / ((1.0 - p * kappa) - kappa * (1.0 - p) * z)
    assert thin.thin(p, z) == pytest.approx(literal, abs=1e-12)


# ---------------------------------------------------------------------------
# each thinning's coordinate turns its map into multiplication
# ---------------------------------------------------------------------------

COORDINATE_CASES = [
    (Bernoulli(), 0.35),
    (Example1Thin(0.4, 1), 0.35),
    (Example1Thin(0.6, 2), 0.35),
    (Example1Thin(0.9, 3), 0.7),
    (Example2Thin(-0.3), 0.35),
    (Example2Thin(0.9), 0.7),
]
# measured: at most 2.5 eps at p in {0.05, 0.35, 0.5, 1}, b up to 0.9, m up to 3
COORDINATE_TOL = 8.0 * np.finfo(float).eps


def linearity_defect(coordinate, thinning, p, claimed_p):
    """max |c(1 - Q_p(z)) / c(1 - z) - claimed_p| over the default z grid."""
    u = 1.0 - default_z_grid()
    return float(np.abs(coordinate(thinning.complement_map(p, u)) / coordinate(u) - claimed_p).max())


@pytest.mark.parametrize("thinning, p", COORDINATE_CASES)
def test_thinning_coordinate_linearizes_its_map(thinning, p):
    assert linearity_defect(thinning.coordinate, thinning, p, p) <= COORDINATE_TOL
    # negative controls: a perturbed p, and the coordinate of another family
    assert linearity_defect(thinning.coordinate, thinning, p * (1.0 + 1e-9), p) > 1e3 * COORDINATE_TOL
    for other in (Bernoulli(), Example1Thin(0.4, 1), Example2Thin(-0.3)):
        if type(other) is not type(thinning):
            assert linearity_defect(other.coordinate, thinning, p, p) > 1e-3


# each discrete-stable kernel is exp(-lam c(u)^gamma), c the coordinate of a
# matched thinning and gamma its exponent, though the two are written apart
STABLE_FAMILIES = [
    SvhStable(1.3, 0.6),
    Example1(0.8, 0.7, 0.3, 1),
    Example1(1.2, 0.5, 0.6, 2),
    Example1(1.0, 0.6, 0.0, 1),
    Example2(1.1, 1.5, 0.4),
    Example2(0.9, 0.8, -0.7),
    FieldCitations(2.0, 0.5, 0.3),
]
# measured: at most 2.5e-15 with numpy's complex power, on both grids
KERNEL_FROM_COORDINATE_TOL = 32.0 * np.finfo(float).eps
KERNEL_CIRCLE = 0.9 * np.exp(2j * np.pi * np.arange(1 << 16) / (1 << 16))


def kernel_from_coordinate_error(family, thinning, exponent) -> float:
    """max relative |exp(-lam c(u)^exponent) - P(z)| over the default z grid and the r = 0.9 circle."""
    worst = 0.0
    for z in (default_z_grid(), KERNEL_CIRCLE):
        u = 1.0 - z
        kernel = family.pgf_from_complement(u)
        from_coordinate = np.exp(-family.lam * np.power(thinning.coordinate(u), exponent))
        worst = max(worst, float(np.max(np.abs(from_coordinate - kernel) / np.abs(kernel))))
    return worst


@pytest.mark.parametrize("family", STABLE_FAMILIES, ids=repr)
def test_stable_kernel_is_exp_of_its_matched_coordinate(family):
    pairs = family.matched_pairs()
    assert pairs
    for thinning, exponent in pairs:
        assert kernel_from_coordinate_error(family, thinning, exponent) <= KERNEL_FROM_COORDINATE_TOL
        # negative control: the exponent 1% off
        assert kernel_from_coordinate_error(family, thinning, 1.01 * exponent) > 1e-3


# ---------------------------------------------------------------------------
# the compound-Poisson kernels, bit for bit against their literal arithmetic
# ---------------------------------------------------------------------------

PIN_POINTS = {
    "z_grid": 1.0 - default_z_grid(),
    "circle": 1.0 - extraction._circle(extraction.fft_points(200), extraction.DEFAULT_RADIUS),
}
# the negative u axis with a signed zero imaginary part: either side of the cut
_CUT = -np.logspace(-8, -0.5, 12) + 0j
CUT_POINTS = np.concatenate([_CUT, np.conj(_CUT)])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("points", PIN_POINTS)
def test_field_kernel_is_its_literal_form_bitwise(points):
    lam, p, q = 1.0, 0.7, 0.3
    u = PIN_POINTS[points]
    literal = np.exp(-lam * families._power(u / (q + (1.0 - q) * u), p))
    assert same_bits(FieldCitations(lam, p, q).pgf_from_complement(u), literal)


@pytest.mark.parametrize("points", PIN_POINTS)
def test_example1_kernel_is_its_literal_form_bitwise(points):
    lam, gamma, kappa = 1.0, 0.6, 0.3
    u = PIN_POINTS[points]
    v = u * (1.0 + (1.0 - u))  # 1 - z^2
    literal = np.exp(-lam * families._power(v / ((1.0 - kappa) + kappa * v), gamma))
    assert same_bits(Example1(lam, gamma, kappa, 2).pgf_from_complement(u), literal)


@pytest.mark.parametrize("points", [*PIN_POINTS, "cut"])
@pytest.mark.parametrize("lam, a", [(1.5, 0.7), (0.2, 1.0), (3.0, 0.25)])
def test_svh_kernel_is_example1_at_kappa_zero_bitwise(lam, a, points):
    u = CUT_POINTS if points == "cut" else PIN_POINTS[points]
    assert same_bits(SvhStable(lam, a).pgf_from_complement(u), Example1(lam, a, 0.0, 1).pgf_from_complement(u))


@pytest.mark.parametrize("points", PIN_POINTS)
def test_field_pin_sees_q_recomputed_through_example1(points):
    # negative control: the Example1 view forms q as 1 - (1 - q), which
    # moves some kernel values by an ulp, and the pin sees it
    field, u = FieldCitations(1.0, 0.7, 0.3), PIN_POINTS[points]
    assert not same_bits(as_example1(field).pgf_from_complement(u), field.pgf_from_complement(u))
