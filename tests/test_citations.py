"""Citation-network model: composition law, heavy-tail statistics, rankings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from casualstable import (
    AuthorCitations,
    Example1Thin,
    FieldCitations,
    FieldSim,
    InsufficientDataError,
    ParameterError,
    Seed,
    author_rvs,
    empirical_mode,
    extract_pmf,
    field_totals,
    lower_median,
    make_rng,
    ranking_instability,
    simulate_field,
    solve_pn,
    tail_exponent,
    thin_general,
    top_share,
)
from casualstable.citations import _spearman, _summarize
from reference import as_example1, simulate_author

# author p.g.f. 1 - (1 - qz/(1-(1-q)z))^p at p = q = 1/2, mpmath dps=60
AUTHOR_PGF = {0.2: 0.057190958417936634, 0.5: 0.18350341907227397, 0.8: 0.42264973081037424}


def test_order_statistics_helpers():
    assert lower_median(np.array([5])) == 5
    assert lower_median(np.array([1, 2, 3])) == 2
    # even size takes the lower of the two central values
    assert lower_median(np.array([1, 2, 3, 4])) == 2
    assert empirical_mode(np.array([3, 1, 1, 2, 2])) == 1  # tie -> smaller atom
    share = top_share(np.concatenate([np.zeros(99), [100.0]]))
    assert share == pytest.approx(1.0)
    with pytest.raises(InsufficientDataError):
        lower_median(np.array([]))


@pytest.mark.parametrize("size", [1, 2, 9_999, 10_000, 10_001, 50_000])
@pytest.mark.parametrize("kind", ["authors", "float", "with_zeros"])
def test_one_sort_summary_equals_the_public_statistics(size, kind):
    # a field summary sorts once; each statistic must equal, bit for bit,
    # its public function, which sorts for itself: int64 author counts,
    # float64 counts past 2^61, and totals with zeros the Hill filter drops
    rng = np.random.default_rng(size)
    if kind == "authors":
        x = author_rvs(AuthorCitations(0.5, 0.5), make_rng(Seed(size, 1)), size)
    elif kind == "float":
        x = 1.0 + np.floor(rng.pareto(0.05, size))
    else:
        x = rng.integers(0, 4, size)
    try:
        hill = tail_exponent(x)
    except InsufficientDataError:
        hill = float("nan")
    summary = _summarize(x)
    expected = (lower_median(x), empirical_mode(x), top_share(x), hill)
    observed = (summary.median, summary.mode, summary.top_share, summary.tail_exponent_hat)
    assert np.array_equal(observed, expected, equal_nan=True)


def test_field_sim_validation():
    FieldSim(FieldCitations(1.0, 0.5, 0.5), Seed(0))
    with pytest.raises(ParameterError):
        FieldSim(FieldCitations(0.0, 0.5, 0.5), Seed(0))
    with pytest.raises(ParameterError):
        FieldSim(FieldCitations(1.0, 1.5, 0.5), Seed(0))
    with pytest.raises(ParameterError):
        FieldSim(FieldCitations(1.0, 0.5, 0.0), Seed(0))


def test_author_law_domain_is_checked_by_the_family():
    with pytest.raises(ParameterError):
        author_rvs(AuthorCitations(0.5, 0.0), make_rng(Seed(0)), 10)


def test_author_support_and_pgf():
    rng = make_rng(Seed(34, 0))
    x = author_rvs(AuthorCitations(0.5, 0.5), rng, 100_000)
    assert x.min() >= 1  # every author has >= 1 paper with >= 1 citation
    for z, target in AUTHOR_PGF.items():
        vals = z**x
        se = vals.std() / np.sqrt(len(x))
        assert abs(vals.mean() - target) < 4 * se


def test_scalar_author_agrees_with_bulk():
    rng = make_rng(Seed(37, 0))
    scalar = np.array([simulate_author(AuthorCitations(0.5, 0.5), rng) for _ in range(5000)])
    bulk = author_rvs(AuthorCitations(0.5, 0.5), make_rng(Seed(37, 1)), 5000)
    grid = np.unique(np.concatenate([scalar, bulk]))
    cs_ = np.searchsorted(np.sort(scalar), grid, side="right") / len(scalar)
    cb = np.searchsorted(np.sort(bulk), grid, side="right") / len(bulk)
    d = np.abs(cs_ - cb).max() * np.sqrt(len(scalar) * len(bulk) / (len(scalar) + len(bulk)))
    assert d < 1.9495


def test_hill_estimator_recovers_index():
    x = author_rvs(AuthorCitations(0.7, 0.5), make_rng(Seed(35, 0)), 10**6)
    assert 0.6 < tail_exponent(x) < 0.8
    with pytest.raises(InsufficientDataError):
        tail_exponent(np.arange(1, 100))  # below the minimum sample size


def test_sample_mean_grows_with_sample_size():
    # infinite-mean law: the median over 20 replicates of the sample
    # mean is nondecreasing in the sample size
    medians = []
    for j, size in enumerate([10**4, 10**5, 10**6]):
        means = [
            author_rvs(AuthorCitations(0.5, 0.5), make_rng(Seed(32, j * 20 + i)), size).mean()
            for i in range(20)
        ]
        medians.append(np.median(means))
    assert medians[0] <= medians[1] <= medians[2]


def test_median_is_stable_across_sample_sizes():
    meds = [
        lower_median(author_rvs(AuthorCitations(0.5, 0.5), make_rng(Seed(33, j)), size))
        for j, size in enumerate([10**4, 10**5, 10**6])
    ]
    assert max(meds) - min(meds) <= 1


def test_simulate_field_summary():
    summary = simulate_field(FieldSim(FieldCitations(100.0, 0.5, 0.5), Seed(7, 0)))
    assert summary.n_scientists > 0
    assert summary.total == summary.per_author_citations.sum()
    assert summary.mean >= summary.median
    assert summary.mode >= 1
    assert 0.0 < summary.top_share <= 1.0
    assert np.isnan(summary.tail_exponent_hat)  # ~100 authors < tail minimum


def test_field_totals_deterministic():
    a = field_totals(FieldSim(FieldCitations(1.0, 0.5, 0.5), Seed(42, 0)), 1000)
    b = field_totals(FieldSim(FieldCitations(1.0, 0.5, 0.5), Seed(42, 0)), 1000)
    assert np.array_equal(a, b)
    assert a.min() >= 0  # empty fields contribute zero totals


def test_field_reproduces_under_thinned_superposition():
    # X =d sum of n thinned copies: the defining identity checked on
    # samples.  Two-sample KS at the 1e-3 level, scaled critical 1.9495.
    field = FieldCitations(1.0, 0.5, 0.5)
    thin = Example1Thin(0.5, 1)
    n = 2
    p = solve_pn(as_example1(field), thin, n)
    law = extract_pmf(lambda z: thin.thin(p, z), 100)
    size = 20_000
    base = field_totals(FieldSim(FieldCitations(1.0, 0.5, 0.5), Seed(36, 0)), size)
    rng = make_rng(Seed(36, 1))
    parts = np.zeros(size, dtype=np.int64)
    for i in range(n):
        copy = field_totals(FieldSim(FieldCitations(1.0, 0.5, 0.5), Seed(36, 2 + i)), size)
        parts += np.array([thin_general(int(v), law, rng)[0] for v in copy])
    grid = np.unique(np.concatenate([base, parts]))
    cb = np.searchsorted(np.sort(base), grid, side="right") / size
    cp = np.searchsorted(np.sort(parts), grid, side="right") / size
    d = np.abs(cb - cp).max() * np.sqrt(size / 2.0)
    assert d < 1.9495


def test_ranking_is_pure_chance():
    report = ranking_instability(FieldSim(FieldCitations(1000.0, 0.5, 0.5), Seed(31, 0)), 100)
    assert report.n_replicates == 100
    assert abs(report.mean_correlation) < 0.02
    # the mean always overstates the median for this heavy-tailed law
    assert (report.mean_median_ratios > 1.0).all()
    with pytest.raises(ParameterError):
        ranking_instability(FieldSim(FieldCitations(10.0, 0.5, 0.5), Seed(0)), 1)


TIED_PAIRS = st.integers(2, 300).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(0, 4), min_size=n, max_size=n) for _ in range(2)])
)


@given(TIED_PAIRS)
@settings(max_examples=300, deadline=None)
def test_spearman_matches_scipy_on_tied_integers(pair):
    x, y = (np.array(v, dtype=np.int64) for v in pair)
    rho = _spearman(x, y)
    if np.all(x == x[0]) or np.all(y == y[0]):
        assert np.isnan(rho)
    else:
        assert abs(rho - stats.spearmanr(x, y).statistic) <= 1e-12
