"""Exactness and determinism of the random variate generators.

Two-sample KS statistics are scaled by sqrt(nm/(n+m)); the 1e-3
critical value of the scaled statistic is 1.9495.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casualstable import (
    Example1,
    Geometric,
    IterationCapError,
    ParameterError,
    PmfTable,
    Seed,
    Sibuya,
    SvhStable,
    TableError,
    TemperedStable,
    UnsupportedError,
    extract_pmf,
    ex1_rvs,
    geometric_rvs,
    inverse_gaussian_rvs,
    make_rng,
    sample_geometric,
    sample_sibuya,
    sibuya_rvs,
    svh_rvs,
    thin_general,
)

KS_CRIT = 1.9495  # scaled two-sample KS at the 1e-3 level


def scaled_ks(a, b):
    grid = np.unique(np.concatenate([a, b]))
    ca = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    cb = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.abs(ca - cb).max() * np.sqrt(len(a) * len(b) / (len(a) + len(b))))


def test_seed_validation():
    Seed(0)
    Seed(2**64 - 1, 3)
    with pytest.raises(ParameterError):
        Seed(-1)
    with pytest.raises(ParameterError):
        Seed(2**64)
    assert Seed(7).with_stream(2) == Seed(7, 2)


def test_rng_determinism_and_stream_independence():
    a = make_rng(Seed(42, 0)).random(8)
    b = make_rng(Seed(42, 0)).random(8)
    c = make_rng(Seed(42, 1)).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


SEED_PAIRS = st.tuples(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1))


@given(first=SEED_PAIRS, second=SEED_PAIRS)
@example(first=(0, 0), second=(0, 0))
@example(first=(2 ** 64 - 1, 3), second=(2 ** 64 - 1, 3))
@example(first=(1, 2), second=(2, 1))
@example(first=(5, 0), second=(5, 1))
@example(first=(2 ** 63 + 1, 5), second=(2 ** 63, 5))
@example(first=(2 ** 64 - 2, 0), second=(2 ** 64 - 1, 0))
@settings(max_examples=200, deadline=None)
def test_seed_pairs_address_their_own_streams(first, second):
    # equal (value, stream_id) pairs replay the same first draws; any
    # other pair, the swapped one included, starts a different stream
    a = make_rng(Seed(*first)).random(4)
    b = make_rng(Seed(*second)).random(4)
    assert np.array_equal(a, b) == (first == second)


def test_geometric_support_and_mean():
    rng = make_rng(Seed(1, 0))
    x = geometric_rvs(Geometric(0.25), rng, 100_000)
    assert x.min() >= 1
    se = x.std() / np.sqrt(len(x))
    assert abs(x.mean() - 4.0) < 4 * se
    rng = make_rng(Seed(1, 1))
    y = np.array([sample_geometric(Geometric(0.25), rng) for _ in range(2000)])
    assert y.min() >= 1


def test_sibuya_scalar_vs_bulk_same_law():
    # the sequential mechanism and the inversion sampler must agree
    n = 20_000
    r1, r2 = make_rng(Seed(11, 0)), make_rng(Seed(11, 1))
    scalar = np.array([sample_sibuya(Sibuya(0.5), r1) for _ in range(n)])
    bulk = sibuya_rvs(Sibuya(0.5), r2, n)
    assert scaled_ks(scalar, bulk) < KS_CRIT


def test_sibuya_pmf_and_survival():
    rng = make_rng(Seed(11, 1))
    x = sibuya_rvs(Sibuya(0.5), rng, 20_000)
    assert x.min() >= 1
    # closed-form pmf at k = 1..4: 1/2, 1/8, 1/16, 5/128
    for k, pk in [(1, 0.5), (2, 0.125), (3, 0.0625), (4, 0.0390625)]:
        emp = (x == k).mean()
        se = np.sqrt(pk * (1 - pk) / len(x))
        assert abs(emp - pk) < 4 * se
    # survival beyond the inversion table region, frozen mpmath value
    surv10 = 0.17619705200195313
    emp = (x > 10).mean()
    assert abs(emp - surv10) < 4 * np.sqrt(surv10 * (1 - surv10) / len(x))


def test_sibuya_iteration_cap():
    rng = make_rng(Seed(2, 0))
    with pytest.raises(IterationCapError):
        for _ in range(200):
            sample_sibuya(Sibuya(0.05), rng, cap=50)


def test_sibuya_value_cap():
    # p = 0.05 puts ~12% of the mass beyond 2^61, so the inversion
    # sampler must refuse rather than return a truncated draw
    rng = make_rng(Seed(5, 0))
    with pytest.raises(IterationCapError, match="2\\^61"):
        sibuya_rvs(Sibuya(0.05), rng, 200)


def test_sibuya_value_cap_message_states_the_tail_probability():
    # S(k) ~ k^(-p)/Gamma(1-p), so the refused event has probability
    # 2^(-61 p)/Gamma(1-p): 0.117 at p = 0.05, not 2^(-61 p) = 0.121
    expected = float(mpmath.power(2, -61 * mpmath.mpf(0.05)) / mpmath.gamma(1 - mpmath.mpf(0.05)))
    with pytest.raises(IterationCapError, match=f"= {expected:.2e} per draw"):
        sibuya_rvs(Sibuya(0.05), make_rng(Seed(5, 0)), 200)


def test_bulk_samplers_are_deterministic():
    x = svh_rvs(SvhStable(1.0, 0.5), make_rng(Seed(3, 0)), 1000)
    y = svh_rvs(SvhStable(1.0, 0.5), make_rng(Seed(3, 0)), 1000)
    assert np.array_equal(x, y)


def test_svh_sampler_matches_transform():
    rng = make_rng(Seed(12, 0))
    x = svh_rvs(SvhStable(1.0, 0.5), rng, 200_000)
    table = extract_pmf(SvhStable(1.0, 0.5), 60)
    counts = np.bincount(x[x <= 60], minlength=61) / len(x)
    tv = 0.5 * np.abs(counts - table.masses).sum()
    assert tv < 6e-3


def test_ex1_sampler_mean_and_lattice():
    # gamma = 1, m = 1: the p.g.f. exp(-lam W) has mean lam/(1 - kappa)
    rng = make_rng(Seed(13, 0))
    y = ex1_rvs(Example1(2.0, 1.0, 0.4, 1), rng, 200_000)
    se = y.std() / np.sqrt(len(y))
    assert abs(y.mean() - 2.0 / 0.6) < 4 * se
    rng = make_rng(Seed(14, 0))
    y2 = ex1_rvs(Example1(1.0, 0.5, 0.4, 2), rng, 2000)
    assert (y2 % 2 == 0).all()


def test_thin_general_reproduces_thinned_law():
    # Bernoulli(p)-thinning a stable law rescales lam by p^alpha
    lam, alpha, p = 1.0, 0.5, 0.3
    law = extract_pmf(lambda z: 1.0 - p + p * z, 1)
    rng = make_rng(Seed(21, 0))
    x = svh_rvs(SvhStable(lam, alpha), rng, 10_000)
    thinned = np.array([thin_general(int(v), law, rng) for v in x])
    direct = svh_rvs(SvhStable(lam * p**alpha, alpha), make_rng(Seed(21, 1)), 10_000)
    assert scaled_ks(thinned, direct) < KS_CRIT


def test_thin_general_rejects_deficient_table():
    heavy = extract_pmf(Sibuya(0.5), 50)  # ~8% of mass beyond atom 50
    with pytest.raises(TableError):
        thin_general(3, heavy, make_rng(Seed(4, 0)))


class _TopHitRng:
    """Duck-typed generator that drops every draw into the last bucket."""

    def multinomial(self, n, pvals):
        counts = np.zeros(len(pvals), dtype=np.int64)
        counts[-1] = n
        return counts


def test_thin_general_overflow_counter():
    law = PmfTable(ks=[0, 1], masses=[0.6, 0.4 - 5e-7], mass_deficit=5e-7)
    out = thin_general(10, law, _TopHitRng())
    assert out == 10  # clamped to the last atom ten times
    assert law.overflow_hits == 10


def test_inverse_gaussian_matches_laplace():
    ts = TemperedStable(1.0, 0.5, 1.0)
    rng = make_rng(Seed(15, 0))
    w = inverse_gaussian_rvs(ts, rng, 200_000)
    assert (w > 0).all()
    for s in [0.3, 1.0, 3.0]:
        vals = np.exp(-s * w)
        se = vals.std() / np.sqrt(len(w))
        assert abs(vals.mean() - ts.laplace(s)) < 4 * se


def test_inverse_gaussian_requires_alpha_half():
    with pytest.raises(UnsupportedError):
        inverse_gaussian_rvs(TemperedStable(1.0, 1.0 / 3.0, 1.0), make_rng(Seed(0)), 10)
