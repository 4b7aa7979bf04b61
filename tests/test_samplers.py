"""Exactness and determinism of the random variate generators.

Two-sample KS statistics are scaled by sqrt(nm/(n+m)); the 1e-3
critical value of the scaled statistic is 1.9495.
"""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from casualstable import (
    AuthorCitations,
    Example1,
    FieldCitations,
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
    inverse_gaussian_rvs,
    make_rng,
    sibuya_rvs,
    svh_rvs,
    thin_general,
)
from casualstable import samplers
from casualstable.samplers import _beta, _cap_tail, _segment_sums, _tv_check, author_citations_rvs
from reference import geometric_rvs, sample_sibuya

KS_CRIT = 1.9495  # scaled two-sample KS at the 1e-3 level
FLOAT_MAX = np.finfo(np.float64).max  # the array samplers' value cap


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


@pytest.mark.parametrize(
    "value, stream_id",
    [(float("nan"), 0), (float("inf"), 0), (0, float("nan")), (0, float("inf")), (-1, 0), (2 ** 64, 0)],
)
def test_seed_refuses_a_non_64_bit_unsigned_integer(value, stream_id):
    # int(v) alone would raise ValueError or OverflowError on nan or inf
    with pytest.raises(ParameterError, match="must be an integer >= 0|a 64-bit unsigned integer"):
        Seed(value, stream_id)


def test_seed_keeps_the_largest_value_exact():
    seed = Seed(2 ** 64 - 1, np.uint64(2 ** 64 - 1))
    assert (seed.value, seed.stream_id) == (2 ** 64 - 1, 2 ** 64 - 1)


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


def test_sibuya_scalar_vs_bulk_same_law():
    # the sequential mechanism and the Beta-mixture sampler must agree
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
    # survival at 10, frozen mpmath value
    surv10 = 0.17619705200195313
    emp = (x > 10).mean()
    assert abs(emp - surv10) < 4 * np.sqrt(surv10 * (1 - surv10) / len(x))


def test_sibuya_iteration_cap():
    rng = make_rng(Seed(2, 0))
    with pytest.raises(IterationCapError):
        for _ in range(200):
            sample_sibuya(Sibuya(0.05), rng, cap=50)


def test_sibuya_value_cap():
    # p = 0.05 puts ~12% of the mass beyond 2^61, so the call returns its
    # draws as float64, each still 1 + floor(E / rate), rather than refusing
    x = sibuya_rvs(Sibuya(0.05), make_rng(Seed(5, 0)), 200)
    assert x.dtype == np.float64 and (x > 2.0 ** 61).any()
    rng = make_rng(Seed(5, 0))
    w = _beta(rng, 0.05, 0.95, 200)
    assert np.array_equal(x, 1.0 + np.floor(rng.standard_exponential(200) / -np.log1p(-w)))


def test_sibuya_value_cap_message_states_the_tail_probability():
    # S(k) ~ k^(-p)/Gamma(1-p), so a draw past the float64 maximum F has
    # probability F^(-p)/Gamma(1-p): 8.2e-4 at p = 0.01, not F^(-p) = 8.3e-4;
    # a Beta draw that underflows to W = 0 gives such an infinite value
    p = mpmath.mpf(0.01)
    expected = float(mpmath.power(FLOAT_MAX, -p) / mpmath.gamma(1 - p))
    with pytest.raises(IterationCapError, match=f"= {expected:.2e} per draw"):
        sibuya_rvs(Sibuya(0.01), make_rng(Seed(5, 1)), 10 ** 4)


# -- the Beta weights: Joehnk's rejection on exponential pairs --------------

BETA_DRAWS = 10 ** 5


def beta_ks(w, p):
    """One-sample KS statistic of w against Beta(p, 1-p), scaled by sqrt(n);
    its limit law is the two-sample one's, so KS_CRIT is its 1e-3 level."""
    return float(stats.kstest(w, stats.beta(p, 1.0 - p).cdf).statistic * np.sqrt(w.size))


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.7])
def test_beta_matches_the_beta_law(p):
    assert beta_ks(_beta(make_rng(Seed(44, 0)), p, 1.0 - p, BETA_DRAWS), p) < KS_CRIT


@pytest.mark.parametrize("p, ones", [(0.9, 0.024), (0.95, 0.16), (0.99, 0.69)])
def test_beta_matches_numpy_where_w_rounds_to_one(p, ones):
    # both samplers round W to 1.0 for a share `ones` of the draws, an
    # atom the continuous Beta law lacks, so compare with numpy's draws
    ours = _beta(make_rng(Seed(44, 1)), p, 1.0 - p, BETA_DRAWS)
    theirs = make_rng(Seed(44, 2)).beta(p, 1.0 - p, BETA_DRAWS)
    for w in (ours, theirs):
        assert np.mean(w == 1.0) == pytest.approx(ones, rel=0.1)
    assert scaled_ks(ours, theirs) < KS_CRIT


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.7])
def test_beta_law_check_sees_a_shifted_parameter(p):
    # negative control: Beta(p + 0.05, 0.95 - p) is not Beta(p, 1 - p)
    assert beta_ks(_beta(make_rng(Seed(44, 3)), p + 0.05, 0.95 - p, BETA_DRAWS), p) > KS_CRIT


@pytest.mark.parametrize("size", [0, 1, 16383, 16384, 16385])
def test_beta_draws_its_size_and_replays(size):
    # 16384 pairs make one pass, so the larger sizes take two passes
    rng = make_rng(Seed(45, size))
    w = _beta(rng, 0.3, 0.7, size)
    assert w.shape == (size,) and w.dtype == np.float64
    assert ((w >= 0.0) & (w <= 1.0)).all()
    assert np.array_equal(w, _beta(make_rng(Seed(45, size)), 0.3, 0.7, size))
    if size == 0:  # draws nothing: the stream is where it started
        assert rng.random() == make_rng(Seed(45, size)).random()


# -- AuthorCitations from its Beta mixture ---------------------------------

ORACLE_CASES = [(0.5, 0.5), (0.7, 0.3), (0.2, 0.9), (1.0, 0.4)]
ORACLE_DRAWS = 10 ** 6
ORACLE_DEPTH = 60
ORACLE_BLOCK = 1000


def exact_cap_tail(p, q, cap=2 ** 61):
    """P(X > N) for X ~ AuthorCitations(p, q), N = cap, by mpmath quadrature.

    X is Geometric(qW) with W ~ Beta(p, 1-p), so P(X > N) = E[(1-qW)^N].
    Substituting W = t/(qN) and t = s^(1/p) absorbs W's w^(p-1)
    singularity; the integrand beyond t = 200 is below e^-200, so this
    needs qN > 200 when p < 1.
    """
    with mpmath.workdps(30):
        p, q, n = mpmath.mpf(p), mpmath.mpf(q), mpmath.mpf(cap)
        if p == 1:
            return mpmath.exp(n * mpmath.log1p(-q))
        scale = q * n

        def integrand(s):
            t = s ** (1 / p)
            return mpmath.exp(n * mpmath.log1p(-t / n)) * (1 - t / scale) ** (-p)

        ends = [mpmath.mpf(t) ** p for t in (0, 1, 10, 100, 200)]
        return mpmath.quad(integrand, ends) * scale ** (-p) / (p * mpmath.beta(p, 1 - p))


def uncapped_draws(draw, n):
    """n draws taken in blocks, each draw above 2^61 dropped.

    A block holding such a draw comes back as float64; the draws kept
    from it are whole numbers up to 2^61, exact as int64.  The draws are
    i.i.d., so the kept ones are i.i.d. from the law conditioned on
    X <= 2^61.
    """
    kept, count = [], 0
    while count < n:
        block = draw(ORACLE_BLOCK)
        if block.dtype != np.int64:
            block = block[block <= 2 ** 61].astype(np.int64)
        kept.append(block)
        count += block.size
    return np.concatenate(kept)[:n]


def oracle_misses(draws, p, q):
    """Atoms 0..60 and P(X > 60) that miss the exact table by more than
    6 sigma + tol_neg; the table is conditioned on X <= 2^61 like the draws."""
    table = extract_pmf(AuthorCitations(p, q), ORACLE_DEPTH)
    cap = float(exact_cap_tail(p, q))
    expected = np.append(table.masses, table.mass_deficit - cap) / (1.0 - cap)
    observed = np.append(
        np.bincount(draws[draws <= ORACLE_DEPTH], minlength=ORACLE_DEPTH + 1),
        np.count_nonzero(draws > ORACLE_DEPTH),
    ) / draws.size
    f = np.clip(expected, 0.0, 1.0)
    bound = 6.0 * np.sqrt(f * (1.0 - f) / draws.size) + table.tol_neg
    return np.flatnonzero(np.abs(observed - expected) > bound)


def symmetric_beta(monkeypatch):
    """Make ``samplers._beta`` draw Beta(a, a) when asked for Beta(a, b): the Beta(p, p) mutant."""
    monkeypatch.setattr(samplers, "_beta", lambda rng, a, b, size: _beta(rng, a, a, size))


@pytest.mark.parametrize("p, q", ORACLE_CASES)
def test_author_citations_match_the_exact_table(p, q):
    rng = make_rng(Seed(41, 0))
    draws = uncapped_draws(lambda size: author_citations_rvs(AuthorCitations(p, q), rng, size), ORACLE_DRAWS)
    assert draws.dtype == np.int64
    assert oracle_misses(draws, p, q).size == 0


def test_author_citations_oracle_catches_mutants(monkeypatch):
    # Beta(p, p) for Beta(p, 1-p) changes the law wherever p is not 1/2
    # (at p = 1 no Beta is drawn); W for qW changes it wherever q < 1
    for p, q in ORACLE_CASES:
        rng = make_rng(Seed(41, 1))
        with monkeypatch.context() as patch:
            symmetric_beta(patch)
            draws = uncapped_draws(lambda size: author_citations_rvs(AuthorCitations(p, q), rng, size), ORACLE_DRAWS)
        assert (oracle_misses(draws, p, q).size > 0) == (p not in (0.5, 1.0))
        rng = make_rng(Seed(41, 2))
        draws = uncapped_draws(lambda size: author_citations_rvs(AuthorCitations(p, 1.0), rng, size), ORACLE_DRAWS)
        assert oracle_misses(draws, p, q).size > 0


def test_author_citations_edges_are_exact_and_quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # qW = 1: the rate -log(1 - qW) is infinite and every draw is 1
        assert (author_citations_rvs(AuthorCitations(1.0, 1.0), make_rng(Seed(6)), 1000) == 1).all()
        # p = 1: W = 1 and no Beta is drawn, so the stream is a plain Geometric(q)
        x = author_citations_rvs(AuthorCitations(1.0, 0.4), make_rng(Seed(6)), 1000)
        e = make_rng(Seed(6)).standard_exponential(1000)
        assert np.array_equal(x, 1 + np.floor(e / -np.log1p(-0.4)).astype(np.int64))
        assert author_citations_rvs(AuthorCitations(0.5, 0.5), make_rng(Seed(6)), 0).shape == (0,)
    with pytest.raises(ParameterError):
        author_citations_rvs(AuthorCitations(0.5, 0.5), make_rng(Seed(6)), -1)


def test_author_citations_value_cap_message_states_the_tail_probability():
    # P(X > F) ~ (q F)^(-p)/Gamma(1-p) for F the float64 maximum: the
    # documented 4e-16 per draw at p = 0.05, q = 1/2, where ~12% of the
    # draws exceed 2^61 and come back as float64
    rate = float(exact_cap_tail(0.05, 0.5, FLOAT_MAX))
    assert f"{rate:.0e}" == "4e-16" and rate == pytest.approx(_cap_tail(0.05, 0.5), rel=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = author_citations_rvs(AuthorCitations(0.05, 0.5), make_rng(Seed(5, 0)), 200)
        assert x.dtype == np.float64 and np.isfinite(x).all() and (x > 2.0 ** 61).any()
        # at p = 0.01 some Beta draws underflow to W = 0, an infinite value
        assert (_beta(make_rng(Seed(5, 1)), 0.01, 0.99, 10 ** 4) == 0.0).any()
        expected = float(exact_cap_tail(0.01, 0.5, FLOAT_MAX))
        with pytest.raises(IterationCapError, match=f"value cap, the float64 maximum 1.8e\\+308 .* = {expected:.2e} per draw"):
            author_citations_rvs(AuthorCitations(0.01, 0.5), make_rng(Seed(5, 1)), 10 ** 4)
        # at p = 1 the law is Geometric(q), whose tail (1-q)^F has no
        # Gamma(1-p); a subnormal q makes most draws overflow
        expected = float(exact_cap_tail(1.0, 1e-310, FLOAT_MAX))
        with pytest.raises(IterationCapError, match=f"= {expected:.2e} per draw"):
            author_citations_rvs(AuthorCitations(1.0, 1e-310), make_rng(Seed(5, 2)), 100)


def test_ex1_float_path_keeps_the_exact_total_of_every_small_field():
    # at p = 0.05 about 12% of the jumps exceed 2^61, so the call sums
    # float64 jumps; each field is summed on its own, so a field whose
    # jumps all lie below 2^53 keeps the exact total of the int64 path
    family, seed, size = FieldCitations(2.0, 0.05, 0.5), Seed(7, 0), 2000
    totals = ex1_rvs(family, make_rng(seed), size)
    rng = make_rng(seed)  # replay the stream: Poisson counts, then the jumps
    counts = rng.poisson(family.lam, size)
    fields = np.split(author_citations_rvs(family.author_law(), rng, int(counts.sum())), np.cumsum(counts)[:-1])
    assert totals.dtype == np.float64
    small = 0
    for total, jumps in zip(totals, fields):
        if (jumps < 2.0 ** 53).all():
            small += 1
            assert total == sum(int(x) for x in jumps)
        else:
            assert np.isfinite(total) and total >= jumps.max()
    assert 0 < small < size


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_segment_sums_match_the_sum_of_each_run(dtype):
    # empty runs first, inside and last; int64 values near 2^61 stay exact
    counts = np.array([0, 3, 0, 0, 2, 1, 0])
    values = (np.arange(1, 7) * 2 ** 58).astype(dtype)
    expected = [sum(run.tolist()) for run in np.split(values, np.cumsum(counts)[:-1])]
    sums = _segment_sums(values, counts)
    assert sums.dtype == dtype and sums.tolist() == expected


SIBUYA_TAIL_KS = (8192, 10 ** 5, 10 ** 7)


def sibuya_survival(k, p):
    """P(X > k) = Gamma(k+1-p)/(Gamma(1-p) Gamma(k+1)) for X ~ Sibuya(p), by mpmath."""
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        return mpmath.exp(mpmath.loggamma(k + 1 - p) - mpmath.loggamma(1 - p) - mpmath.loggamma(k + 1))


def sibuya_tail_z(draws, p):
    """z-scores of the observed P(X > k), k in SIBUYA_TAIL_KS, against the
    exact survival conditioned on X <= 2^61 like the draws."""
    cap = sibuya_survival(2 ** 61, p)
    z = []
    for k in SIBUYA_TAIL_KS:
        f = float((sibuya_survival(k, p) - cap) / (1 - cap))
        z.append((np.count_nonzero(draws > k) / draws.size - f) / np.sqrt(f * (1.0 - f) / draws.size))
    return np.array(z)


def test_sibuya_far_tail_matches_the_exact_survival():
    # k up to 10^7: the far tail, where the pmf and KS checks see few draws
    rng = make_rng(Seed(43, 0))
    draws = uncapped_draws(lambda size: sibuya_rvs(Sibuya(0.3), rng, size), ORACLE_DRAWS)
    assert np.abs(sibuya_tail_z(draws, 0.3)).max() <= 6.0


def test_sibuya_far_tail_oracle_catches_the_symmetric_beta_mutant(monkeypatch):
    # Beta(0.3, 0.3) for Beta(0.3, 0.7) puts less mass on small W, so
    # fewer draws land in the far tail
    symmetric_beta(monkeypatch)
    rng = make_rng(Seed(43, 1))
    draws = uncapped_draws(lambda size: sibuya_rvs(Sibuya(0.3), rng, size), ORACLE_DRAWS)
    assert np.abs(sibuya_tail_z(draws, 0.3)).max() > 6.0


def test_bulk_samplers_are_deterministic():
    x = svh_rvs(SvhStable(1.0, 0.5), make_rng(Seed(3, 0)), 1000)
    y = svh_rvs(SvhStable(1.0, 0.5), make_rng(Seed(3, 0)), 1000)
    assert np.array_equal(x, y)


def _draws_or_refusal(sampler, family, seed, size):
    try:
        return sampler(family, make_rng(seed), size)
    except IterationCapError as error:  # a refused draw must be refused by both
        return str(error)


@given(
    lam=st.floats(0.01, 20.0),
    a=st.floats(0.05, 1.0),
    seed=st.integers(0, 2 ** 64 - 1),
    stream=st.integers(0, 2 ** 64 - 1),
)
@settings(max_examples=50, deadline=None)
def test_svh_is_example1_at_kappa_zero(lam, a, seed, stream):
    svh, ex1 = SvhStable(lam, a), Example1(lam, a, 0.0, 1)
    first = _draws_or_refusal(svh_rvs, svh, Seed(seed, stream), 500)
    second = _draws_or_refusal(ex1_rvs, ex1, Seed(seed, stream), 500)
    assert type(first) is type(second) and np.array_equal(first, second)
    assert svh.matched_pairs() == ex1.matched_pairs()


def test_svh_sampler_matches_transform():
    # 100 atoms: at 60 the table's summed certificate 61 x 1.3e-3 is refused
    rng = make_rng(Seed(12, 0))
    x = svh_rvs(SvhStable(1.0, 0.5), rng, 200_000)
    tv, bound = _tv_check(SvhStable(1.0, 0.5), 100, x)  # 0.0046 against 0.0152
    assert tv < 6e-3
    assert tv <= bound


@pytest.mark.parametrize("m", [1, 2])
def test_ex1_sampler_matches_transform(m):
    # 0.0040 (m = 1) and 0.0048 (m = 2) against bounds of 0.0121 and 0.0113
    family = Example1(1.0, 0.7, 0.3, m)
    tv, bound = _tv_check(family, 200, ex1_rvs(family, make_rng(Seed(16, m)), 250_000))
    assert tv <= bound


# each wrong law is at least twice the bound from the right one in
# table TV: kappa 0.40 against 0.3 reads 0.035 and alpha 0.66 against
# 0.6 reads 0.036 (kappa 0.33, at 0.010, and 0.36, at 0.021, are not);
# the draws read 0.036 and 0.038 against bounds of 0.0113 and 0.0123
@pytest.mark.parametrize("family, drawn", [
    (Example1(1.0, 0.7, 0.3, 2), Example1(1.0, 0.7, 0.4, 2)),
    (SvhStable(1.0, 0.6), SvhStable(1.0, 0.66)),
], ids=["ex1-kappa", "svh-alpha"])
def test_tv_check_fails_draws_of_a_wrong_law(family, drawn):
    tv, bound = _tv_check(family, 200, ex1_rvs(drawn, make_rng(Seed(17, 0)), 250_000))
    assert tv > bound


@pytest.mark.parametrize("tail", [np.int64(101), 2.0 ** 70], ids=["int64", "float64-past-2^61"])
def test_tv_check_counts_draws_past_the_table_as_one_cell(tail):
    # every draw in the tail cell: the distance is the table's mass on
    # atoms 0..100, not half of it
    family = FieldCitations(1.0, 0.5, 0.5)
    tv, _ = _tv_check(family, 100, np.full(1000, tail))
    assert tv == pytest.approx(1.0 - extract_pmf(family, 100).mass_deficit, abs=1e-12)

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
    thinned = np.array([thin_general(int(v), law, rng)[0] for v in x])
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
    out, hits = thin_general(10, law, _TopHitRng())
    assert out == 10  # clamped to the last atom ten times
    assert hits == 10


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
