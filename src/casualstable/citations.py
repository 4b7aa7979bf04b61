"""End-to-end simulation of the publication/citation generative model.

A field hosts N ~ Poisson(lam) scientists.  Each scientist writes a
Sibuya(p) number of papers and each paper collects a Geometric(q)
number of citations; the per-author citation count follows the composed
transform 1 - (1 - G(z))^p (``AuthorCitations``), and the field total is
``FieldCitations``, a discrete stable law.  Bulk draws use the Beta
mixture form of that composition: with W ~ Beta(p, 1-p) an author's
count is Geometric(qW), so ``author_rvs`` and ``field_totals`` draw one
W (Joehnk's rejection on a pair of exponentials) and one exponential
per author (``samplers.author_citations_rvs``).
Because the per-author law has survival ~ k^(-p) with infinite mean for
p < 1, sample means are dominated by a single extreme author while the
median stays put: the summary statistics here (mean/median ratio,
top-share, tail exponent, rank correlations across replicates) quantify
how much of a citation-based ranking is noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .families import AuthorCitations, FieldCitations, check_n
from .samplers import Seed, author_citations_rvs, ex1_rvs, make_rng

__all__ = [
    "FieldSim",
    "SimSummary",
    "RankingReport",
    "author_rvs",
    "simulate_field",
    "field_totals",
    "tail_exponent",
    "ranking_instability",
    "lower_median",
    "empirical_mode",
    "top_share",
]

MIN_TAIL_SAMPLES = 10 ** 4
TOP_FRACTION = 0.01


# Each statistic reads a sorted sample, so a field summary sorts once;
# the public functions below sort for themselves.


def _median_of_sorted(ordered: np.ndarray) -> float:
    if ordered.size == 0:
        raise InsufficientDataError("median of an empty sample")
    return float(ordered[(ordered.size - 1) // 2])


def _mode_of_sorted(ordered: np.ndarray) -> int:
    if ordered.size == 0:
        raise InsufficientDataError("mode of an empty sample")
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(starts, append=ordered.size)
    return int(ordered[starts[int(np.argmax(counts))]])


def _top_share_of_descending(x: np.ndarray) -> float:
    k = max(1, int(TOP_FRACTION * x.size))
    total = x.sum()
    return float(x[:k].sum() / total) if total > 0 else 0.0


def _hill_of_descending(x: np.ndarray) -> float:
    if x.size < MIN_TAIL_SAMPLES:
        raise InsufficientDataError(
            f"tail estimation needs at least {MIN_TAIL_SAMPLES} samples >= 1; got {x.size}"
        )
    k = int(TOP_FRACTION * x.size)
    logs = np.log(x[:k])
    spacing = float(np.mean(logs) - np.log(x[k]))
    if spacing <= 0.0:
        return float("inf")
    return 1.0 / spacing


def lower_median(samples: np.ndarray) -> float:
    """Smallest value whose empirical CDF reaches 1/2 (atom-valued)."""
    return _median_of_sorted(np.sort(np.asarray(samples)))


def empirical_mode(samples: np.ndarray) -> int:
    """Most frequent atom; ties broken toward the smaller one."""
    return _mode_of_sorted(np.sort(np.asarray(samples)))


def top_share(samples: np.ndarray) -> float:
    """Share of the total held by the top ``TOP_FRACTION`` of the sample."""
    return _top_share_of_descending(np.sort(np.asarray(samples, dtype=float))[::-1])


@dataclass(frozen=True)
class FieldSim:
    """Configuration of one simulated field: its law and its random stream."""

    family: FieldCitations
    seed: Seed


@dataclass
class SimSummary:
    """Summary statistics of one simulated field."""

    n_scientists: int
    per_author_citations: np.ndarray
    total: int
    mean: float
    median: float
    mode: int
    tail_exponent_hat: float
    top_share: float


@dataclass
class RankingReport:
    """Rank stability of i.i.d. authors across replicate pairs."""

    n_replicates: int
    correlations: np.ndarray
    mean_correlation: float
    mean_median_ratios: np.ndarray


def author_rvs(family: AuthorCitations, rng: np.random.Generator, size: int) -> np.ndarray:
    """Array of per-author citation counts: Sibuya(p) papers, Geometric(q) citations each.

    Drawn from its Beta mixture: Geometric(qW) with
    W ~ Beta(p, 1-p), one W and one exponential per author
    (``samplers.author_citations_rvs``).
    """
    return author_citations_rvs(family, rng, size)


def _summarize(citations: np.ndarray) -> SimSummary:
    n = int(citations.size)
    if n == 0:
        return SimSummary(0, citations, 0, float("nan"), float("nan"), 0, float("nan"), 0.0)
    ordered = np.sort(citations)
    # descending floats, the same view the public functions sum over
    descending = np.asarray(ordered, dtype=float)[::-1]
    try:  # the values >= 1 lead the descending array
        tail_hat = _hill_of_descending(descending[: n - int(np.searchsorted(ordered, 1))])
    except InsufficientDataError:
        tail_hat = float("nan")
    return SimSummary(
        n_scientists=n,
        per_author_citations=citations,
        total=int(citations.sum()),
        mean=float(citations.mean()),
        median=_median_of_sorted(ordered),
        mode=_mode_of_sorted(ordered),
        tail_exponent_hat=tail_hat,
        top_share=_top_share_of_descending(descending),
    )


def simulate_field(cfg: FieldSim) -> SimSummary:
    """Simulate one field: Poisson(lam) authors, aggregate statistics."""
    rng = make_rng(cfg.seed)
    n = int(rng.poisson(cfg.family.lam))
    citations = author_rvs(cfg.family.author_law(), rng, n)
    return _summarize(citations)


def field_totals(cfg: FieldSim, n_fields: int) -> np.ndarray:
    """Array of independent field totals (bulk form of ``simulate_field``).

    The field law is compound Poisson, Poisson(lam) many
    AuthorCitations(p, q) jumps, so the totals are drawn by ``ex1_rvs``.
    """
    return ex1_rvs(cfg.family, make_rng(cfg.seed), check_n(n_fields, "n_fields"))


def tail_exponent(samples) -> float:
    """Hill estimator of the survival exponent on the top ``TOP_FRACTION``.

    Applied to samples >= 1 only; a light (e.g. geometric) tail makes
    the estimate blow up with the threshold, which is the intended
    signal that no power law is present.
    """
    x = np.asarray(samples, dtype=float)
    return _hill_of_descending(np.sort(x[x >= 1])[::-1])


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    # the tie run of value j covers ranks end_j - count_j + 1 .. end_j
    ends = np.cumsum(counts)
    return (ends - 0.5 * (counts - 1))[inverse]


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho: Pearson's r of the average ranks."""
    if np.all(x == x[0]) or np.all(y == y[0]):
        return float("nan")  # ranks undefined for a constant vector
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))


def ranking_instability(cfg: FieldSim, n_replicates: int) -> RankingReport:
    """Rank correlation of identically-parameterized authors across
    independent replicates of the same field.

    Each replicate pair draws one author count N ~ Poisson(lam) and two
    independent citation vectors of length N; since authors are i.i.d.,
    any ranking carried from one replicate to the other is pure chance
    and the expected rank correlation is zero.  The per-replicate
    mean/median ratios document the heavy-tail distortion of the mean.
    """
    n_replicates = check_n(n_replicates, "n_replicates", 2)
    author = cfg.family.author_law()
    correlations = np.empty(n_replicates)
    ratios = np.empty(2 * n_replicates)
    for i in range(n_replicates):
        # three private streams per pair: author count, two citation draws
        base = cfg.seed.stream_id + 3 * i
        n = int(make_rng(cfg.seed.with_stream(base)).poisson(cfg.family.lam))
        n = max(n, 2)
        first = author_rvs(author, make_rng(cfg.seed.with_stream(base + 1)), n)
        second = author_rvs(author, make_rng(cfg.seed.with_stream(base + 2)), n)
        correlations[i] = _spearman(first, second)
        for j, sample in enumerate((first, second)):
            ratios[2 * i + j] = float(sample.mean()) / lower_median(sample)
    defined = correlations[~np.isnan(correlations)]
    return RankingReport(
        n_replicates=n_replicates,
        correlations=correlations,
        mean_correlation=float(defined.mean()) if defined.size else float("nan"),
        mean_median_ratios=ratios,
    )
