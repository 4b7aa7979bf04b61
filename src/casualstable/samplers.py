"""Exact, seed-deterministic samplers for the integer and positive laws.

All randomness flows through a counter-based Philox generator keyed by
an explicit ``Seed(value, stream_id)`` pair, so parallel simulations
are reproducible independent of scheduling: one stream per logical
task, never a shared global state.  Each sampler takes the family
object whose law it draws, so parameter domains are checked once, when
the family is constructed.

Two Sibuya samplers are provided.  ``sample_sibuya`` runs the
generative mechanism itself (a paper with k-1 citations stops being
cited with probability p/k), which is exact but heavy-tailed in running
time, so it carries a hard iteration cap.  ``sibuya_rvs`` draws whole
arrays by inverting the survival function (cumulative-product table for
the bulk, bisection on the log-survival for the tail) and is used
wherever millions of draws are needed; the two agree in distribution
and are cross-checked against each other in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IterationCapError,
    ParameterError,
    TableError,
    UnsupportedError,
)
from .extraction import PmfTable
from .families import Example1, Geometric, Sibuya, SvhStable, TemperedStable

__all__ = [
    "Seed",
    "make_rng",
    "sample_geometric",
    "sample_sibuya",
    "thin_general",
    "geometric_rvs",
    "sibuya_rvs",
    "geometric_sums",
    "svh_rvs",
    "ex1_rvs",
    "inverse_gaussian_rvs",
    "SIBUYA_ITERATION_CAP",
]

SIBUYA_ITERATION_CAP = 10 ** 9
# array sampler cap: largest value the int64 pipeline handles safely
SIBUYA_VALUE_CAP = 2 ** 61
_SIBUYA_TABLE_SIZE = 8192
_SIBUYA_BLOCK = 1 << 16
_MAX_TABLE_DEFICIT = 1e-6


@dataclass(frozen=True)
class Seed:
    """Explicit (value, stream) address for a reproducible random stream."""

    value: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("value", "stream_id"):
            v = getattr(self, name)
            if int(v) != v or not 0 <= int(v) < 2 ** 64:
                raise ParameterError(f"{name} must be a 64-bit unsigned integer")
            object.__setattr__(self, name, int(v))

    def with_stream(self, stream_id: int) -> "Seed":
        return Seed(self.value, stream_id)


def make_rng(seed: Seed | int) -> np.random.Generator:
    """Philox generator keyed by (value, stream_id)."""
    if isinstance(seed, int):
        seed = Seed(seed)
    # an explicit uint64 key: a plain list holding a value >= 2^63 is
    # converted through float64, which merges neighbouring seeds
    key = np.array([seed.value, seed.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# scalar sampling operations
# ---------------------------------------------------------------------------


def sample_geometric(family: Geometric, rng: np.random.Generator) -> int:
    """One draw with P(k) = q(1-q)^(k-1), k >= 1."""
    return int(rng.geometric(family.q))


def sample_sibuya(family: Sibuya, rng: np.random.Generator, *, cap: int = SIBUYA_ITERATION_CAP) -> int:
    """One draw from the sequential citation mechanism.

    Start at k = 1; stop with probability p/k, else advance.  The
    resulting law is P(k) = p (1-p)_(k-1)/k! with survival ~ k^(-p).
    Running time is proportional to the value drawn, so the loop stops
    with an ``IterationCapError`` after ``cap`` steps; the error keeps
    runaway tail draws (probability ~ cap^(-p)) from hanging callers.
    """
    p = family.p
    if p == 1.0:
        return 1
    k = 1
    block = 64  # most draws stop within a few steps; grow 64x on escape
    while k <= cap:
        # vectorize the stop trials in blocks; acceptance at step k has
        # probability p/k, checked against one uniform per step
        block = min(block, cap - k + 1)
        steps = np.arange(k, k + block, dtype=float)
        hits = rng.random(block) < (p / steps)
        if hits.any():
            return int(k + np.argmax(hits))
        k += block
        block = min(block * 64, _SIBUYA_BLOCK)
    raise IterationCapError(
        f"sibuya draw exceeded the iteration cap {cap}; the tail event has "
        f"probability ~ cap^(-p) = {cap ** -p:.2e}"
    )


def thin_general(x: int, law: PmfTable, rng: np.random.Generator) -> int:
    """Sum of x independent draws from a tabulated normalizer law.

    A multinomial split of the x draws over the table's atoms (memory
    O(atoms), independent of x, so heavy-tailed counts are safe); the
    residual ``mass_deficit`` is assigned to the largest tabulated atom,
    and ``law.overflow_hits`` counts how often that bucket was used.
    """
    if x < 0:
        raise ParameterError("x must be nonnegative")
    if law.mass_deficit > _MAX_TABLE_DEFICIT:
        raise TableError(
            f"mass_deficit {law.mass_deficit:.3e} exceeds {_MAX_TABLE_DEFICIT:.0e}; "
            "rebuild the table with a larger n_max before sampling"
        )
    if x == 0:
        return 0
    probs = np.clip(law.masses, 0.0, None)  # certified noise only
    pvals = np.append(probs, law.mass_deficit)
    counts = rng.multinomial(x, pvals / pvals.sum())
    if counts[-1]:
        law.overflow_hits += int(counts[-1])
    total = law.ks @ counts[:-1] + law.ks[-1] * counts[-1]
    return int(total)


# ---------------------------------------------------------------------------
# array samplers
# ---------------------------------------------------------------------------


def geometric_rvs(family: Geometric, rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.geometric(family.q, size).astype(np.int64)


def _sibuya_log_survival(k, p: float):
    # log P(X > k) = log [ Gamma(k+1-p) / (Gamma(1-p) Gamma(k+1)) ]; the
    # direct gammaln difference cancels catastrophically once gammaln(k)
    # outgrows the ~18-digit mantissa, so switch to the Stirling ratio
    # log Gamma(z+p) - log Gamma(z) = p log z + p(p-1)/(2z) - p/(12 z^2)
    # + O(z^-3) (z = k+1-p), which is exact to ~1e-18 for k >= 1e6.
    # Imported here: only draws beyond the table need scipy.special,
    # and it would be most of the package's import time
    from scipy.special import gammaln

    k = np.asarray(k, dtype=float)
    z = k + 1.0 - p
    with np.errstate(invalid="ignore"):
        exact = gammaln(z) - gammaln(k + 1.0)
    asymptotic = -(p * np.log(z) + p * (p - 1.0) / (2.0 * z) - p / (12.0 * z * z))
    return np.where(k < 1e6, exact, asymptotic) - gammaln(1.0 - p)


def sibuya_rvs(family: Sibuya, rng: np.random.Generator, size: int) -> np.ndarray:
    """Array of Sibuya(p) draws by exact inversion of the survival function.

    The survival values S(k) = prod_{j<=k} (1 - p/j) are tabulated for
    k <= 8192 and inverted with a binary search; draws falling beyond
    the table are resolved by bisection on the closed-form log-survival
    (log-gamma ratios), so the law is exact over the whole int64 range.
    Draws beyond 2^61 (probability ~ 2^(-61 p)/Gamma(1-p) per draw,
    3.7e-10 at p = 1/2) raise ``IterationCapError`` rather than silently
    overflowing.
    """
    p = family.p
    if size < 0:
        raise ParameterError("size must be nonnegative")
    if p == 1.0:
        return np.ones(size, dtype=np.int64)
    u = rng.random(size)
    steps = np.arange(1, _SIBUYA_TABLE_SIZE + 1, dtype=float)
    survival = np.concatenate([[1.0], np.cumprod(1.0 - p / steps)])
    # S is decreasing: X = min{k : S(k) < u}; search on -S keeps it sorted
    draws = np.searchsorted(-survival, -u, side="right").astype(np.float64)
    in_tail = draws > _SIBUYA_TABLE_SIZE
    if in_tail.any():
        from scipy.special import gammaln

        u_tail = u[in_tail]
        log_u = np.log(u_tail)
        lo = np.full(u_tail.shape, float(_SIBUYA_TABLE_SIZE))
        # S(k) ~ k^(-p)/Gamma(1-p): start the upper bracket at twice the
        # asymptotic quantile and widen geometrically if needed
        hi = np.minimum(
            np.maximum(2.0 * (u_tail * np.exp(gammaln(1.0 - p))) ** (-1.0 / p), 4.0 * _SIBUYA_TABLE_SIZE),
            float(SIBUYA_VALUE_CAP),
        )
        for _ in range(8):
            short = _sibuya_log_survival(hi, p) >= log_u
            if not short.any():
                break
            hi[short] = np.minimum(hi[short] * 16.0, float(SIBUYA_VALUE_CAP))
        if (_sibuya_log_survival(hi, p) >= log_u).any():
            tail = math.exp(-p * math.log(SIBUYA_VALUE_CAP) - math.lgamma(1.0 - p))
            raise IterationCapError(
                f"sibuya draw exceeded the array sampler value cap 2^61 "
                f"(tail probability ~ 2^(-61 p)/Gamma(1-p) = {tail:.2e} per draw)"
            )
        for _ in range(64):
            mid = np.floor(0.5 * (lo + hi))
            above = _sibuya_log_survival(mid, p) >= log_u
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
            if np.all(hi - lo <= 1.0):
                break
        draws[in_tail] = hi
    return draws.astype(np.int64)


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum consecutive runs of ``values`` with run lengths ``counts``."""
    boundaries = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=boundaries[1:])
    prefix = np.concatenate([[0], np.cumsum(values)])
    return prefix[boundaries[1:]] - prefix[boundaries[:-1]]


def geometric_sums(counts, q: float, rng: np.random.Generator):
    """Sum of k independent Geometric(q) draws for each count k.

    Drawn as k + NegativeBinomial(k, q), so a count of 10^9 never
    allocates 10^9 draws; q = 1 returns the counts and draws nothing.
    """
    if q == 1.0:
        return counts
    return counts + rng.negative_binomial(counts, q)


def ex1_rvs(family: Example1, rng: np.random.Generator, size: int) -> np.ndarray:
    """Array sampler for exp{-lam ((1-z^m)/(1-kappa z^m))^gamma}.

    Compound Poisson: Poisson(lam) many jumps, each m times a sum of
    Sibuya(gamma) many Geometric(1-kappa) draws, because
    1 - ((1-w)/(1-kappa w))^gamma is that compound's p.g.f. at w = z^m.
    """
    counts = rng.poisson(family.lam, size)
    papers = sibuya_rvs(Sibuya(family.gamma), rng, int(counts.sum()))
    papers = geometric_sums(papers, 1.0 - family.kappa, rng)
    return family.m * _segment_sums(papers, counts)


def svh_rvs(family: SvhStable, rng: np.random.Generator, size: int) -> np.ndarray:
    """Array sampler for exp{-lam (1-z)^alpha}: ``ex1_rvs`` at kappa = 0, m = 1."""
    return ex1_rvs(family.as_example1(), rng, size)


def inverse_gaussian_rvs(family: TemperedStable, rng: np.random.Generator, size: int) -> np.ndarray:
    """Array of exact inverse Gaussian draws for the alpha = 1/2 family.

    Matching exp{-2 sqrt(lam) (sqrt(s+h) - sqrt(h))} to the standard
    inverse Gaussian transform exp{(l/mu)(1 - sqrt(1 + 2 mu^2 s/l))}
    forces mean mu = sqrt(lam/h) and shape l = 2 lam; the identity is
    re-derived in the tests against the family's ``laplace``.
    """
    if not isinstance(family, TemperedStable):
        raise ParameterError("family must be TemperedStable")
    if abs(family.alpha - 0.5) > 1e-12:
        raise UnsupportedError(
            "exact inverse Gaussian sampling requires alpha = 1/2; "
            f"got alpha = {family.alpha}"
        )
    mean = np.sqrt(family.lam / family.h)
    shape = 2.0 * family.lam
    return rng.wald(mean, shape, size)
