"""Exact, seed-deterministic samplers for the integer and positive laws.

All randomness flows through a counter-based Philox generator keyed by
an explicit ``Seed(value, stream_id)`` pair, so parallel simulations
are reproducible independent of scheduling: one stream per logical
task, never a shared global state.  Each sampler takes the family
object whose law it draws, so parameter domains are checked once, when
the family is constructed.

Every array draw of a Sibuya or citation law comes from one Beta
mixture of geometrics: a Sibuya(p) many Geometric(q) sum
(``AuthorCitations``) is one Geometric(qW) draw with W ~ Beta(p, 1-p).
``author_citations_rvs`` draws it as one W and one exponential per
value, each W by Joehnk's rejection on a pair of exponentials
(``_beta``); ``sibuya_rvs`` is its q = 1 case and ``ex1_rvs`` (also
``svh_rvs``) draws every ``CompoundPoisson`` jump through it, so no
sampler searches a table and the value cap lives in one place.
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
from .extraction import PmfTable, extract_pmf
from .families import AuthorCitations, CompoundPoisson, Sibuya, TemperedStable, _Interval, check_n

__all__ = [
    "Seed",
    "make_rng",
    "thin_general",
    "sibuya_rvs",
    "author_citations_rvs",
    "svh_rvs",
    "ex1_rvs",
    "inverse_gaussian_rvs",
]

# array draws: int64 up to INT_CAP (no sum overflows), float64 up to FLOAT_CAP
INT_CAP = 2 ** 61
FLOAT_CAP = float(np.finfo(np.float64).max)
_MAX_TABLE_DEFICIT = 1e-6
_BETA_CHUNK = 16384  # exponential pairs per pass of _beta: 256 KiB, cache-resident
# largest 0.5 (atoms + 1) tol_neg, the certified TV error of _tv_check's atoms and of its tail
TV_CERTIFICATE_TOL = 0.01
# chance that a correct sampler's TV distance exceeds the bound it is judged by
TV_TAIL_PROBABILITY = 1e-9
_UINT64 = _Interval(0, 2 ** 64, "[)", ": a 64-bit unsigned integer")


@dataclass(frozen=True)
class Seed:
    """Explicit (value, stream) address for a reproducible random stream."""

    value: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("value", "stream_id"):
            v = check_n(getattr(self, name), name, 0)  # int(v): no float round trip, so 2^64 - 1 stays exact
            _UINT64.check(name, v)
            object.__setattr__(self, name, v)

    def with_stream(self, stream_id: int) -> "Seed":
        return Seed(self.value, stream_id)


def make_rng(seed: Seed) -> np.random.Generator:
    """Philox generator keyed by (value, stream_id)."""
    # an explicit uint64 key: a plain list holding a value >= 2^63 is
    # converted through float64, which merges neighbouring seeds
    key = np.array([seed.value, seed.stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# scalar sampling operations
# ---------------------------------------------------------------------------


def thin_general(x: int, law: PmfTable, rng: np.random.Generator) -> tuple[int, int]:
    """Sum of x independent draws from a tabulated normalizer law.

    A multinomial split of the x draws over the table's atoms (memory
    O(atoms), independent of x, so heavy-tailed counts are safe); the
    residual ``mass_deficit`` is assigned to the largest tabulated atom,
    and the second value returned counts how often that bucket was used.
    """
    x = check_n(x, "x", 0)
    if law.mass_deficit > _MAX_TABLE_DEFICIT:
        raise TableError(
            f"mass_deficit {law.mass_deficit:.3e} exceeds {_MAX_TABLE_DEFICIT:.0e}; "
            "rebuild the table with a larger n_max before sampling"
        )
    if x == 0:
        return 0, 0
    probs = np.clip(law.masses, 0.0, None)  # certified noise only
    pvals = np.append(probs, law.mass_deficit)
    counts = rng.multinomial(x, pvals / pvals.sum())
    total = law.ks @ counts[:-1] + law.ks[-1] * counts[-1]
    return int(total), int(counts[-1])


# ---------------------------------------------------------------------------
# array samplers
# ---------------------------------------------------------------------------


def _cap_tail(p: float, q: float) -> float:
    """P(X > N) per draw for X ~ AuthorCitations(p, q), N the float64 maximum; q = 1 is Sibuya(p).

    E[(1 - qW)^N] with W ~ Beta(p, 1-p); W has density
    ~ w^(p-1)/(Gamma(p) Gamma(1-p)) near 0, so the tail is asymptotically
    (q N)^(-p)/Gamma(1-p).  At p = 1, W = 1 and the tail is (1-q)^N.
    """
    if p == 1.0:
        return math.exp(FLOAT_CAP * math.log1p(-q)) if q < 1.0 else 0.0
    return min(1.0, math.exp(-p * math.log(q * FLOAT_CAP) - math.lgamma(1.0 - p)))


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum consecutive runs of ``values`` with run lengths ``counts``."""
    if values.dtype.kind == "f":  # each run on its own: a huge value must not round later runs
        runs = np.repeat(np.arange(len(counts)), counts)
        return np.bincount(runs, weights=values, minlength=len(counts))
    prefix = np.zeros(values.size + 1, dtype=values.dtype)
    np.cumsum(values, out=prefix[1:])
    return np.diff(prefix[np.cumsum(counts)], prepend=0)


def _beta(rng: np.random.Generator, a: float, b: float, size: int) -> np.ndarray:
    """Array of Beta(a, b) draws by Joehnk's rejection on exponential pairs.

    For U, V uniform, X = U^(1/a) and Y = V^(1/b) conditioned on
    X + Y <= 1 give X/(X+Y) ~ Beta(a, b) (Joehnk 1964, Metrika 8:5;
    Devroye 1986, Non-Uniform Random Variate Generation, IX.3).  With
    E = -log U standard exponential, U^(1/a) = exp(-E/a), so each pass
    draws a chunk of ziggurat exponential pairs, exponentiates them in
    place and keeps X/(X+Y) wherever X + Y <= 1; a pass keeps a pair with
    probability Gamma(a+1) Gamma(b+1)/Gamma(a+b+1), at least pi/4 when
    a + b = 1, and the surplus of the last pass is dropped.

    With a + b = 1, X + Y > 0 always: max(a, b) >= 1/2 and a ziggurat
    exponential stays below about 45, so max(X, Y) >= exp(-90).  A W
    that underflows to 0 or a subnormal is returned as it is, as
    numpy's ``beta`` would; the caller refuses the value it yields.
    Size 0 draws nothing.
    """
    out = np.empty(size)
    pair = np.empty((2, min(_BETA_CHUNK, size + size // 2 + 8)))
    x, y = pair
    filled = 0
    while filled < size:
        rng.standard_exponential(out=pair)
        x *= -1.0 / a
        y *= -1.0 / b
        np.exp(pair, out=pair)
        y += x
        keep = y <= 1.0
        w = x[keep]
        w /= y[keep]
        take = min(w.size, size - filled)
        out[filled:filled + take] = w[:take]
        filled += take
    return out


def author_citations_rvs(family: AuthorCitations, rng: np.random.Generator, size: int) -> np.ndarray:
    """Array of AuthorCitations(p, q) draws: Sibuya(p) many Geometric(q) each.

    The Sibuya law is a Beta mixture of geometrics: for W ~ Beta(p, 1-p),
    E[(1-z)/(1-z+Wz)] = (1-z)^p, because 2F1(1, p; 1; -c) = (1+c)^(-p).
    A Geometric(W) sum of Geometric(q) draws is Geometric(qW), so each
    value is X = 1 + floor(E / -log(1 - qW)) with E standard exponential:
    one W (by ``_beta``, Joehnk's rejection on exponential pairs) and one
    exponential per draw, all W first, then all E.  At p = 1, W = 1 and
    no Beta is drawn.  The values are int64, or float64
    when a draw exceeds 2^61 (~ (q 2^61)^(-p)/Gamma(1-p) per draw,
    5.25e-10 at p = q = 1/2); a draw beyond the float64 maximum F
    (~ (q F)^(-p)/Gamma(1-p), 4e-16 at p = 0.05) raises ``IterationCapError``.
    """
    p, q = family.p, family.q
    size = check_n(size, "size", 0)
    w = np.ones(size) if p == 1.0 else _beta(rng, p, 1.0 - p, size)
    e = rng.standard_exponential(size)
    # in place: e becomes floor(E / rate) with rate = -log(1 - qW); qW = 1
    # gives rate inf and X = 1, a W that underflows to 0 or a subnormal
    # gives an infinite value, refused below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        np.multiply(w, -q, out=w)
        np.log1p(w, out=w)
        np.divide(e, w, out=e)
        np.negative(e, out=e)
        np.floor(e, out=e)
    top = e.max() if size else 0.0
    if top < INT_CAP:
        draws = e.astype(np.int64)
        draws += 1
        return draws
    if not np.isfinite(top):  # a NaN (E = 0 over rate 0) too
        raise IterationCapError(
            f"draw exceeded the array sampler value cap, the float64 maximum {FLOAT_CAP:.1e} "
            f"(tail probability ~ (q {FLOAT_CAP:.1e})^(-p)/Gamma(1-p) = {_cap_tail(p, q):.2e} per draw)"
        )
    e += 1.0
    return e


def sibuya_rvs(family: Sibuya, rng: np.random.Generator, size: int) -> np.ndarray:
    """Array of Sibuya(p) draws: ``author_citations_rvs`` at q = 1.

    Sibuya(p) is AuthorCitations(p, 1), so each value is Geometric(W)
    with W ~ Beta(p, 1-p); float64 values past 2^61 (3.7e-10 per draw at
    p = 1/2) and the value cap work as there.
    """
    return author_citations_rvs(AuthorCitations(family.p, 1.0), rng, size)


def ex1_rvs(family: CompoundPoisson, rng: np.random.Generator, size: int) -> np.ndarray:
    """Array sampler for a compound-Poisson law exp{-lam (1 - J(z^m))}.

    Poisson(lam) many jumps, each m times an ``AuthorCitations(gamma, q)``
    draw (a Sibuya(gamma) many Geometric(q) sum), with (gamma, q, m) from
    ``family.jump()``; float64 totals when a jump exceeds 2^61.
    """
    gamma, q, _, m = family.jump()
    counts = rng.poisson(family.lam, check_n(size, "size", 0))
    jumps = author_citations_rvs(AuthorCitations(gamma, q), rng, int(counts.sum()))
    return m * _segment_sums(jumps, counts)


svh_rvs = ex1_rvs


def _tv_check(family: CompoundPoisson, atoms: int, draws: np.ndarray) -> tuple[float, float]:
    """TV distance of ``draws`` from the family's law, and the bound a correct sampler keeps.

    Both laws are collapsed onto the cells 0, ..., atoms and > atoms, the
    last holding the table's ``mass_deficit``.  A correct sampler exceeds
    the bound with probability below ``TV_TAIL_PROBABILITY``: E[TV] <= 0.5
    sum sqrt(p_k (1 - p_k)/N) (Jensen), and one draw moves TV by at most
    1/N, so by McDiarmid TV exceeds its mean by sqrt(log(1/delta)/(2N))
    with probability below delta; each mass may be off by tol_neg and the
    deficit by (atoms + 1) tol_neg, so (atoms + 1) tol_neg is added.
    """
    table = extract_pmf(family, atoms, tol=2.0 * TV_CERTIFICATE_TOL / (atoms + 1))
    shares = np.bincount(np.minimum(draws, atoms + 1).astype(np.int64, copy=False), minlength=atoms + 2) / len(draws)
    cells = np.append(table.masses, table.mass_deficit)
    tv = 0.5 * float(np.abs(shares - cells).sum())
    mean = 0.5 * float(np.sqrt(np.clip(cells * (1.0 - cells), 0.0, None) / len(draws)).sum())  # 0 off [0, 1]
    deviation = math.sqrt(math.log(1.0 / TV_TAIL_PROBABILITY) / (2.0 * len(draws)))
    return tv, float(mean + deviation + table.tol_neg * table.masses.size)


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
