"""The tests' own reference implementations: sequential mechanisms and
views that the library's bulk forms are checked against, kept out of
the package because nothing in it calls them."""

from __future__ import annotations

import numpy as np

from casualstable import AuthorCitations, CompoundPoisson, Example1, Geometric, IterationCapError, Sibuya

SIBUYA_ITERATION_CAP = 10 ** 9
_SIBUYA_BLOCK = 1 << 16


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


def geometric_rvs(family: Geometric, rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.geometric(family.q, size).astype(np.int64)


def simulate_author(family: AuthorCitations, rng: np.random.Generator) -> int:
    """Citations of one author: Sibuya(p) papers, Geometric(q) each.

    The sum of S ~ Sibuya(p) independent Geometric(q) draws has exactly
    the composed p.g.f. 1 - (1 - qz/(1-(1-q)z))^p.
    """
    papers = sample_sibuya(Sibuya(family.p), rng)
    # k + NegativeBinomial(k, q) is a sum of k Geometric(q) draws
    return int(papers + rng.negative_binomial(papers, family.q))


def as_example1(family: CompoundPoisson) -> Example1:
    """The ``Example1`` with the same law as a compound-Poisson family, read from its ``jump()``."""
    gamma, _, kappa, m = family.jump()
    return Example1(lam=family.lam, gamma=gamma, kappa=kappa, m=m)
