"""Residual certification of the stability identities.

Discrete stability: P(z) = P(Q_p(z))^n with the normalizing thinning
parameter p = p(n).  Casual stability: L(s) = L(-log g_n(s))^n.  Both
are checked as sup-norm residuals over dense grids; when the identity
holds the residual sits at rounding level (1e-14 or below), and a 1%
perturbation of p(n) lifts it above 1e-4, so the checks cannot pass
vacuously.  The discrete check also takes an n-sweep: equal-length
sequences of n and p give one report per (n, p) pair, and the left
side P(z), which does not depend on n, is evaluated once.  Thinnings
compose through their linearizing coordinate, with no search.

Residuals are evaluated entirely in the complement domain u = 1 - z
(see ``families``): the thinning complement 1 - Q_p(z) feeds the
family's complement kernel directly, which keeps the comparison
meaningful near z = 1 where literal composition loses every digit.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, UnsupportedError
from .extraction import ResidualReport
from .families import LaplaceFamily, PgfFamily, ThinningFamily, _Interval, check_kind, check_n

__all__ = [
    "default_z_grid",
    "default_s_grid",
    "discrete_stability_residual",
    "casual_stability_residual",
    "commutativity_residual",
    "compose_thinning",
    "solve_pn",
]

Z_GRID_POINTS = 2001
Z_GRID_TOP = 1.0 - 1e-6
S_GRID_POINTS = 200
S_GRID_DECADES = (-3.0, 3.0)
_Z_DOMAIN = _Interval(-1, 1, "[]", ", the real points of the closed unit disk")
_FINITE = _Interval(-np.inf, np.inf)


def default_z_grid() -> np.ndarray:
    """Uniform grid on [0, 1 - 1e-6]: dense approach to the branch point."""
    return np.linspace(0.0, Z_GRID_TOP, Z_GRID_POINTS)


def default_s_grid() -> np.ndarray:
    """Log-spaced transform grid on [1e-3, 1e3]."""
    return np.logspace(S_GRID_DECADES[0], S_GRID_DECADES[1], S_GRID_POINTS)


def _sup_report(residuals: np.ndarray, grid: np.ndarray, spec: str) -> ResidualReport:
    worst = int(np.argmax(residuals))
    return ResidualReport(
        sup_residual=float(residuals[worst]),
        argmax_point=float(grid[worst]),
        grid_spec=spec,
    )


def discrete_stability_residual(family, thinning, n, p, z_grid=None):
    """sup_z |P(z) - P(Q_p(z))^n| over the grid, in complement form.

    Scalar n and p give one report.  Equal-length sequences n and p give
    a list with one report per (n, p) pair; the grid and the left side
    P(z), which does not depend on n, are evaluated once for the sweep.
    A pair whose 1 - Q_p(z) is 0 or subnormal where z < 1 is refused:
    P(Q_p(z)) would read as P(1), and the residual show the underflow.
    """
    check_kind(family, PgfFamily, "p.g.f.")
    check_kind(thinning, ThinningFamily, "thinning")
    sweep = np.ndim(n) > 0
    if sweep != (np.ndim(p) > 0) or (sweep and len(n) != len(p)):
        raise ParameterError("n and p must be two scalars or two sequences of equal length")
    pairs = list(zip(n, p)) if sweep else [(n, p)]
    for n_k, p_k in pairs:  # every pair, before any evaluation
        check_n(n_k)
        thinning.check_p(p_k)
    z = _Z_DOMAIN.grid("z grid", z_grid, default_z_grid)
    u = 1.0 - z
    inside, tiny = u > 0.0, np.finfo(float).tiny
    lhs = family.pgf_from_complement(u)
    spec = f"z grid {z.size} points on [{z.min():g}, {z.max():g}], complement-form evaluation"
    reports = []
    for n_k, p_k in pairs:
        thinned = thinning.complement_map(p_k, u)
        if np.any(inside & (np.abs(thinned) < tiny)):
            raise ParameterError(f"1 - Q_p(z) underflows at n = {n_k}, p = {float(p_k)!r}: 0 or subnormal where z < 1")
        residual = np.abs(lhs - family.pgf_from_complement(thinned) ** n_k)
        reports.append(_sup_report(residual, z, f"{spec}, n={n_k}, p={float(p_k)!r}"))
    return reports if sweep else reports[0]


def casual_stability_residual(family, n: int, s_grid=None) -> ResidualReport:
    """sup_s |L(s) - L(-log g_n(s))^n| over the grid, in log space."""
    check_kind(family, LaplaceFamily, "Laplace")
    check_n(n)
    s = _FINITE.grid("s grid", s_grid, default_s_grid)
    lhs = np.exp(family.log_laplace(s))
    rhs = np.exp(n * family.log_laplace(family.neg_log_gfun(n, s)))
    return _sup_report(
        np.abs(lhs - rhs),
        s,
        f"s grid {s.size} log points on [{s.min():g}, {s.max():g}], "
        f"log-space evaluation, n={n}",
    )


def commutativity_residual(thinning, p1: float, p2: float, z_grid=None) -> ResidualReport:
    """sup_z |Q_p1(Q_p2(z)) - Q_p2(Q_p1(z))|: semigroup commutativity."""
    check_kind(thinning, ThinningFamily, "thinning")
    z = _Z_DOMAIN.grid("z grid", z_grid, default_z_grid)
    u = 1.0 - z
    forward = thinning.complement_map(p1, thinning.complement_map(p2, u))
    backward = thinning.complement_map(p2, thinning.complement_map(p1, u))
    return _sup_report(
        np.abs(forward - backward),
        z,
        f"z grid {z.size} points, complement-form composition, "
        f"p1={float(p1)!r}, p2={float(p2)!r}",
    )


def compose_thinning(thinning, p1: float, p2: float, z_grid=None) -> tuple[float, float]:
    """Empirical composition law: fit Q_p1 o Q_p2 by a single Q_p_eff.

    The thinning's coordinate c has c(1 - Q_p(z)) = p c(u), so p_eff is
    the median of c(target)/c(u) where c(u) is finite and nonzero (not at
    z = 1).  Returns (p_eff, sup_z |1 - Q_p_eff(z) - target|); non-closure
    shows up as a residual above tolerance rather than an error.
    """
    check_kind(thinning, ThinningFamily, "thinning")
    z = _Z_DOMAIN.grid("z grid", z_grid, default_z_grid)
    u = 1.0 - z
    target = thinning.complement_map(p1, thinning.complement_map(p2, u))
    base = thinning.coordinate(u)
    usable = np.isfinite(base) & (base != 0.0)
    if not usable.any():
        raise ParameterError("z grid needs a point where the thinning coordinate is finite and nonzero (z != 1)")
    ratios = np.sort(thinning.coordinate(target[usable]) / base[usable])
    p_eff = float(ratios[ratios.size // 2])  # the upper median
    return p_eff, float(np.abs(thinning.complement_map(p_eff, u) - target).max())


def solve_pn(family, thinning, n: int) -> float:
    """Normalizing thinning parameter p(n) for n-fold stability.

    Matched (family, thinning) pairs, as the family reports them in
    ``matched_pairs``, admit the closed form p(n) = n^(-1/exponent); the
    residual checker certifies the choice.  Raises ``UnsupportedError``
    for an unmatched pair, and ``ParameterError`` when p(n) underflows
    to 0 or a subnormal or lands outside the thinning family's domain
    (m > 1 needs n^(-1/gamma) < kappa).
    """
    check_n(n)
    if n == 1:
        return 1.0
    check_kind(thinning, ThinningFamily, "thinning")
    exponent = dict(family.matched_pairs()).get(thinning) if isinstance(family, PgfFamily) else None
    if exponent is None:
        raise UnsupportedError(f"{thinning!r} is not a matched thinning of {family!r}")
    p = float(n) ** (-1.0 / exponent)
    if p < np.finfo(float).tiny:
        raise ParameterError(f"p(n) = n^(-1/{exponent:g}) underflows at n = {n}: {p:.3g} is not a normal float64")
    thinning.check_p(p)  # admissibility: raises outside the domain
    return p
