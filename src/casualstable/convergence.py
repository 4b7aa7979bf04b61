"""Limit-theorem harness for g_n-normalized sums of positive variables.

If h is the Laplace transform of X and L a casual stable target with
normalizers g_n, the transform of the normalized n-fold sum is
h(-log g_n(s))^n.  Convergence of that quantity to L(s) is guaranteed
by two conditions:

(a) sup_{s>0} |h(s) - L(s)| / s^a is finite for some a > 0, and
(b) sup_{s>0} n s^a / g_n^{-1}(e^{-s})^a tends to 0 with n.

The inverse normalizer has a closed form for both families.  For
Gamma g_n^{-1}(e^{-s}) = ((1+bs)^n - 1)/b, and condition (b) is bounded
by 1/n^(a-1) because (1+bs)^n - 1 >= n b s.  For TemperedStable
x = g_n^{-1}(e^{-s}) solves (x+h)^alpha = n (s+h)^alpha - (n-1) h^alpha.
The harness evaluates everything on a wide log-grid, a faithful proxy
for the sup because all the transforms involved are smooth and
monotone; a genuinely divergent sup shows up as the grid edge
dominating, which ``convergence_curve`` reports as a warning.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ParameterError
from .families import _POSITIVE, Gamma, LaplaceFamily, check_kind, check_n

__all__ = [
    "default_conv_grid",
    "normalized_sum_transform",
    "condition_a",
    "condition_b",
    "g_inverse",
    "convergence_curve",
    "matched_exponential",
]

CONV_GRID_POINTS = 400
CONV_GRID_DECADES = (-4.0, 4.0)


def default_conv_grid() -> np.ndarray:
    """Log-spaced grid on [1e-4, 1e4] used for the sup-over-s proxies."""
    return np.logspace(CONV_GRID_DECADES[0], CONV_GRID_DECADES[1], CONV_GRID_POINTS)


def matched_exponential(family: Gamma):
    """Exponential Laplace transform matched in mean to the Gamma target.

    h(s) = 1/(1 + b gamma s) shares the value and first derivative of
    L at s = 0, so |h - L| = O(s^2) and condition (a) holds with a = 2.
    """
    if not isinstance(family, Gamma):
        raise ParameterError("matched_exponential targets a Gamma family")
    mean = family.b * family.gamma_shape

    def h(s):
        return 1.0 / (1.0 + mean * np.asarray(s, dtype=float))

    return h


def normalized_sum_transform(h, family, n: int, s) -> np.ndarray:
    """Laplace transform h(-log g_n(s))^n of the normalized n-fold sum."""
    check_kind(family, LaplaceFamily, "Laplace")
    check_n(n)
    return np.asarray(h(family.neg_log_gfun(n, s))) ** n


def condition_a(h, family, a: float, s_grid=None) -> float:
    """Grid sup of |h(s) - L(s)| / s^a (condition (a) of the theorem)."""
    check_kind(family, LaplaceFamily, "Laplace")
    _POSITIVE.check("a", a)
    s = _POSITIVE.grid("s grid", s_grid, default_conv_grid)
    return float(np.max(np.abs(np.asarray(h(s)) - family.laplace(s)) / s ** a))


def g_inverse(family, n: int, s) -> np.ndarray:
    """Inverse normalizer x = g_n^{-1}(e^{-s}), i.e. -log g_n(x) = s.

    Closed form for both families, overflowing to inf for huge n s
    (downstream ratios treat inf as a zero contribution):
    Gamma ((1+bs)^n - 1)/b; TemperedStable h((1 + n d)^(1/alpha) - 1)
    with d = (1+s/h)^alpha - 1, evaluated through expm1/log1p so small
    s keeps its relative accuracy.
    """
    check_kind(family, LaplaceFamily, "Laplace")
    check_n(n)
    s = np.asarray(s, dtype=float)
    if s.size:
        _POSITIVE.check("s", np.min(s))
    with np.errstate(over="ignore"):
        if isinstance(family, Gamma):
            return np.expm1(n * np.log1p(family.b * s)) / family.b
        d = np.expm1(family.alpha * np.log1p(s / family.h))
        return family.h * np.expm1(np.log1p(n * d) / family.alpha)


def condition_b(family, a: float, n_list, s_grid=None) -> list[float]:
    """Grid sup of n s^a / g_n^{-1}(e^{-s})^a for each n (condition (b))."""
    check_kind(family, LaplaceFamily, "Laplace")
    _POSITIVE.check("a", a)
    s = _POSITIVE.grid("s grid", s_grid, default_conv_grid)
    values = []
    for n in n_list:
        inverse = g_inverse(family, n, s)
        values.append(float(np.max(n * (s / inverse) ** a)))
    return values


def convergence_curve(h, family, n_list, s_grid=None, a: float = 2.0) -> list[tuple[int, float]]:
    """sup_s |h(-log g_n(s))^n - L(s)| for each n in n_list.

    The theorem's two conditions are screened first at the given a; a
    sup that keeps growing toward the small-s grid edge (condition (a))
    or a non-decreasing condition (b) sequence triggers a warning, not
    an error, since the grid can only witness divergence, not prove it.
    """
    check_kind(family, LaplaceFamily, "Laplace")
    _POSITIVE.check("a", a)
    s = _POSITIVE.grid("s grid", s_grid, default_conv_grid)
    ns = []
    for n in n_list:
        ns.append(check_n(n))
    target = family.laplace(s)

    gap = np.abs(np.asarray(h(s)) - target) / s ** a
    edge = int(np.argmax(gap))
    if edge == 0:
        # a sup at the small-s edge is only divergence if it keeps growing
        # below the grid; probe one decade down to tell the two apart
        probe = s[0] / 10.0
        gap_probe = float(np.abs(h(probe) - family.laplace(probe)) / probe ** a)
        if gap_probe > 2.0 * gap[0] > 0.0:
            warnings.warn(
                "condition (a) looks grid-divergent: |h - L|/s^a keeps "
                "growing below the small-s grid edge; the candidate h may "
                "not match the target's mean",
                stacklevel=2,
            )
    if len(ns) >= 2:
        b_vals = condition_b(family, a, [min(ns), max(ns)], s)
        if b_vals[-1] >= b_vals[0] and min(ns) != max(ns):
            warnings.warn(
                "condition (b) is not decreasing between the smallest and "
                "largest n; the normalizers may not contract",
                stacklevel=2,
            )
    curve = []
    for n in ns:
        distance = float(np.max(np.abs(normalized_sum_transform(h, family, n, s) - target)))
        curve.append((n, distance))
    return curve
