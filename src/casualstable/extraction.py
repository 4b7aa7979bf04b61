"""Coefficient extraction from p.g.f.s by Fourier inversion on a circle.

c_k = (1/(2 pi r^k)) integral P(r e^(i t)) e^(-i k t) dt, approximated
by a size-N discrete Fourier transform of samples on the circle |z| = r,
r < 1.  The error has two certified parts:

* aliasing: the DFT folds coefficients k + N, k + 2N, ... into c_k; for
  a bounded-coefficient p.g.f. this is at most M r^N/(1 - r^N) with
  M = max |P| on the circle, reported conservatively with n_max in
  place of N (N >= 8 n_max, so the true aliasing is far smaller);
* rounding: the DFT sum cancels down to c_k r^k, so roundoff of order
  eps M sqrt(log2(N)/N) survives division by r^k; at k = n_max this
  floor is eps M sqrt(log2(N)/N)/r^n_max and dominates the bound for
  deep extractions.

The recorded ``tol_neg`` is the sum of both parts (floored at 1e-9) and
certifies the claim "every true coefficient is >= extracted - tol_neg";
a genuine negative mass therefore shows up as a coefficient below
-tol_neg, which is how p.g.f. validity is tested.  A requested ``tol``
that the bound exceeds is refused naming the part that dominates: the
rounding part falls as r rises or n_max falls, the aliasing part falls
as r falls or n_max rises.

The sample points r e^(2 pi i j/N) depend only on (N, r), so each circle
is built once and cached as a read-only array: every table of the same
size and radius shares it, and a closure that writes into its argument
raises instead of corrupting the next table.

The p.g.f. is evaluated on N // 2^14 contiguous blocks of the circle,
each written into its slice of one values buffer, which the FFT then
transforms in place.  A table allocates no whole-circle temporary, so
the kernel's temporaries stay small and are reused from block to block
instead of being faulted in afresh for every table.  The blocks hold at
least 2^14 points because numpy elides a temporary of 256 KiB or more
(``u * t`` runs as the in-place ``t *= u``), and the in-place complex
multiply rounds differently: a 2^14-point complex block is exactly
256 KiB, so each complex temporary elides on a block just as it does on
the whole circle and the table is bitwise the same.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PrecisionError
from .families import PgfFamily, _Interval, check_n

__all__ = [
    "ResidualReport",
    "PmfTable",
    "extract_pmf",
    "validate_pgf",
    "radial_norm_defect",
    "fft_points",
    "DEFAULT_RADIUS",
    "DEFAULT_TOL_NEG",
]

DEFAULT_RADIUS = 0.9
DEFAULT_TOL_NEG = 1e-9
_ROUNDING_SAFETY = 2.0
# the smallest block whose complex temporaries numpy elides (module docstring)
_BLOCK_POINTS = 1 << 14
# 8 * 2^23 points make a 1 GiB complex circle, and a table holds the
# circle and its values buffer at once (2 GiB at the cap); a deeper
# request is refused before anything is allocated
_MAX_N_MAX = 1 << 23
_RADIUS = _Interval(0, 1)
_RESIDUAL = _Interval(0, np.inf, "[]")  # a residual that overflows to inf is reported, not refused
_DEFICIT = _Interval(0, 1, "[]")


@dataclass
class ResidualReport:
    """Sup-norm residual of a functional identity over an evaluation grid."""

    sup_residual: float
    argmax_point: float
    grid_spec: str

    def __post_init__(self) -> None:
        _RESIDUAL.check("sup_residual", self.sup_residual)


@dataclass
class PmfTable:
    """Truncated probability mass table with a certified deficit bound.

    ``masses[i]`` is the extracted coefficient at atom ``ks[i]``;
    ``mass_deficit`` is 1 - sum(masses) clamped to [0, 1] (tail mass
    beyond the table); ``tol_neg`` is the certified extraction error
    bound described in the module docstring.
    """

    ks: np.ndarray
    masses: np.ndarray
    mass_deficit: float
    tol_neg: float = DEFAULT_TOL_NEG

    def __post_init__(self) -> None:
        self.ks = np.asarray(self.ks, dtype=np.int64)
        self.masses = np.asarray(self.masses, dtype=float)
        if self.ks.shape != self.masses.shape:
            raise ParameterError("ks and masses must have identical shapes")
        _DEFICIT.check("mass_deficit", self.mass_deficit)

    @property
    def atoms(self) -> list[tuple[int, float]]:
        return list(zip(self.ks.tolist(), self.masses.tolist()))

    @property
    def min_mass(self) -> float:
        return float(self.masses.min())

    @property
    def argmin_atom(self) -> int:
        return int(self.ks[int(np.argmin(self.masses))])


def _as_pgf_callable(pgf):
    """Accept a p.g.f. family or a bare closure; return a callable on z."""
    if isinstance(pgf, PgfFamily):
        return pgf.pgf
    if callable(pgf):
        return pgf
    raise ParameterError(f"not a p.g.f. family or callable: {pgf!r}")


def fft_points(n_max: int) -> int:
    # the k = n_max rounding floor eps M/(sqrt(N) r^k) is the budget
    # driver: N = 65536 keeps it near 1e-9 at radius 0.9, n_max = 200
    if n_max > _MAX_N_MAX:
        raise ParameterError(f"n_max must be at most 2^23 = {_MAX_N_MAX}, not {n_max}")
    return max(1 << 16, 8 * n_max)


@functools.lru_cache(maxsize=4)
def _circle(n_points: int, radius: float) -> np.ndarray:
    circle = radius * np.exp(2j * np.pi * np.arange(n_points) / n_points)
    circle.setflags(write=False)
    return circle


def extract_pmf(pgf, n_max: int, radius: float = DEFAULT_RADIUS, *, tol: float | None = None) -> PmfTable:
    """Extract atoms 0..n_max of a p.g.f. by DFT on the circle |z| = radius.

    ``pgf`` is called once per block of the circle (module docstring)
    and must return one value per point of its block.  ``n_max`` may be
    at most 2^23, with ``radius ** n_max`` a normal float.  ``tol`` is an
    optional precision request: when given, a ``PrecisionError`` is
    raised if the certified bound exceeds it, naming the larger part:
    rounding shrinks as the radius rises or n_max falls, aliasing as the
    radius falls or n_max rises.  Without a request the table is
    returned with the bound recorded in ``tol_neg``.
    """
    n_max = check_n(n_max, "n_max")
    _RADIUS.check("radius", radius)
    f = _as_pgf_callable(pgf)
    n_points = fft_points(n_max)
    if radius ** n_max < np.finfo(float).tiny:  # 0 or subnormal: the bounds and 1/r^k are meaningless
        raise ParameterError(f"radius ** n_max = {radius} ** {n_max} underflows; raise the radius or lower n_max")
    values = np.empty(n_points, dtype=complex)
    blocks = n_points // _BLOCK_POINTS
    for z, out in zip(np.array_split(_circle(n_points, radius), blocks), np.array_split(values, blocks)):
        block = f(z)
        if np.shape(block) != z.shape:
            raise ParameterError(f"the p.g.f. returned shape {np.shape(block)} on a block of {z.size} points")
        out[...] = block
    peak = float(np.abs(values).max())
    ks = np.arange(n_max + 1)
    coeffs = np.fft.fft(values, out=values).real[: n_max + 1] / n_points / radius ** ks

    alias_bound = peak * radius ** n_max / (1.0 - radius ** n_max)
    rounding_bound = (
        _ROUNDING_SAFETY * np.finfo(float).eps * peak
        * np.sqrt(np.log2(n_points) / n_points) / radius ** n_max
    )
    certified = alias_bound + rounding_bound
    if tol is not None and certified > tol:
        if rounding_bound >= alias_bound:
            detail = (f"rounding part {rounding_bound:.3e} dominates (aliasing {alias_bound:.3e}); "
                      "raise the radius or lower n_max")
        else:
            detail = (f"aliasing part {alias_bound:.3e} dominates (rounding {rounding_bound:.3e}); "
                      "lower the radius or raise n_max")
        raise PrecisionError(
            f"certified extraction bound {certified:.3e} exceeds requested "
            f"tolerance {tol:.3e} (radius={radius}, n_max={n_max}): its {detail}"
        )
    deficit = float(np.clip(1.0 - coeffs.sum(), 0.0, 1.0))
    return PmfTable(
        ks=ks,
        masses=coeffs,
        mass_deficit=deficit,
        tol_neg=max(certified, DEFAULT_TOL_NEG),
    )


def radial_norm_defect(pgf) -> float:
    """|P(1 - 10^-6) - 1|: normalization defect along the radial limit."""
    f = _as_pgf_callable(pgf)
    return float(abs(f(1.0 - 10.0 ** -6) - 1.0))


def validate_pgf(pgf, n_max: int = 200, tol: float = 1e-8) -> ResidualReport:
    """Check that a closure is a p.g.f.: nonnegative coefficients, mass 1.

    Returns a report whose ``sup_residual`` is the nonnegativity
    violation max(0, -min coefficient), for the caller to compare with
    its own bound.  ``tol`` is only recorded in ``grid_spec``, next to
    the normalization defect |P(1-) - 1| (radial limit); it is not
    enforced.
    """
    table = extract_pmf(pgf, n_max=n_max)
    defect = radial_norm_defect(pgf)
    violation = max(0.0, -table.min_mass)
    return ResidualReport(
        sup_residual=violation,
        argmax_point=float(table.argmin_atom),
        grid_spec=(
            f"fourier circle radius={DEFAULT_RADIUS} points={fft_points(n_max)} "
            f"n_max={n_max}; min coefficient {table.min_mass:.6e} at "
            f"k={table.argmin_atom}; tol_neg={table.tol_neg:.3e}; "
            f"norm_defect={defect:.6e}; tol={tol:g}"
        ),
    )
