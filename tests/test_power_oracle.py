"""Complex powers and p.g.f. kernels against an mpmath reference.

The reference evaluates each closed form at 30 significant digits from
the same double-precision complement u that the kernel receives, with
every parameter converted to mpf first (forming 1 - p or p - kappa in
double precision would put a rounding error into the reference itself).
A kernel's relative error is compared with a few ulps times the
condition number of its last step, which amplifies the error of the
power inside it: 1 + |log P| for P = exp(-lam x^a), 1 + |1 - P|/|P| for
P = 1 - x^a, and 1 for a complement map.

Three point sets: the radius-0.9 extraction circle, complex points with
|1 - z| from 1e-1 down to 1e-8, and the negative real axis with a signed
zero imaginary part, where x + 0j and x - 0j lie on either side of the
principal branch cut.
"""

import mpmath
import numpy as np
import pytest

from casualstable import (
    AuthorCitations,
    Example1,
    Example1Thin,
    Example2,
    Example2Thin,
    FieldCitations,
    Sibuya,
    SvhStable,
)
from casualstable import families
from casualstable.families import _power

M = mpmath.mpf
EPS = np.finfo(float).eps
ULPS = 8

N_CIRCLE = 1 << 16
CIRCLE_Z = 0.9 * np.exp(2j * np.pi * np.arange(0, N_CIRCLE, 256) / N_CIRCLE)
NEAR_ONE_Z = (
    1.0 - np.logspace(-8, -1, 8)[:, None] * np.exp(1j * np.linspace(-1.4, 1.4, 7))[None, :]
).ravel()
NEG_AXIS_R = np.logspace(-8, 0.5, 10)
SIGNED_ZERO_X = np.concatenate([-NEG_AXIS_R + 0j, np.conj(-NEG_AXIS_R + 0j)])
EXPONENTS = (0.25, 0.5, 0.7, 1.0, 1.3, 2.0)


@pytest.fixture(autouse=True)
def _thirty_digits():
    with mpmath.workdps(30):
        yield


def _mpc(x) -> mpmath.mpc:
    return mpmath.mpc(float(np.real(x)), float(np.imag(x)))


def _reference_power(x, a: float) -> mpmath.mpc:
    value = mpmath.power(_mpc(x), M(a))
    # mpmath has no signed zero: x - 0j on the negative axis is the limit
    # from below the cut, the conjugate of the principal value
    if np.imag(x) == 0 and np.signbit(np.imag(x)) and np.real(x) < 0:
        value = mpmath.conj(value)
    return value


def _power_ulps(power, xs, a: float) -> float:
    worst = 0.0
    for v, x in zip(power(xs, a), xs):
        ref = _reference_power(x, a)
        worst = max(worst, float(abs(_mpc(v) - ref) / abs(ref)) / EPS)
    return worst


def _wrong_branch_power(x, a):
    # arg x taken in [0, 2 pi): the wrong sheet below the real axis
    x = np.asarray(x)
    return np.abs(x) ** a * np.exp(1j * a * np.mod(np.angle(x), 2.0 * np.pi))


POINT_SETS = {
    "circle": 1.0 - CIRCLE_Z,
    "near_one": 1.0 - NEAR_ONE_Z,
    "signed_zero": SIGNED_ZERO_X,
}


@pytest.mark.parametrize("points", POINT_SETS)
@pytest.mark.parametrize("a", EXPONENTS)
def test_power_matches_mpmath(points, a):
    assert _power_ulps(_power, POINT_SETS[points], a) <= ULPS


@pytest.mark.parametrize("a", EXPONENTS)
def test_power_picks_numpys_side_of_the_cut(a):
    ours, numpys = _power(SIGNED_ZERO_X, a), np.power(SIGNED_ZERO_X, a)
    assert np.array_equal(np.signbit(ours.imag), np.signbit(numpys.imag))


def test_power_of_real_input_is_numpys():
    x = np.linspace(0.0, 2.0, 101)
    for a in EXPONENTS:
        assert np.array_equal(_power(x, a), np.power(x, a))
    assert _power(0.81, 0.5) == np.power(0.81, 0.5)


@pytest.mark.parametrize("points", ["circle", "signed_zero"])
def test_wrong_branch_fails_the_power_check(points):
    # negative control: the checker sees a power on the wrong sheet
    assert _power_ulps(_wrong_branch_power, POINT_SETS[points], 0.7) > 1e6


def _exp_condition(value):
    return 1 + abs(mpmath.log(value))


def _one_minus_condition(value):
    return 1 + abs(1 - value) / abs(value)


def _geometric_complement(q, U):
    return U / (M(q) + (1 - M(q)) * U)


def _ex1_w(kappa, m, U):
    zm = (1 - U) ** m
    return (1 - zm) / (1 - M(kappa) * zm)


def _ex2_theta(b, U):
    b, z = M(b), 1 - U
    return mpmath.acos(((1 + b) * z - 2 * b) / (2 - (1 + b) * z))


def _ex1_thin_complement(kappa, m, p, U):
    kappa, p, zm = M(kappa), M(p), (1 - U) ** m
    q = (((1 - p) + (p - kappa) * zm) / ((1 - p * kappa) - kappa * (1 - p) * zm)) ** (M(1) / m)
    return 1 - q


svh, ex1, ex1_m2 = SvhStable(1.5, 0.7), Example1(1.0, 0.6, 0.3), Example1(1.0, 0.5, 0.6, 2)
ex1_kappa0 = Example1(1.5, 0.7, 0.0, 1)  # the SvhStable law above
ex2, sib, author = Example2(1.0, 1.3, 0.2), Sibuya(0.5), AuthorCitations(0.7, 0.3)
field, thin_m2 = FieldCitations(1.0, 0.5, 0.5), Example1Thin(0.6, 2)

# id -> (kernel on double u, reference on mpc u, condition of the last step)
KERNELS = {
    "svh": (svh.pgf_from_complement,
            lambda U: mpmath.exp(-M(svh.lam) * U ** M(svh.alpha)), _exp_condition),
    "ex1": (ex1.pgf_from_complement,
            lambda U: mpmath.exp(-M(ex1.lam) * _ex1_w(ex1.kappa, 1, U) ** M(ex1.gamma)), _exp_condition),
    "ex1_kappa0": (ex1_kappa0.pgf_from_complement,
                   lambda U: mpmath.exp(-M(ex1_kappa0.lam) * _ex1_w(0, 1, U) ** M(ex1_kappa0.gamma)),
                   _exp_condition),
    "ex1_m2": (ex1_m2.pgf_from_complement,
               lambda U: mpmath.exp(-M(ex1_m2.lam) * _ex1_w(ex1_m2.kappa, 2, U) ** M(ex1_m2.gamma)),
               _exp_condition),
    "ex2": (ex2.pgf_from_complement,
            lambda U: mpmath.exp(-M(ex2.lam) * _ex2_theta(ex2.b, U) ** M(ex2.gamma)), _exp_condition),
    "sibuya": (sib.pgf_from_complement, lambda U: 1 - U ** M(sib.p), _one_minus_condition),
    "author": (author.pgf_from_complement,
               lambda U: 1 - _geometric_complement(author.q, U) ** M(author.p), _one_minus_condition),
    "field": (field.pgf_from_complement,
              lambda U: mpmath.exp(-M(field.lam) * _geometric_complement(field.q, U) ** M(field.p)),
              _exp_condition),
    "ex1_thin_m2_root": (lambda u: thin_m2.complement_map(0.3, u),
                         lambda U: _ex1_thin_complement(thin_m2.kappa, 2, 0.3, U), lambda value: 1),
}
# Off the disk, on the negative u axis (z > 1), only kernels whose power
# argument keeps the sign of a zero imaginary part are checked: the others
# divide by a complex number first, and numpy's complex division drops it.
# Example1 at kappa = 0 divides by nothing (the jump complement is u
# itself), so it is checked here and lands on SvhStable's side of the cut.
CUT_U = SIGNED_ZERO_X[np.abs(SIGNED_ZERO_X) < 0.5]
SIGNED_ZERO_KERNELS = ("svh", "ex1_kappa0", "sibuya", "ex1_thin_m2_root")


def _kernel_ulps(kernel_id, us) -> float:
    kernel, reference, condition = KERNELS[kernel_id]
    values = kernel(us)
    worst = 0.0
    for v, u in zip(values, us):
        ref = reference(_mpc(u))
        if np.imag(u) == 0 and np.signbit(np.imag(u)):
            ref = mpmath.conj(ref)
        worst = max(worst, float(abs(_mpc(v) - ref) / abs(ref) / condition(ref)) / EPS)
    return worst


@pytest.mark.parametrize("points", ["circle", "near_one"])
@pytest.mark.parametrize("kernel_id", KERNELS)
def test_kernel_matches_mpmath(kernel_id, points):
    assert _kernel_ulps(kernel_id, POINT_SETS[points]) <= ULPS


@pytest.mark.parametrize("kernel_id", SIGNED_ZERO_KERNELS)
def test_kernel_matches_mpmath_on_the_cut(kernel_id):
    assert _kernel_ulps(kernel_id, CUT_U) <= ULPS


def _theta_ulps(thinning, b, us) -> float:
    worst = 0.0
    for v, u in zip(thinning.coordinate(us), us):
        ref = _ex2_theta(b, _mpc(u))
        worst = max(worst, float(abs(_mpc(v) - ref) / abs(ref)) / EPS)
    return worst


@pytest.mark.parametrize("points", ["circle", "near_one"])
@pytest.mark.parametrize("b", [-0.999, -0.5, 0.0, 0.5, 0.99, 0.999])
def test_chebyshev_coordinate_is_the_principal_arccos(b, points):
    # 2 arctan(sqrt(k u)), k = (1+b)/(1-b), against acos(A(z)) itself
    assert _theta_ulps(Example2Thin(b), b, POINT_SETS[points]) <= ULPS


def test_perturbed_b_fails_the_coordinate_check():
    # negative control: the checker sees a coordinate built for b + 1e-6
    assert _theta_ulps(Example2Thin(0.5 + 1e-6), 0.5, POINT_SETS["circle"]) > 1e6


def test_wrong_branch_fails_the_kernel_check(monkeypatch):
    # negative control: the same check catches a kernel built on the wrong sheet
    monkeypatch.setattr(families, "_power", _wrong_branch_power)
    assert _kernel_ulps("svh", POINT_SETS["circle"]) > 1e6
