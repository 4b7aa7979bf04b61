"""Transform-domain definitions of the stable families.

Every distribution handled by this package is specified through a
transform: a probability generating function (p.g.f.) for the integer
families, a Laplace transform for the positive continuous ones.  A
family's kind is its base class: ``PgfFamily``, ``ThinningFamily`` or
``LaplaceFamily``; a compound-Poisson one states only its jump law.

P.g.f. families
    SvhStable        P(z) = exp{-lam (1-z)^alpha}
    Example1         P(z) = exp{-lam ((1-z^m)/(1-kappa z^m))^gamma}
    Example2         P(z) = exp{-lam arccos(A(z))^gamma},
                     A(z) = ((1+b)z - 2b)/(2 - (1+b)z)
    Geometric        P(z) = q z/(1-(1-q)z), support {1, 2, ...}
    Sibuya           P(z) = 1 - (1-z)^p, support {1, 2, ...}
    AuthorCitations  Sibuya p.g.f. composed with the Geometric one
    FieldCitations   P(z) = exp{-lam ((1-z)/(1-(1-q)z))^p}

Thinning (normalizer) families, each a p.g.f. Q_p(z) indexed by a
thinning parameter p
    Bernoulli        Q_p(z) = 1 - p + p z
    Example1Thin     Q_p(z) = (((1-p)+(p-kappa)z^m)/((1-p kappa)-kappa(1-p)z^m))^(1/m)
    Example2Thin     Q_p = A^(-1) o T_p o A with T_p(x) = cos(p arccos x)

Laplace families with their casual normalizers g_n
    Gamma            L(s) = (1+bs)^(-gamma),  g_n(s) = exp{(1/b)(1-(1+bs)^(1/n))}
    TemperedStable   L(s) = exp{-lam^alpha (1+tan(pi alpha/2))((s+h)^alpha - h^alpha)},
                     g_n(s) = exp{h - ((s+h)^alpha/n + (n-1)h^alpha/n)^(1/alpha)}

Parameter domains
    Each family maps its fields to their intervals in one ``domains``
    table, and a shared domain is one named interval.  The kind bases'
    ``__post_init__`` coerces every field by its annotated type (a finite
    float, or an integer >= 1) and checks it; only the cross-field rules
    are code.  ``check_p`` checks p against the thinning's ``p_domain()``.
    The other modules check their arguments (grids, radius, residuals,
    tolerances, seeds) against named intervals too, and counts with
    ``check_n``; each refusal names the argument and its value.

Numerical form
    The discrete stability identity P(z) = P(Q_p(z))^n is tightest near
    the branch point z = 1, where forming 1 - Q_p(z) from a computed
    Q_p(z) ~ 1 loses all significant digits.  Every p.g.f. kernel here
    is therefore written as a function of the complement u = 1 - z, and
    every thinning family exposes ``complement_map`` taking u directly
    to 1 - Q_p(z) without ever forming Q_p(z).  The subtraction 1 - z
    itself is exact in floating point for real z in [0, 1], so chaining
    kernels through complements loses nothing.  Laplace transforms and
    the g_n normalizers are evaluated through their logarithms with
    ``log1p``/``expm1`` so that large-s tails do not underflow.

    All fractional powers, logarithms and inverse trigonometric
    functions use principal branches.  Complex arguments are supported
    everywhere (needed for coefficient extraction on circles inside the
    unit disk).  The Chebyshev kernels rest on A(z) = (1 - k u)/(1 + k u),
    k = (1+b)/(1-b): the half angle phi = arccos(A(z))/2 = arctan(sqrt(k u)),
    and T_p multiplies it by p, so 1 - Q_p(z) = tan^2(p phi)/k, with no
    cancellation near z = 1 or b = 1.  On the closed disk Re u >= 0, so
    the principal sqrt keeps |arg| <= pi/4, clear of arctan's cuts (the
    imaginary axis beyond +-i), and 2 arctan has real part in [0, pi),
    the principal range of arccos: the two agree.
    Fractional powers of complex arguments are taken in polar form,
    |x|^a (cos(a arg x) + i sin(a arg x)), from real transcendental
    functions only (``_power``); powers of real arguments go to
    ``np.power`` unchanged, so every real-grid result is the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "SvhStable",
    "Example1",
    "Example2",
    "Geometric",
    "Sibuya",
    "AuthorCitations",
    "FieldCitations",
    "CompoundPoisson",
    "Bernoulli",
    "Example1Thin",
    "Example2Thin",
    "Gamma",
    "TemperedStable",
    "PgfFamily",
    "ThinningFamily",
    "LaplaceFamily",
]


def check_n(n: int, name: str = "n", lo: int = 1) -> int:
    """Return n as an int; raise unless it is an integer >= lo (2.5 is refused, never read as 2)."""
    # inf % 1 and nan % 1 are nan, so both fail without int(n) raising
    try:
        count = n >= lo and n % 1 == 0
    except TypeError:  # not a number, such as the text '3'
        count = False
    if not count:  # the message is formatted only on failure
        raise ParameterError(f"{name} must be an integer >= {lo}, not {n}")
    return int(n)


def check_kind(obj, kind: type, noun: str) -> None:
    """Raise unless ``obj`` is a family of the given kind (its base class)."""
    if not isinstance(obj, kind):  # the message is formatted only on failure
        raise ParameterError(f"not a {noun} family: {obj!r}")


@dataclass(frozen=True)
class _Interval:
    """A parameter domain: lo to hi, ``ends`` the brackets ("(]": lo open, hi closed), ``reason`` read after them."""

    lo: float
    hi: float
    ends: str = "()"
    reason: str = ""

    def check(self, name: str, value: float) -> None:
        # inside, or at a closed end; a nan is neither
        if not (self.lo < value < self.hi or value == self.lo and self.ends[0] == "["
                or value == self.hi and self.ends[1] == "]"):
            # str, so that a numpy scalar reads as a plain number
            raise ParameterError(
                f"{name} must lie in {self.ends[0]}{self.lo}, {self.hi}{self.ends[1]}{self.reason}, not {value!s}"
            )

    def grid(self, name: str, points, default) -> np.ndarray:
        """``points`` as a float array, or ``default()`` when None; refused when empty or when an end lies outside."""
        if points is None:
            return default()
        points = np.asarray(points, dtype=float)
        if points.size == 0:
            raise ParameterError(f"{name} must be nonempty")
        for end in (points.min(), points.max()):  # a nan lies in no interval
            self.check(f"{name} point", end)
        return points


_POSITIVE = _Interval(0, math.inf)
_UNIT = _Interval(0, 1, "(]")
_EXPONENT = _Interval(0, 1, "(]", ": the exponent of a discrete stable p.g.f. cannot be greater than 1")
_KAPPA = _Interval(0, 1, "[)")  # the Moebius semigroup's kappa
_CHEBYSHEV_B = _Interval(-1, 1)
_COUNT = _Interval(1, math.inf, "[)")
_MOEBIUS_KAPPA_M = _Interval(0, 1, "()", " when m > 1 (admissibility needs p < kappa)")


class _Family:
    """Base of every family kind: each field coerced by its annotated type, then checked against ``domains``."""

    domains: dict[str, _Interval] = {}  # field name -> its interval

    def __post_init__(self) -> None:
        fields = self.__dataclass_fields__
        for name, domain in self.domains.items():
            value = getattr(self, name)
            if fields[name].type == "int":
                value = check_n(value, name)
            else:
                value = float(value)
                if not math.isfinite(value):
                    raise ParameterError(f"{name} must be finite, not {value}")
            domain.check(name, value)
            object.__setattr__(self, name, value)  # frozen dataclasses


def _complement(z):
    """Return u = 1 - z as a floating array; exact for real z in [0, 1]."""
    z = np.asarray(z)
    return np.asarray(1.0 - z, dtype=np.result_type(z, np.float64))


def _power(x, a: float):
    """Principal-branch x**a.

    Real x goes to ``np.power``.  Complex x is taken in polar form,
    |x|^a (cos(a theta) + i sin(a theta)) with theta = arg x in
    [-pi, pi], which needs only real transcendental functions and is
    2-3 times cheaper than numpy's complex power (clog/cexp) at the
    same accuracy; the sign of a zero imaginary part picks the side of
    the branch cut on the negative real axis, as it does for np.power.
    """
    x = np.asarray(x)
    if not np.iscomplexobj(x):
        return np.power(x, a)
    modulus = np.power(np.abs(x), a)
    angle = a * np.angle(x)
    out = np.empty(x.shape, dtype=complex)
    np.multiply(modulus, np.cos(angle), out=out.real)
    np.multiply(modulus, np.sin(angle), out=out.imag)
    return out[()]


def _geometric_sum(w, m: int):
    """sum_{j=0}^{m-1} w^j by Horner's rule (no cancellation for w ~ 1)."""
    total = np.ones_like(w)
    for _ in range(m - 1):
        total = 1.0 + w * total
    return total


def _one_minus_zm(u, m: int):
    """1 - z^m written as u * (1 + z + ... + z^(m-1)) with z = 1 - u."""
    if m == 1:
        return u
    return u * _geometric_sum(1.0 - u, m)


def _jump_complement(gamma: float, q: float, kappa: float, v):
    """1 - J(w) from v = 1 - w, J the AuthorCitations(gamma, q) p.g.f.; kappa = 1 - q as given."""
    if kappa != 0.0:  # dividing by 1 + 0j would drop the sign of a zero imaginary part: the side of the cut
        v = v / (q + kappa * v)  # rebound, so that 1 - z^m is freed before the power
    return _power(v, gamma)


# ---------------------------------------------------------------------------
# p.g.f. families
# ---------------------------------------------------------------------------


class PgfFamily(_Family):
    """Base of the p.g.f. families: P(z) from the complement kernel."""

    def pgf(self, z):
        return self.pgf_from_complement(_complement(z))

    def matched_pairs(self) -> tuple:
        """(thinning, exponent) pairs with P(z) = P(Q_p(z))^n at p = n^(-1/exponent)."""
        return ()


class CompoundPoisson(PgfFamily):
    """exp{-lam (1 - J(z^m))}, J = AuthorCitations(gamma, q), from ``lam`` and ``jump()`` = (gamma, q, 1 - q, m)."""

    def pgf_from_complement(self, u):
        gamma, q, kappa, m = self.jump()
        return np.exp(-self.lam * _jump_complement(gamma, q, kappa, _one_minus_zm(u, m)))

    def matched_pairs(self) -> tuple:
        gamma, _, kappa, m = self.jump()
        try:
            pair = (Example1Thin(kappa, m), gamma)
        except ParameterError:  # kappa = 0 has no normalizer family for m > 1
            return ()
        # kappa = 0, m = 1 is SvhStable, whose Q_p is also the Bernoulli map
        return ((Bernoulli(), gamma), pair) if (kappa, m) == (0.0, 1) else (pair,)


@dataclass(frozen=True)
class SvhStable(CompoundPoisson):
    """Discrete stable law in the Steutel-van Harn sense.

    P(z) = exp{-lam (1-z)^alpha} with lam > 0 and alpha in (0, 1].
    Under Bernoulli thinning with p(n) = n^(-1/alpha) the law solves
    P(z) = P(1-p+pz)^n for every n.
    """

    lam: float
    alpha: float
    domains = {"lam": _POSITIVE, "alpha": _EXPONENT}

    def jump(self) -> tuple[float, float, float, int]:
        return self.alpha, 1.0, 0.0, 1


@dataclass(frozen=True)
class Example1(CompoundPoisson):
    """Discrete stable family for the Moebius thinning semigroup.

    P(z) = exp{-lam W(z)^gamma} with W(z) = (1-z^m)/(1-kappa z^m).
    kappa = 0, m = 1 reduces to ``SvhStable`` with alpha = gamma.
    """

    lam: float
    gamma: float
    kappa: float
    m: int = 1
    domains = {"lam": _POSITIVE, "gamma": _EXPONENT, "kappa": _KAPPA, "m": _COUNT}

    def jump(self) -> tuple[float, float, float, int]:
        return self.gamma, 1.0 - self.kappa, self.kappa, self.m


def _half_angle(b: float, u):
    """phi = arctan(sqrt(k u)) with k = (1+b)/(1-b): half of theta = arccos A(z), u = 1 - z."""
    return np.arctan(np.sqrt((1.0 + b) / (1.0 - b) * u))


@dataclass(frozen=True)
class Example2(PgfFamily):
    """Discrete stable family for the Chebyshev thinning semigroup.

    P(z) = exp{-lam theta(z)^gamma} where theta(z) = arccos A(z) and
    A(z) = ((1+b)z - 2b)/(2 - (1+b)z); gamma in (0, 2], b in (-1, 1).
    """

    lam: float
    gamma: float
    b: float
    domains = {"lam": _POSITIVE, "gamma": _Interval(0, 2, "(]"), "b": _CHEBYSHEV_B}

    def matched_pairs(self) -> tuple:
        return ((Example2Thin(self.b), self.gamma),)

    def pgf_from_complement(self, u):
        return np.exp(-self.lam * _power(2.0 * _half_angle(self.b, u), self.gamma))


@dataclass(frozen=True)
class Geometric(PgfFamily):
    """Number of publications: P(k) = q(1-q)^(k-1) on {1, 2, ...}."""

    q: float
    domains = {"q": _UNIT}

    def pgf_from_complement(self, u):
        # q z / (1 - (1-q) z) with both parts rewritten in u = 1 - z
        return self.q * (1.0 - u) / (self.q + (1.0 - self.q) * u)


@dataclass(frozen=True)
class Sibuya(PgfFamily):
    """Citations of a single paper: P(z) = 1 - (1-z)^p on {1, 2, ...}.

    P(k) = p (1-p)_(k-1) / k! where (x)_j is the rising factorial; the
    survival function decays like k^(-p), so the mean is infinite for
    p < 1.
    """

    p: float
    domains = {"p": _UNIT}

    def pgf_from_complement(self, u):
        return 1.0 - _power(u, self.p)


@dataclass(frozen=True)
class AuthorCitations(PgfFamily):
    """Citations of one author: Sibuya(p) many papers... composed law.

    P(z) = 1 - (1 - G(z))^p where G is the ``Geometric`` p.g.f.; the
    composition order follows the displayed transform (Sibuya outside),
    which is the one consistent with the field-level stable form.
    """

    p: float
    q: float
    domains = {"p": _UNIT, "q": _UNIT}

    def pgf_from_complement(self, u):
        return 1.0 - _jump_complement(self.p, self.q, 1.0 - self.q, u)


@dataclass(frozen=True)
class FieldCitations(CompoundPoisson):
    """Total citations of a field with Poisson(lam) many authors.

    P(z) = exp{-lam ((1-z)/(1-(1-q)z))^p}; identical to ``Example1``
    with gamma = p, kappa = 1 - q, m = 1, hence discrete stable.
    """

    lam: float
    p: float
    q: float
    domains = {"lam": _POSITIVE, "p": _EXPONENT, "q": _UNIT}

    def jump(self) -> tuple[float, float, float, int]:
        # q itself: 1 - (1 - q) can differ from q in the last bit
        return self.p, self.q, 1.0 - self.q, 1

    def author_law(self) -> AuthorCitations:
        """Citations of one of the field's Poisson(lam) many authors."""
        return AuthorCitations(self.p, self.q)


# ---------------------------------------------------------------------------
# thinning families
# ---------------------------------------------------------------------------


class ThinningFamily(_Family):
    """Base of the thinning families: the domain check of p.

    Each family's ``coordinate(u)`` turns its map into multiplication,
    c(1 - Q_p(z)) = p c(1 - z): the A-function of van Harn, Steutel and Vervaat (1982).
    """

    def p_domain(self) -> _Interval:
        """The interval of admissible p."""
        return _UNIT

    def check_p(self, p: float) -> None:
        self.p_domain().check("thinning parameter p", p)


@dataclass(frozen=True)
class Bernoulli(ThinningFamily):
    """Classical binomial thinning: Q_p(z) = 1 - p + p z."""

    def complement_map(self, p: float, u):
        self.check_p(p)
        return p * u

    def coordinate(self, u):
        return u

    def thin(self, p: float, z):
        return 1.0 - self.complement_map(p, _complement(z))


@dataclass(frozen=True)
class Example1Thin(ThinningFamily):
    """Moebius normalizer family.

    Q_p(z) = (((1-p)+(p-kappa)z^m) / ((1-p kappa)-kappa(1-p)z^m))^(1/m).
    Admissible parameters: m = 1 needs 0 <= kappa < 1 and 0 < p <= 1;
    m > 1 needs 0 < p < kappa < 1.

    The kernel uses the exact semigroup relation
    W(Q_p(z)) = p W(z), W(z) = (1-z^m)/(1-kappa z^m),
    solved for 1 - Q_p(z)^m:
    1 - Q_p^m = (1-kappa) p v / ((1-kappa) + kappa (1-p) v), v = 1 - z^m.
    """

    kappa: float
    m: int = 1
    domains = {"kappa": _KAPPA, "m": _COUNT}

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.m > 1:
            _MOEBIUS_KAPPA_M.check("kappa", self.kappa)

    def p_domain(self) -> _Interval:
        if self.m == 1:
            return _UNIT
        return _Interval(0, self.kappa, "()", " = (0, kappa) when m > 1")

    def complement_map(self, p: float, u):
        self.check_p(p)
        v = _one_minus_zm(u, self.m)
        cm = (1.0 - self.kappa) * p * v / (
            (1.0 - self.kappa) + self.kappa * (1.0 - p) * v
        )
        if self.m == 1:
            return cm
        # 1 - Q = (1 - Q^m) / sum_{j<m} Q^j, with Q = (1 - cm)^(1/m)
        root = _power(1.0 - cm, 1.0 / self.m)
        return cm / _geometric_sum(root, self.m)

    def coordinate(self, u):  # W(z) = v / ((1-kappa) + kappa v), v = 1 - z^m
        return _jump_complement(1.0, 1.0 - self.kappa, self.kappa, _one_minus_zm(u, self.m))

    def thin(self, p: float, z):
        return 1.0 - self.complement_map(p, _complement(z))


@dataclass(frozen=True)
class Example2Thin(ThinningFamily):
    """Chebyshev normalizer family: Q_p = A^(-1) o T_p o A.

    A(z) = ((1+b)z - 2b)/(2 - (1+b)z), T_p(x) = cos(p arccos x).
    A conjugates Q_p to T_p on [-1, 1], so compositions multiply the
    parameters: Q_p1 o Q_p2 = Q_(p1 p2).  T_p multiplies the half angle
    phi = arctan(sqrt(k u)) by p: 1 - Q_p(z) = tan^2(p phi)/k, k = (1+b)/(1-b).
    """

    b: float
    domains = {"b": _CHEBYSHEV_B}

    def complement_map(self, p: float, u):
        self.check_p(p)
        return np.square(np.tan(p * _half_angle(self.b, u))) * ((1.0 - self.b) / (1.0 + self.b))

    def coordinate(self, u):
        """theta = arccos A(z) = 2 phi."""
        return 2.0 * _half_angle(self.b, u)

    def thin(self, p: float, z):
        return 1.0 - self.complement_map(p, _complement(z))


# ---------------------------------------------------------------------------
# Laplace families
# ---------------------------------------------------------------------------


def _check_s(s) -> None:
    s = np.asarray(s)
    if s.size and not np.min(s) >= 0:  # a nan fails too
        raise ParameterError("s must be nonnegative")


class LaplaceFamily(_Family):
    """Base of the Laplace families: L(s) and g_n(s) from their logarithms."""

    def laplace(self, s):
        return np.exp(self.log_laplace(s))

    def gfun(self, n: int, s):
        return np.exp(-self.neg_log_gfun(n, s))


@dataclass(frozen=True)
class Gamma(LaplaceFamily):
    """Gamma law: L(s) = (1 + b s)^(-gamma_shape).

    Casual normalizer g_n(s) = exp{(1/b)(1 - (1+bs)^(1/n))} makes the
    stability identity L(s) = L(-log g_n(s))^n exact for every n.
    """

    b: float
    gamma_shape: float
    domains = {"b": _POSITIVE, "gamma_shape": _POSITIVE}

    def log_laplace(self, s):
        _check_s(s)
        return -self.gamma_shape * np.log1p(self.b * np.asarray(s, dtype=float))

    def neg_log_gfun(self, n: int, s):
        """-log g_n(s) = ((1+bs)^(1/n) - 1)/b, evaluated in log space."""
        check_n(n)
        _check_s(s)
        s = np.asarray(s, dtype=float)
        return np.expm1(np.log1p(self.b * s) / n) / self.b


@dataclass(frozen=True)
class TemperedStable(LaplaceFamily):
    """Tempered positive stable law with tempering parameter h.

    L(s) = exp{-lam^alpha (1+tan(pi alpha/2)) ((s+h)^alpha - h^alpha)}
    with alpha in (0, 1) and 1/alpha a positive integer.  The casual
    normalizer g_n(s) = exp{h - ((s+h)^alpha/n + (n-1)h^alpha/n)^(1/alpha)}
    telescopes the exponent exactly, so the stability identity holds to
    machine precision.  alpha = 1/2 is the inverse Gaussian law.
    """

    lam: float
    alpha: float
    h: float
    domains = {"lam": _POSITIVE, "alpha": _Interval(0, 1), "h": _POSITIVE}

    def __post_init__(self) -> None:
        super().__post_init__()
        inv = 1.0 / self.alpha  # inf for a subnormal alpha, which round() cannot take
        if not (math.isfinite(inv) and abs(inv - round(inv)) < 1e-9):
            raise ParameterError("1/alpha must be a positive integer for the normalizer family")

    @property
    def tempering_coefficient(self) -> float:
        return self.lam ** self.alpha * (1.0 + math.tan(math.pi * self.alpha / 2.0))

    def log_laplace(self, s):
        _check_s(s)
        s = np.asarray(s, dtype=float)
        # (s+h)^alpha - h^alpha = h^alpha expm1(alpha log1p(s/h))
        increment = self.h ** self.alpha * np.expm1(self.alpha * np.log1p(s / self.h))
        return -self.tempering_coefficient * increment

    def neg_log_gfun(self, n: int, s):
        """-log g_n(s) = ((s+h)^alpha/n + (n-1)h^alpha/n)^(1/alpha) - h."""
        check_n(n)
        _check_s(s)
        s = np.asarray(s, dtype=float)
        d = np.expm1(self.alpha * np.log1p(s / self.h)) / n
        return self.h * np.expm1(np.log1p(d) / self.alpha)
