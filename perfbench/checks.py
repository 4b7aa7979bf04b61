"""Correctness checks applied to every benchmark operation.

Each check takes one operation's result and returns a list of
``Problem``s; an empty list means the result passed.  The checks test
properties a correct program cannot violate (exit codes, certificates,
closed-form bounds, statistics at six standard deviations or more), so
a change that alters the random stream or the last bits of a float
still passes, while a wrong result does not.  None of them compares
bytes against a stored golden output.

A ``Problem`` of kind ``REFUSED`` is the sampler's documented value cap
(an ``IterationCapError`` surfacing as exit code 1); it counts as a
failed operation but not as a wrong result.  Every other problem is of
kind ``WRONG``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

WRONG = "wrong"
REFUSED = "refused"
SIGMAS = 6.0
CAP_MESSAGE = "value cap"


class Problem(NamedTuple):
    kind: str
    message: str


@dataclass(frozen=True)
class CliResult:
    """Exit code and captured output streams of one in-process CLI call."""

    code: int
    out: str
    err: str


def wrong(message: str) -> list[Problem]:
    return [Problem(WRONG, message)]


def exit_code(result, expected: int) -> list[Problem]:
    """Compare a CLI exit code, telling the documented value cap apart."""
    if not isinstance(result, CliResult):
        return wrong(f"expected a CLI result, got {type(result).__name__}")
    if result.code == expected:
        return []
    if result.code == 1 and CAP_MESSAGE in result.err:
        return [Problem(REFUSED, result.err.strip())]
    return wrong(f"exit code {result.code}, expected {expected}: {result.err.strip()[:200]}")


def rows(text: str, required: tuple[str, ...]) -> list[dict]:
    """Parse CLI CSV output; raise ValueError when a required column is absent."""
    reader = csv.DictReader(io.StringIO(text))
    missing = [name for name in required if name not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"missing columns {missing} in header {reader.fieldnames}")
    return list(reader)


def number(text: str) -> float:
    return float(text) if text not in ("", None) else math.nan


def _parsed(result, expected_code: int, required: tuple[str, ...]):
    """(problems, rows): rows is None when the exit code or the CSV is bad."""
    problems = exit_code(result, expected_code)
    if problems:
        return problems, None
    try:
        return [], rows(result.out, required)
    except ValueError as error:
        return wrong(str(error)), None


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

PGF_COLUMNS = ("p", "min_coeff", "argmin_k", "tol_neg")
STABILITY_COLUMNS = ("n", "residual")


def check_pgf_table(result, n_max: int) -> list[Problem]:
    """check-pgf: exit 0 and every row's min_coeff >= -tol_neg."""
    problems, table = _parsed(result, 0, PGF_COLUMNS)
    if table is None:
        return problems
    if len(table) != 1:
        return wrong(f"expected one row, got {len(table)}")
    row = table[0]
    min_coeff, tol_neg = number(row["min_coeff"]), number(row["tol_neg"])
    if not (math.isfinite(tol_neg) and tol_neg > 0):
        return wrong(f"certificate tol_neg={row['tol_neg']} is not a positive number")
    if not min_coeff >= -tol_neg:
        return wrong(f"min_coeff {row['min_coeff']} < -tol_neg {row['tol_neg']}")
    if not 0 <= int(row["argmin_k"]) <= n_max:
        return wrong(f"argmin_k {row['argmin_k']} outside 0..{n_max}")
    return []


def check_stability_sweep(result, ns: list[int], tol: float, p_of_n=None, *, expected_code: int = 0) -> list[Problem]:
    """check-stability: exit code, one row per n, residuals on the right side of tol.

    With ``expected_code`` 0 every residual must lie below ``tol``; with
    1 (a negative control) the worst residual must reach it.  ``p_of_n``
    is the closed-form normalizer the CLI must have used.
    """
    problems, table = _parsed(result, expected_code, STABILITY_COLUMNS)
    if table is None:
        return problems
    got = [int(row["n"]) for row in table]
    if got != list(ns):
        return wrong(f"rows for n={got[:5]}..., expected {list(ns)[:5]}...")
    residuals = [number(row["residual"]) for row in table]
    worst = max(residuals)
    if expected_code == 0 and not worst < tol:
        return wrong(f"worst residual {worst:.3e} >= tol {tol:g}")
    if expected_code == 1 and not worst >= tol:
        return wrong(f"negative control passed: worst residual {worst:.3e} < tol {tol:g}")
    if p_of_n is not None:
        for n, row in zip(ns, table):
            p, want = number(row["p"]), p_of_n(n)
            if not abs(p - want) <= 1e-12 * want:
                return wrong(f"p({n}) = {p!r}, closed form {want!r}")
    return []


def check_validity_report(report, tol: float) -> list[Problem]:
    """validate_pgf: the nonnegativity violation stays within tol."""
    violation = report.sup_residual
    if not (math.isfinite(violation) and violation <= tol):
        return wrong(f"p.g.f. violation {violation:.3e} > tol {tol:g}")
    return []


def check_composition(result, p1: float, p2: float, p_tol: float, fit_tol: float) -> list[Problem]:
    """compose_thinning: the fitted parameter is the semigroup product p1 p2."""
    p_eff, fit = result
    if not abs(p_eff - p1 * p2) <= p_tol:
        return wrong(f"p_eff {p_eff!r} differs from p1*p2 = {p1 * p2!r} by more than {p_tol:g}")
    if not fit <= fit_tol:
        return wrong(f"fit residual {fit:.3e} > {fit_tol:g}")
    return []


# ---------------------------------------------------------------------------
# citations
# ---------------------------------------------------------------------------

FIELD_COLUMNS = ("record", "n_scientists", "total", "mean", "median", "mode", "tail_exponent", "top_share")
TV_COLUMNS = FIELD_COLUMNS + ("tv_distance",)


def poisson_bound(lam: float) -> float:
    """Half-width of the acceptance interval for a Poisson(lam) count.

    SIGMAS standard deviations plus SIGMAS: below 1e-8 two-sided for
    every lam, including lam = 1 where the normal tail is a poor guide.
    """
    return SIGMAS * (math.sqrt(lam) + 1.0)


def _field_row_problems(row: dict, lam: float) -> list[Problem]:
    n = int(row["n_scientists"])
    if abs(n - lam) > poisson_bound(lam):
        return wrong(f"n_scientists {n} too far from Poisson mean {lam:g}")
    if n == 0:
        return [] if int(row["total"]) == 0 else wrong("empty field with nonzero total")
    total, mean = int(row["total"]), number(row["mean"])
    # every author has at least one paper and each paper at least one citation
    if total < n or number(row["median"]) < 1 or int(row["mode"]) < 1:
        return wrong(f"field row below the one-citation floor: {row}")
    if not abs(mean * n - total) <= 1e-9 * total:
        return wrong(f"mean {mean!r} inconsistent with total {total} over {n} authors")
    if not 0 < number(row["top_share"]) <= 1:
        return wrong(f"top_share {row['top_share']} outside (0, 1]")
    return []


def field_rows(result, required=FIELD_COLUMNS):
    """(problems, field rows, tv rows) of one citations call."""
    problems, table = _parsed(result, 0, required)
    if table is None:
        return problems, [], []
    fields = [row for row in table if row["record"] == "field"]
    tvs = [row for row in table if row["record"] == "tv_check"]
    return [], fields, tvs


def check_field_replicate(result, lam: float) -> list[Problem]:
    """One citations call with a single large field."""
    problems, fields, _ = field_rows(result)
    if problems:
        return problems
    if len(fields) != 1:
        return wrong(f"expected one field row, got {len(fields)}")
    row = fields[0]
    if not math.isfinite(number(row["tail_exponent"])):
        return wrong(f"tail exponent {row['tail_exponent']!r} is not finite")
    return _field_row_problems(row, lam)


def tv_bound(masses: np.ndarray, tol_neg: float, n_fields: int, tail_probability: float = 1e-9) -> float:
    """Upper bound on the TV distance of a correct sampler, plus extraction error.

    E[TV] <= 0.5 sum sqrt(p_k (1 - p_k)/n) (Jensen), and TV moves by at
    most 1/n when one field changes, so by McDiarmid it exceeds its mean
    by sqrt(log(1/tail)/(2n)) with probability below ``tail_probability``.
    Each extracted mass may be off by tol_neg, so the table's summed
    certificate is added on top.
    """
    p = np.clip(masses, 0.0, 1.0)
    mean_bound = 0.5 * float(np.sqrt(p * (1.0 - p) / n_fields).sum())
    deviation = math.sqrt(math.log(1.0 / tail_probability) / (2.0 * n_fields))
    return mean_bound + deviation + tol_neg * len(masses)


def check_tv_call(result, lam: float, replicates: int, bound) -> list[Problem]:
    """One citations --tv-check call: field rows plus the TV row.

    ``bound`` is a zero-argument callable returning the TV bound; it is
    computed from a table rebuilt outside the timed region.
    """
    problems, fields, tvs = field_rows(result, TV_COLUMNS)
    if problems:
        return problems
    if len(fields) != replicates or len(tvs) != 1:
        return wrong(f"expected {replicates} field rows and one tv row, got {len(fields)} and {len(tvs)}")
    for row in fields:
        problems = _field_row_problems(row, lam)
        if problems:
            return problems
    tv, limit = number(tvs[0]["tv_distance"]), bound()
    if not tv <= limit:
        return wrong(f"tv distance {tv:.3e} > bound {limit:.3e}")
    return []


def pooled_hill(results: list, low: float = 0.4, high: float = 0.6) -> list[Problem]:
    """Mean of the per-field Hill estimates over the batch lies in [low, high].

    Each estimate uses the top 1% of one field's authors, so at
    lam = 5e4 the mean over 100 fields has a standard deviation near
    0.003: [0.4, 0.6] is far beyond six of them at p = 0.5.
    """
    estimates = []
    for result in results:
        problems, fields, _ = field_rows(result)
        if not problems:
            estimates += [number(row["tail_exponent"]) for row in fields]
    estimates = [value for value in estimates if math.isfinite(value)]
    if not estimates:
        return wrong("no finite tail-exponent estimates in the batch")
    mean = sum(estimates) / len(estimates)
    if not low <= mean <= high:
        return wrong(f"pooled Hill estimate {mean:.4f} outside [{low}, {high}]")
    return []


def pooled_mode_zero(results: list) -> list[Problem]:
    """The mode of the lam = 1 field totals pooled over the batch is 0.

    P(0) = e^-1 = 0.37 against P(1) = 0.09: with 500 totals the gap is
    about eleven standard deviations.
    """
    totals = []
    for result in results:
        problems, fields, _ = field_rows(result, TV_COLUMNS)
        if not problems:
            totals += [int(row["total"]) for row in fields]
    if not totals:
        return wrong("no lam = 1 field totals in the batch")
    values, counts = np.unique(totals, return_counts=True)
    mode = int(values[int(np.argmax(counts))])
    if mode != 0:
        return wrong(f"mode of {len(totals)} lam = 1 totals is {mode}, expected 0")
    return []


# ---------------------------------------------------------------------------
# limit
# ---------------------------------------------------------------------------

CONVERGE_COLUMNS = ("n", "condition_b", "sup_distance")


def check_converge(result, ns: list[int], a: float, target_is_limit: bool) -> list[Problem]:
    """converge: exit 0, condition (b) <= n^(1-a), exact identity for h = L.

    (1 + bs)^n - 1 >= n b s gives g_n^{-1}(e^{-s}) >= n s, hence the
    closed-form bound on condition (b).  With h the target itself the
    stability identity makes every distance vanish to rounding.
    """
    problems, table = _parsed(result, 0, CONVERGE_COLUMNS)
    if table is None:
        return problems
    if [int(row["n"]) for row in table] != list(ns):
        return wrong("converge rows do not match the requested n values")
    for row in table:
        n = int(row["n"])
        b_value = number(row["condition_b"])
        if not 0 < b_value <= n ** (1.0 - a) * (1 + 1e-9):
            return wrong(f"condition (b) {b_value!r} at n={n} exceeds n^(1-a)")
        if target_is_limit and not number(row["sup_distance"]) < 1e-12:
            return wrong(f"distance {row['sup_distance']} at n={n} for h = L")
    return []


def check_g_inverse(x, family, n: int, s: np.ndarray) -> list[Problem]:
    """g_inverse: -log g_n(x) returns s to 1e-10 relative, and x >= n s.

    The lower bound follows from the convexity of (1 + t)^(1/alpha) - 1
    in t, which makes the tempered-stable inverse superadditive.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != s.shape or not np.all(np.isfinite(x)):
        return wrong(f"g_inverse returned shape {x.shape} or non-finite values")
    error = np.abs(family.neg_log_gfun(n, x) - s)
    worst = float(np.max(error / s))
    if not worst <= 1e-10:
        return wrong(f"g_inverse round trip relative error {worst:.3e} > 1e-10 at n={n}")
    if not np.all(x >= n * s * (1 - 1e-9)):
        return wrong(f"g_inverse below the superadditive bound n s at n={n}")
    return []


def check_condition_b(values, ns: list[int], a: float) -> list[Problem]:
    """condition_b: one value per n, each in (0, n^(1-a)]."""
    if len(values) != len(ns):
        return wrong(f"{len(values)} values for {len(ns)} n")
    for n, value in zip(ns, values):
        if not 0 < value <= n ** (1.0 - a) * (1 + 1e-9):
            return wrong(f"condition (b) {value!r} at n={n} outside (0, n^(1-a)]")
    return []
