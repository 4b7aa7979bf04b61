"""Command-line front end.

Four subcommands expose the checkers and simulators with reproducible
seeds and machine-readable output:

    check-stability   discrete or casual stability residuals over an n-range
    check-pgf         coefficient nonnegativity of thinning p.g.f.s
    citations         field simulation summaries, optional TV cross-check
    converge          condition (b) values and transform-domain distances

Output is CSV with a fixed header per command (``--json`` switches to
one JSON object per line with identical field names).  Floats are
printed with 17 significant digits so round trips are exact and reruns
are byte-identical.  Exit codes: 0 success, 1 check failure, 2
usage/domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from .citations import FieldSim, field_totals, simulate_field
from .convergence import condition_b, convergence_curve, matched_exponential
from .errors import (
    InsufficientDataError,
    IterationCapError,
    ParameterError,
    PrecisionError,
    TableError,
    UnsupportedError,
)
from .extraction import extract_pmf, radial_norm_defect
from .families import (
    LAPLACE_FAMILIES,
    Bernoulli,
    Example1,
    Example1Thin,
    Example2,
    Example2Thin,
    FieldCitations,
    Gamma,
    SvhStable,
    TemperedStable,
)
from .samplers import Seed
from .stability import (
    casual_stability_residual,
    discrete_stability_residual,
    solve_pn,
)

DEFAULT_STABILITY_TOL = 1e-10
DEFAULT_COEFF_TOL = 1e-8
# largest admissible certified error of the TV distance, 0.5 (atoms + 1) tol_neg
TV_CERTIFICATE_TOL = 0.01
_USAGE_ERRORS = (ParameterError, UnsupportedError, TableError, InsufficientDataError)
_CHECK_ERRORS = (PrecisionError, IterationCapError)


def fmt(value) -> str:
    """17-significant-digit text for floats; plain text otherwise."""
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


def parse_int_range(text) -> list[int]:
    """Expand 'start..end', 'start..end:step' or a comma list, in order."""
    text = str(text).strip()
    try:
        if ".." in text:
            span, _, step_text = text.partition(":")
            start_text, _, end_text = span.partition("..")
            start, end = int(start_text), int(end_text)
            step = int(step_text) if step_text else 1
            if step < 1 or end < start:
                raise ParameterError(f"bad range: {text!r}")
            return list(range(start, end + 1, step))
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as error:
        raise ParameterError(f"bad integer range {text!r}: {error}") from error
    if not values:
        raise ParameterError(f"empty integer list {text!r}")
    return values


def parse_float_list(text) -> list[float]:
    try:
        values = [float(part) for part in str(text).split(",") if part.strip()]
    except ValueError as error:
        raise ParameterError(f"bad float list {text!r}: {error}") from error
    if not values:
        raise ParameterError(f"empty float list {text!r}")
    return values


def emit(header: list[str], rows: list[dict], *, out: str | None, as_json: bool) -> None:
    lines = []
    if as_json:
        for row in rows:
            record = {
                # strict JSON has no NaN; emit null
                key: None if isinstance(value, float) and math.isnan(value) else value
                for key, value in ((key, row.get(key)) for key in header)
            }
            lines.append(json.dumps(record))
    else:
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(fmt(row.get(key)) for key in header))
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


_FAMILIES = {
    "svh": lambda args: SvhStable(args.lam, args.alpha),
    "ex1": lambda args: Example1(args.lam, args.gamma, args.kappa, args.m),
    "ex2": lambda args: Example2(args.lam, args.gamma, args.b),
    "gamma": lambda args: Gamma(args.b, args.gamma),
    "ts": lambda args: TemperedStable(args.lam, args.alpha, args.h),
}
_THINNINGS = {
    "bernoulli": lambda args: Bernoulli(),
    "ex1": lambda args: Example1Thin(args.kappa, args.m),
    "ex2": lambda args: Example2Thin(args.b),
}


def _families_from_args(args):
    """The chosen family and its matched thinning (None for a Laplace family)."""
    family = _FAMILIES[args.family](args)
    if isinstance(family, LAPLACE_FAMILIES):
        return family, None
    pairs = family.matched_pairs()
    if not pairs:
        raise ParameterError(f"no thinning family is matched to {family!r}")
    return family, pairs[0][0]


def cmd_check_stability(args) -> int:
    family, thinning = _families_from_args(args)
    if args.casual and thinning is not None:
        raise ParameterError(
            f"--casual applies to the Laplace families (gamma, ts), not {args.family!r}"
        )
    if args.solve_pn and args.p is not None:
        raise ParameterError("--solve-pn and an explicit --p are mutually exclusive")
    ns = parse_int_range(args.n)
    rows = []
    worst = 0.0
    if thinning is None:
        header = ["n", "residual", "argmax_s"]
        for n in ns:
            report = casual_stability_residual(family, n)
            worst = max(worst, report.sup_residual)
            rows.append({"n": n, "residual": report.sup_residual, "argmax_s": report.argmax_point})
    else:
        header = ["n", "p", "residual", "argmax_z"]
        for n in ns:
            p = args.p if args.p is not None else solve_pn(family, thinning, n)
            report = discrete_stability_residual(family, thinning, n, p)
            worst = max(worst, report.sup_residual)
            rows.append({"n": n, "p": p, "residual": report.sup_residual, "argmax_z": report.argmax_point})
    emit(header, rows, out=args.out, as_json=args.json)
    if worst >= args.tol:
        print(f"stability check failed: worst residual {fmt(worst)} >= tol {fmt(args.tol)}", file=sys.stderr)
        return 1
    return 0


def cmd_check_pgf(args) -> int:
    thinning = _THINNINGS[args.thinning](args)
    header = ["p", "min_coeff", "argmin_k", "tol_neg", "norm_defect"]
    rows = []
    worst_row = None
    for p in parse_float_list(args.p):
        thinning.check_p(p)
        closure = lambda z, _p=p: thinning.thin(_p, z)
        table = extract_pmf(closure, n_max=args.n_max, radius=args.radius)
        rows.append(
            {
                "p": p,
                "min_coeff": table.min_mass,
                "argmin_k": table.argmin_atom,
                "tol_neg": table.tol_neg,
                "norm_defect": radial_norm_defect(closure),
            }
        )
        if worst_row is None or table.min_mass < worst_row["min_coeff"]:
            worst_row = rows[-1]
    emit(header, rows, out=args.out, as_json=args.json)
    if worst_row is not None and worst_row["min_coeff"] < -args.tol:
        print(
            f"p.g.f. check failed at p={fmt(worst_row['p'])}: min coefficient "
            f"{fmt(worst_row['min_coeff'])} < -{fmt(args.tol)}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_citations(args) -> int:
    header = [
        "record",
        "replicate",
        "n_scientists",
        "total",
        "mean",
        "median",
        "mode",
        "tail_exponent",
        "top_share",
        "tv_distance",
    ]
    if args.replicates < 1:
        raise ParameterError(f"--replicates must be a positive integer, not {args.replicates}")
    family = FieldCitations(args.lam, args.p, args.q)
    rows = []
    for i in range(args.replicates):
        summary = simulate_field(FieldSim(family, Seed(args.seed, args.stream + i)))
        rows.append(
            {
                "record": "field",
                "replicate": i,
                "n_scientists": summary.n_scientists,
                "total": summary.total,
                "mean": summary.mean,
                "median": summary.median,
                "mode": summary.mode,
                "tail_exponent": summary.tail_exponent_hat,
                "top_share": summary.top_share,
            }
        )
    if args.tv_check:
        # each of the atoms + 1 masses is certified to within tol_neg
        table = extract_pmf(family, args.tv_atoms, tol=2.0 * TV_CERTIFICATE_TOL / (args.tv_atoms + 1))
        totals = field_totals(FieldSim(family, Seed(args.seed, args.stream + args.replicates)), args.tv_fields)
        counts = np.bincount(totals[totals <= args.tv_atoms], minlength=args.tv_atoms + 1)
        empirical = counts / len(totals)
        tv = 0.5 * float(np.abs(empirical - table.masses).sum())
        rows.append({"record": "tv_check", "tv_distance": tv})
    emit(header, rows, out=args.out, as_json=args.json)
    return 0


def cmd_converge(args) -> int:
    target = Gamma(args.b, args.gamma)
    if args.h_kind == "matched":
        h = matched_exponential(target)
    elif args.h_kind == "mismatched":
        mean = 2.0 * target.b * target.gamma_shape

        def h(s):
            return 1.0 / (1.0 + mean * np.asarray(s, dtype=float))

    elif args.h_kind == "target":
        h = target.laplace
    else:
        raise ParameterError(f"unknown h kind {args.h_kind!r}")
    ns = parse_int_range(args.n)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        curve = convergence_curve(h, target, ns, a=args.a)
        b_values = condition_b(target, args.a, ns)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    header = ["n", "condition_b", "sup_distance"]
    rows = [
        {"n": n, "condition_b": b_val, "sup_distance": dist}
        for (n, dist), b_val in zip(curve, b_values)
    ]
    emit(header, rows, out=args.out, as_json=args.json)
    distances = [dist for _, dist in curve]
    if len(distances) >= 3:
        tail = distances[-3:]
        converged = tail[-1] < 1e-12 or (tail[0] >= tail[1] >= tail[2])
        if not converged:
            print(
                "distance not decreasing over the final three n values: "
                + ", ".join(fmt(d) for d in tail),
                file=sys.stderr,
            )
            return 1
    return 0


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")
    parser.add_argument("--json", action="store_true", help="one JSON object per line instead of CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casualstable",
        description="stability checkers and samplers for discrete/casual stable families",
    )
    parser.add_argument("--config", default=None, help="flat key=value file of defaults (flags win)")
    sub = parser.add_subparsers(dest="command", required=True)

    st = sub.add_parser("check-stability", help="residuals of the defining stability identity")
    st.add_argument("--family", required=True, choices=list(_FAMILIES))
    st.add_argument("--lambda", dest="lam", type=float, default=1.0)
    st.add_argument("--alpha", type=float, default=0.5)
    st.add_argument("--gamma", type=float, default=1.0)
    st.add_argument("--kappa", type=float, default=0.0)
    st.add_argument("--m", type=int, default=1)
    st.add_argument("--b", type=float, default=1.0)
    st.add_argument("--h", type=float, default=1.0)
    st.add_argument("--n", default="2..10", help="n range: start..end[:step] or comma list")
    st.add_argument("--p", type=float, default=None, help="thinning parameter (default: solve p(n))")
    st.add_argument("--solve-pn", dest="solve_pn", action="store_true",
                    help="solve for p(n) explicitly (the default when --p is absent)")
    st.add_argument("--casual", action="store_true",
                    help="assert the casual (Laplace-domain) check; implied by gamma/ts")
    st.add_argument("--tol", type=float, default=DEFAULT_STABILITY_TOL)
    _add_common(st)
    st.set_defaults(func=cmd_check_stability)

    pg = sub.add_parser("check-pgf", help="coefficient nonnegativity of thinning p.g.f.s")
    pg.add_argument("--thinning", required=True, choices=list(_THINNINGS))
    pg.add_argument("--kappa", type=float, default=0.0)
    pg.add_argument("--m", type=int, default=1)
    pg.add_argument("--b", type=float, default=0.0)
    pg.add_argument("--p", default="0.5", help="comma list of thinning parameters")
    pg.add_argument("--n-max", dest="n_max", type=int, default=200)
    pg.add_argument("--radius", type=float, default=0.9)
    pg.add_argument("--tol", type=float, default=DEFAULT_COEFF_TOL)
    _add_common(pg)
    pg.set_defaults(func=cmd_check_pgf)

    ci = sub.add_parser(
        "citations",
        help="simulate fields of the citation model",
        epilog="A Sibuya draw beyond 2^61 is refused: the run exits 1 with a value-cap message. "
        "The chance is about 2^(-61 p)/Gamma(1-p) per draw, one draw in 2.7e9 at p = 0.5.",
    )
    ci.add_argument("--lambda", dest="lam", type=float, default=100.0)
    ci.add_argument("--p", type=float, default=0.5)
    ci.add_argument("--q", type=float, default=0.5)
    ci.add_argument("--seed", type=int, default=42)
    ci.add_argument("--stream", type=int, default=0)
    ci.add_argument("--replicates", type=int, default=20)
    ci.add_argument("--tv-check", dest="tv_check", action="store_true")
    ci.add_argument("--tv-fields", dest="tv_fields", type=int, default=100_000)
    ci.add_argument("--tv-atoms", dest="tv_atoms", type=int, default=100)
    _add_common(ci)
    ci.set_defaults(func=cmd_citations)

    cv = sub.add_parser("converge", help="normalized-sum convergence toward a Gamma target")
    cv.add_argument("--b", type=float, default=1.0)
    cv.add_argument("--gamma", type=float, default=2.0)
    cv.add_argument("--h-kind", dest="h_kind", choices=["matched", "mismatched", "target"], default="matched")
    cv.add_argument("--a", type=float, default=2.0)
    cv.add_argument("--n", default="2,4,8,16,32,64,128,256")
    _add_common(cv)
    cv.set_defaults(func=cmd_converge)

    # subparsers parse into a fresh namespace, so config defaults must be
    # pushed onto each of them, not just the root parser
    parser.subcommand_parsers = [st, pg, ci, cv]
    return parser


def _config_path_from_argv(argv: list[str]) -> tuple[str | None, list[str]]:
    """Extract the --config path and return argv with those tokens removed.

    Stripping lets --config sit before or after the subcommand name even
    though argparse only registers it on the top-level parser.
    """
    path = None
    remaining = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--config":
            if i + 1 >= len(argv):
                raise ParameterError("--config needs a path")
            path = argv[i + 1]
            i += 2
            continue
        if token.startswith("--config="):
            path = token.partition("=")[2]
            i += 1
            continue
        remaining.append(token)
        i += 1
    return path, remaining


def _load_config(path: str, parser: argparse.ArgumentParser) -> dict:
    """Defaults from a flat ``key = value`` (or ``key value``) file.

    A key is the destination of some subcommand's option, with dashes
    read as underscores.  Values stay raw strings, so argparse converts
    each with the option's own ``type``; a flag such as ``json`` takes
    ``true`` or ``false``.  Unknown keys are rejected.
    """
    actions = {
        action.dest: action
        for sub in parser.subcommand_parsers
        for action in sub._actions
        if action.dest != "help"
    }
    values: dict = {}
    try:
        handle = open(path)
    except OSError as error:
        raise ParameterError(f"cannot read config file {path!r}: {error}") from error
    with handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            if not _:
                key, _, value = line.partition(" ")
            key = key.strip().replace("-", "_")
            value = value.strip()
            action = actions.get(key)
            if action is None:
                raise ParameterError(f"unknown config key {key!r} in {path!r}")
            if action.nargs == 0:  # a flag: no value of its own to convert
                if value not in ("true", "false"):
                    raise ParameterError(f"config flag {key!r} must be true or false, not {value!r}")
                value = value == "true"
            values[key] = value
    return values


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        config_path, argv = _config_path_from_argv(argv)
        if config_path is not None:
            overrides = _load_config(config_path, parser)
            for target in [parser, *parser.subcommand_parsers]:
                target.set_defaults(**overrides)
        args = parser.parse_args(argv)
        return args.func(args)
    except _USAGE_ERRORS as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except _CHECK_ERRORS as error:
        print(f"check failed: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
