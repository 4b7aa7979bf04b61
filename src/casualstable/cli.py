"""Command-line front end.

Four subcommands expose the checkers and simulators with reproducible
seeds and machine-readable output:

    check-stability   discrete or casual stability residuals over an n-range
    check-pgf         coefficient nonnegativity of thinning p.g.f.s
    citations         field simulation summaries, optional TV cross-check
                      (``samplers._tv_check``; exit 1 above its bound)
    converge          condition (b) values and transform-domain distances

Output is CSV with a fixed header per command (``--json`` switches to
one JSON object per line with identical field names).  Floats are
printed with 17 significant digits so round trips are exact and reruns
are byte-identical.  Every subcommand writes all its rows (to stdout or
``--out``) before they are judged; a failed judgement is one stderr line
and exit 1.  Exit codes: 0 success, 1 check failure, 2 usage/domain
error, also for an abbreviated flag (spell every flag in full) and for
``--tv-atoms`` or ``--tv-fields`` without ``--tv-check``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings

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
from .extraction import DEFAULT_RADIUS, extract_pmf, radial_norm_defect
from .families import (
    Bernoulli,
    Example1,
    Example1Thin,
    Example2,
    Example2Thin,
    FieldCitations,
    Gamma,
    LaplaceFamily,
    SvhStable,
    TemperedStable,
    _Interval,
    check_n,
)
from .samplers import TV_TAIL_PROBABILITY, Seed, _tv_check
from .stability import (
    casual_stability_residual,
    discrete_stability_residual,
    solve_pn,
)

DEFAULT_STABILITY_TOL = 1e-10
DEFAULT_COEFF_TOL = 1e-8
_TOL = _Interval(0, math.inf, "[)")
_USAGE_ERRORS = (ParameterError, UnsupportedError, TableError, InsufficientDataError, argparse.ArgumentError)
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
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as error:
            raise ParameterError(f"cannot write --out {out!r}: {error}") from error
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


# choice -> (constructor, {option dest: default}), in argument order; each
# option becomes one flag of its subcommand, typed like its default
_FAMILIES = {
    "svh": (SvhStable, {"lam": 1.0, "alpha": 0.5}),
    "ex1": (Example1, {"lam": 1.0, "gamma": 1.0, "kappa": 0.0, "m": 1}),
    "ex2": (Example2, {"lam": 1.0, "gamma": 1.0, "b": 0.0}),
    "gamma": (Gamma, {"b": 1.0, "gamma": 1.0}),
    "ts": (TemperedStable, {"lam": 1.0, "alpha": 0.5, "h": 1.0}),
}
_THINNINGS = {
    "bernoulli": (Bernoulli, {}),
    "ex1": (Example1Thin, {"kappa": 0.0, "m": 1}),
    "ex2": (Example2Thin, {"b": 0.0}),
}


def _flag(dest: str) -> str:
    """The command-line spelling of a family or thinning option."""
    return "--lambda" if dest == "lam" else f"--{dest}"


def _build(args, choice: str, table: dict):
    """The chosen object from its own options; setting another choice's is an error.

    An option is set when it is not None: a flag or a config key set it.
    An unset option takes the chosen entry's default.
    """
    constructor, defaults = table[choice]
    for _, others in table.values():
        for dest in others:
            if dest not in defaults and getattr(args, dest) is not None:
                raise ParameterError(f"{choice} does not take {_flag(dest)}")
    given = [getattr(args, dest) for dest in defaults]
    return constructor(*(default if value is None else value for value, default in zip(given, defaults.values())))


def _families_from_args(args):
    """The chosen family and its matched thinning (None for a Laplace family)."""
    family = _build(args, args.family, _FAMILIES)
    if isinstance(family, LaplaceFamily):
        if args.p is not None:
            raise ParameterError(f"{args.family} does not take --p")
        return family, None
    pairs = family.matched_pairs()
    if not pairs:
        raise ParameterError(f"no thinning family is matched to {family!r}")
    return family, pairs[0][0]


# each cmd_ returns (header, rows, failure): failure is the one stderr line
# of a failed check, or None; main writes the rows and picks the exit code
def cmd_check_stability(args):
    _TOL.check("--tol", args.tol)
    family, thinning = _families_from_args(args)
    ns = parse_int_range(args.n)
    if thinning is None:
        header = ["n", "residual", "argmax_s"]
        rows = [{"n": n} for n in ns]
        reports = [casual_stability_residual(family, n) for n in ns]
    else:
        header = ["n", "p", "residual", "argmax_z"]
        ps = [args.p if args.p is not None else solve_pn(family, thinning, n) for n in ns]
        rows = [{"n": n, "p": p} for n, p in zip(ns, ps)]
        reports = discrete_stability_residual(family, thinning, ns, ps)
    for row, report in zip(rows, reports):
        row.update({"residual": report.sup_residual, header[-1]: report.argmax_point})
    worst = max([0.0, *(row["residual"] for row in rows)])  # from 0.0, so a leading nan is passed over
    failure = None
    if worst >= args.tol:
        failure = f"stability check failed: worst residual {fmt(worst)} >= tol {fmt(args.tol)}"
    return header, rows, failure


def cmd_check_pgf(args):
    _TOL.check("--tol", args.tol)
    thinning = _build(args, args.thinning, _THINNINGS)
    header = ["p", "min_coeff", "argmin_k", "tol_neg", "norm_defect"]
    rows = []
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
    worst = min(rows, key=lambda row: row["min_coeff"])  # the first of equal minima
    failure = None
    if worst["min_coeff"] < -args.tol:
        failure = (
            f"p.g.f. check failed at p={fmt(worst['p'])}: min coefficient "
            f"{fmt(worst['min_coeff'])} < -{fmt(args.tol)}"
        )
    return header, rows, failure


def cmd_citations(args):
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
    check_n(args.replicates, "--replicates")
    for flag, value in (("--tv-atoms", args.tv_atoms), ("--tv-fields", args.tv_fields)):
        if value is not None:
            if not args.tv_check:
                raise ParameterError(f"{flag} needs --tv-check")
            check_n(value, flag)
    family = FieldCitations(args.lam, args.p, args.q)
    rows = []
    failure = None
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
        fields = 100_000 if args.tv_fields is None else args.tv_fields
        totals = field_totals(FieldSim(family, Seed(args.seed, args.stream + args.replicates)), fields)
        tv, bound = _tv_check(family, 100 if args.tv_atoms is None else args.tv_atoms, totals)
        rows.append({"record": "tv_check", "tv_distance": tv})
        if tv > bound:
            failure = (
                f"tv check failed: tv_distance {fmt(tv)} > bound {fmt(bound)} "
                f"(sampling mean, deviation at probability {TV_TAIL_PROBABILITY:.0e}, table certificate)"
            )
    return header, rows, failure


def cmd_converge(args):
    target = Gamma(args.b, args.gamma)
    if args.h_kind == "matched":
        h = matched_exponential(target)
    elif args.h_kind == "mismatched":
        h = matched_exponential(Gamma(2.0 * target.b, target.gamma_shape))
    else:  # target
        h = target.laplace
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
    tail = [dist for _, dist in curve][-3:]
    failure = None
    if len(tail) == 3 and not (tail[-1] < 1e-12 or tail[0] >= tail[1] >= tail[2]):
        failure = "distance not decreasing over the final three n values: " + ", ".join(fmt(d) for d in tail)
    return header, rows, failure


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="write output to this path instead of stdout")
    parser.add_argument("--json", action="store_true", help="one JSON object per line instead of CSV")


def _add_choice(parser: argparse.ArgumentParser, name: str, table: dict) -> None:
    """The required choice of ``table`` and one flag per option of its entries, typed like its default."""
    parser.add_argument(f"--{name}", required=True, choices=list(table))
    types = {dest: type(default) for _, defaults in table.values() for dest, default in defaults.items()}
    for dest, kind in types.items():
        parser.add_argument(_flag(dest), dest=dest, type=kind)


# takes --config out of argv wherever it stands; its errors reach main as usage errors
_CONFIG_PARSER = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
_CONFIG_PARSER.add_argument("--config", default=None, help="flat key=value file of the subcommand's own flags (flags win)")


@functools.cache  # nothing changes the parser once built, so every call shares one
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casualstable",
        description="stability checkers and samplers for discrete/casual stable families",
        parents=[_CONFIG_PARSER],
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    st = sub.add_parser("check-stability", help="residuals of the defining stability identity", allow_abbrev=False)
    _add_choice(st, "family", _FAMILIES)
    st.add_argument("--n", default="2..10", help="n range: start..end[:step] or comma list")
    st.add_argument("--p", type=float, default=None, help="thinning parameter (default: solve p(n))")
    st.add_argument("--tol", type=float, default=DEFAULT_STABILITY_TOL)
    _add_common(st)

    pg = sub.add_parser("check-pgf", help="coefficient nonnegativity of thinning p.g.f.s", allow_abbrev=False)
    _add_choice(pg, "thinning", _THINNINGS)
    pg.add_argument("--p", default="0.5", help="comma list of thinning parameters")
    pg.add_argument("--n-max", dest="n_max", type=int, default=200)
    pg.add_argument("--radius", type=float, default=DEFAULT_RADIUS)
    pg.add_argument("--tol", type=float, default=DEFAULT_COEFF_TOL)
    _add_common(pg)

    ci = sub.add_parser(
        "citations",
        help="simulate fields of the citation model", allow_abbrev=False,
        epilog="An author's citation count beyond 2^61 is carried as a float64 (53 significant bits). Only one beyond "
        "the float64 maximum 1.8e308 is refused: the run exits 1 with a value-cap message. The chance is about "
        "(q 1.8e308)^(-p)/Gamma(1-p) per draw, 4e-16 at p = 0.05, q = 0.5.",
    )
    ci.add_argument("--lambda", dest="lam", type=float, default=100.0)
    ci.add_argument("--p", type=float, default=0.5)
    ci.add_argument("--q", type=float, default=0.5)
    ci.add_argument("--seed", type=int, default=42)
    ci.add_argument("--stream", type=int, default=0)
    ci.add_argument("--replicates", type=int, default=20)
    ci.add_argument("--tv-check", dest="tv_check", action="store_true")
    ci.add_argument("--tv-fields", dest="tv_fields", type=int)
    ci.add_argument("--tv-atoms", dest="tv_atoms", type=int)
    _add_common(ci)

    cv = sub.add_parser("converge", help="normalized-sum convergence toward a Gamma target", allow_abbrev=False)
    cv.add_argument("--b", type=float, default=1.0)
    cv.add_argument("--gamma", type=float, default=2.0)
    cv.add_argument("--h-kind", dest="h_kind", choices=["matched", "mismatched", "target"], default="matched")
    cv.add_argument("--a", type=float, default=2.0)
    cv.add_argument("--n", default="2,4,8,16,32,64,128,256")
    _add_common(cv)

    parser.subcommand_parsers = sub.choices  # name -> subparser
    return parser


def _config_flags(path: str, subparser: argparse.ArgumentParser) -> list[str]:
    """The chosen subcommand's own flags from a flat ``key = value`` (or ``key value``) file.

    A key is the destination of one of the subcommand's options, with
    dashes read as underscores, and becomes ``--flag=value``, so argparse
    parses each value as it parses the flag.  A flag such as ``json``
    takes ``true`` (the bare flag) or ``false`` (no flag).  A key the
    subcommand has no option for is rejected.
    """
    actions = {action.dest: action for action in subparser._actions if action.dest != "help"}
    flags = []
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
                raise ParameterError(f"config key {key!r} in {path!r} is not an option of {subparser.prog}")
            flag = action.option_strings[0]
            if action.nargs != 0:
                flags.append(f"{flag}={value}")
            elif value not in ("true", "false"):  # a flag: no value of its own to parse
                raise ParameterError(f"config flag {key!r} must be true or false, not {value!r}")
            elif value == "true":
                flags.append(flag)
    return flags


def main(argv=None) -> int:
    parser = build_parser()
    try:
        config, argv = _CONFIG_PARSER.parse_known_args(argv)
        if config.config is not None and argv and argv[0] in parser.subcommand_parsers:
            # right after the subcommand name, so that flags typed later win
            argv[1:1] = _config_flags(config.config, parser.subcommand_parsers[argv[0]])
        args = parser.parse_args(argv)
        # looked up at call time, so a replaced cmd_ function is the one called
        header, rows, failure = globals()["cmd_" + args.command.replace("-", "_")](args)
        emit(header, rows, out=args.out, as_json=args.json)
    except _USAGE_ERRORS as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except _CHECK_ERRORS as error:
        failure = f"check failed: {error}"
    if failure is None:
        return 0
    print(failure, file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
