"""Command-line contract: exit codes, byte-identical reruns, CSV/JSON
schema, sweep parsing, and config merging."""

import dataclasses
import json
import math
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from casualstable import (
    Bernoulli,
    Example1,
    Example2,
    FieldCitations,
    FieldSim,
    Gamma,
    PmfTable,
    Seed,
    SvhStable,
    cli,
    default_z_grid,
    extraction,
    field_totals,
    samplers,
    simulate_field,
)
from casualstable.cli import fmt, main, parse_float_list, parse_int_range
from casualstable.errors import ParameterError
from casualstable.families import _COUNT, _POSITIVE, _Interval
from casualstable.samplers import _tv_check


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check-stability
# ---------------------------------------------------------------------------


def test_check_stability_svh_passes(capsys):
    code, out, err = run(
        ["check-stability", "--family", "svh", "--lambda", "1", "--alpha", "0.5", "--n", "2..50"],
        capsys,
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "n,p,residual,argmax_z"
    assert len(lines) == 50
    assert lines[1].startswith("2,0.25,")


def test_check_stability_casual_gamma_passes(capsys):
    code, out, err = run(
        ["check-stability", "--family", "gamma", "--b", "1", "--gamma", "2", "--n", "2..100"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == "n,residual,argmax_s"
    assert len(out.splitlines()) == 100


def test_alpha_above_one_exits_two_citing_the_constraint(capsys):
    code, out, err = run(
        ["check-stability", "--family", "svh", "--alpha", "1.5", "--n", "2..5"],
        capsys,
    )
    assert code == 2
    assert "greater than 1" in err


def test_family_without_matched_thinning_exits_two(capsys):
    code, out, err = run(
        ["check-stability", "--family", "ex1", "--kappa", "0", "--m", "2", "--n", "2..5"], capsys
    )
    assert code == 2 and out == ""
    assert "no thinning family is matched" in err


def test_underflowing_p_of_n_exits_two_naming_n(capsys):
    # p(n) = n^(-500): p(4) = 9.3e-302 is a normal float64, 5^(-500) rounds to 0
    argv = ["check-stability", "--family", "svh", "--alpha", "0.002"]
    code, out, err = run(argv + ["--n", "4..6"], capsys)
    assert (code, out) == (2, "")
    assert "underflows at n = 5" in err
    code, out, err = run(argv + ["--n", "2..4"], capsys)
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "argv, n",
    [
        (["--family", "ex2", "--gamma", "0.01", "--n", "20..100:20"], 40),
        (["--family", "ex2", "--gamma", "0.01", "--b", "-0.9", "--n", "2..40:9"], 38),
        (["--family", "svh", "--alpha", "0.01", "--n", "1000..1100:20"], 1040),
    ],
)
def test_underflowing_thinned_complement_exits_two_naming_n(argv, n, capsys):
    # p(n) is normal, 1 - Q_p(z) is not: a refusal, not a failed identity
    code, out, err = run(["check-stability", *argv], capsys)
    assert (code, out) == (2, "")
    assert f"underflows at n = {n}, p = " in err


# each matched family: its flags, the top of its exponent interval, and
# the same family from (exponent, b)
EXPONENT_FAMILIES = {
    "svh": (["--family", "svh", "--alpha"], 1.0, lambda a, b: SvhStable(1.0, a)),
    "ex1": (["--family", "ex1", "--kappa", "0.5", "--gamma"], 1.0, lambda a, b: Example1(1.0, a, 0.5)),
    "ex1_m2": (["--family", "ex1", "--kappa", "0.5", "--m", "2", "--gamma"], 1.0,
               lambda a, b: Example1(1.0, a, 0.5, 2)),
    "ex2": (["--family", "ex2", "--gamma"], 2.0, lambda a, b: Example2(1.0, a, b)),
}


def log_uniform(lo, top):
    """Log-uniform on [lo, top]."""
    return st.floats(math.log(lo), math.log(top)).map(lambda x: min(max(math.exp(x), lo), top))


@pytest.mark.parametrize("family", EXPONENT_FAMILIES)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(2, 200), b=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
def test_stability_verdict_is_never_false_over_the_exponent_interval(family, data, n, b, capsys):
    # run reads capsys after every call, so no output leaks between examples
    flags, top, build = EXPONENT_FAMILIES[family]
    # the whole (0, top] from the smallest positive float, and as often the
    # part where p(n) = n^(-1/exponent) is a normal float64 (below it every n is refused)
    exponent = data.draw(st.one_of(log_uniform(5e-324, top), log_uniform(math.log(n) / 708, top)))
    argv = ["check-stability", *flags, repr(exponent), "--n", str(n)]
    if family == "ex2":
        argv.append(f"--b={b!r}")
    code, out, err = run(argv, capsys)
    assert code in (0, 2), err
    # negative control: 0.99 p(n) scales x = -log P(z) by c = 0.99^exponent, so the
    # residual is at least max P x (1 - c); where that clears the tolerance, exit 1
    if code == 0:
        x = -np.log(build(exponent, b).pgf(default_z_grid()))
        if np.max(np.exp(-x) * x) * (1.0 - 0.99 ** exponent) > 1e-9:
            p = float(out.splitlines()[1].split(",")[1])
            assert run(argv + ["--p", repr(0.99 * p)], capsys)[0] == 1


def test_ex2_family_default_lies_in_its_domain(capsys):
    # b defaults to 0, as for the ex2 thinning: (-1, 1) excludes 1
    code, out, err = run(["check-stability", "--family", "ex2", "--n", "2..3"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == "n,p,residual,argmax_z"


@pytest.mark.parametrize("family", ["gamma", "ts"])
def test_laplace_family_refuses_p(family, tmp_path, capsys):
    # the casual check has no thinning parameter: --p is refused, not ignored
    code, out, err = run(["check-stability", "--family", family, "--n", "2..3", "--p", "nan"], capsys)
    assert (code, out) == (2, "")
    assert "--p" in err and family in err
    cfg = tmp_path / "p.cfg"
    cfg.write_text("p = 0.5\n")
    code, out, err = run(["--config", str(cfg), "check-stability", "--family", family, "--n", "2..3"], capsys)
    assert (code, out) == (2, "")
    assert "--p" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["check-stability", "--family", "gamma", "--b", "inf", "--gamma", "2", "--n", "2..3"],
        ["check-stability", "--family", "ts", "--h", "inf", "--n", "2..3"],
        ["citations", "--lambda", "inf", "--replicates", "1"],
    ],
    ids=["gamma-b", "ts-h", "citations-lambda"],
)
def test_non_finite_parameter_exits_two(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert "must be finite" in err


def test_tightened_tolerance_exits_one(capsys):
    code, out, err = run(
        ["check-stability", "--family", "svh", "--alpha", "0.5", "--n", "2..5", "--tol", "1e-18"],
        capsys,
    )
    assert code == 1
    assert "stability check failed" in err


@pytest.mark.parametrize("flag", ["--casual", "--solve-pn"])
def test_removed_flags_are_usage_errors(flag, capsys):
    with pytest.raises(SystemExit) as stop:
        main(["check-stability", "--family", "gamma", flag, "--n", "2..3"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check-stability", "--family", "svh", "--p", "0.3", "--n", "2..3", "--tol", "nan"], "--tol"),
        (["check-stability", "--family", "svh", "--n", "2..3", "--tol", "inf"], "--tol"),
        (["check-stability", "--family", "gamma", "--n", "2..3", "--tol=-1"], "--tol"),
        (["check-pgf", "--thinning", "bernoulli", "--n-max", "20", "--tol", "nan"], "--tol"),
        (["check-pgf", "--thinning", "bernoulli", "--n-max", "20", "--tol=-1"], "--tol"),
        (["converge", "--n", "2,4", "--a", "nan"], "a must lie in (0, inf)"),
        (["converge", "--n", "2,4", "--a", "inf"], "a must lie in (0, inf)"),
    ],
)
def test_bad_tolerance_or_exponent_exits_two_before_any_row(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert message in err


# each family's and thinning's own options, at values that pass at n = 2, 3
OWN_OPTIONS = {
    "check-stability": {
        "svh": ["--lambda", "2", "--alpha", "0.7"],
        "ex1": ["--lambda", "2", "--gamma", "0.5", "--kappa", "0.6", "--m", "2"],
        "ex2": ["--lambda", "2", "--gamma", "1.5", "--b", "0.2"],
        "gamma": ["--b", "2", "--gamma", "3"],
        "ts": ["--lambda", "2", "--alpha", "0.5", "--h", "2"],
    },
    "check-pgf": {
        "bernoulli": [],
        "ex1": ["--kappa", "0.6", "--m", "2"],
        "ex2": ["--b", "0.3"],
    },
}
CHOICE_FLAG = {"check-stability": "--family", "check-pgf": "--thinning"}
SIZE = {"check-stability": ["--n", "2..3"], "check-pgf": ["--n-max", "20", "--p", "0.5"]}


def test_own_options_cover_every_choice():
    assert list(OWN_OPTIONS["check-stability"]) == list(cli._FAMILIES)
    assert list(OWN_OPTIONS["check-pgf"]) == list(cli._THINNINGS)


def foreign_pairs() -> list[tuple[str, str, str]]:
    """(subcommand, choice, option) for every option of the subcommand's
    families or thinnings that the choice does not take."""
    pairs = []
    for command, own in OWN_OPTIONS.items():
        flags = sorted({flag for argv in own.values() for flag in argv[::2]})
        for choice, argv in own.items():
            pairs += [(command, choice, flag) for flag in flags if flag not in argv[::2]]
    return pairs


@pytest.mark.parametrize("command, choice, flag", foreign_pairs())
def test_foreign_option_exits_two_naming_it(command, choice, flag, capsys):
    argv = [command, CHOICE_FLAG[command], choice, *OWN_OPTIONS[command][choice], *SIZE[command], flag, "1"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert flag in err and choice in err


@pytest.mark.parametrize(
    "command, choice", [(command, choice) for command, own in OWN_OPTIONS.items() for choice in own]
)
def test_own_options_are_accepted(command, choice, capsys):
    # negative control for the foreign-option refusal
    argv = [command, CHOICE_FLAG[command], choice, *OWN_OPTIONS[command][choice], *SIZE[command]]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")


def test_foreign_option_from_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "ts.cfg"
    cfg.write_text("h = 2\n")
    code, out, err = run(["--config", str(cfg), "check-stability", "--family", "svh", "--n", "2..3"], capsys)
    assert (code, out) == (2, "")
    assert "--h" in err
    code, out, err = run(["--config", str(cfg), "check-stability", "--family", "ts", "--n", "2..3"], capsys)
    assert code == 0


# every subcommand at small sizes, once per family or thinning choice;
# Example2 needs b in (-1, 1), and 20,000 authors give a finite tail exponent
GUARD_BASES = {
    "check-stability": [
        ["--family", family, "--n", "2..3", *(["--b", "0.2"] if family == "ex2" else [])]
        for family in cli._FAMILIES
    ],
    "check-pgf": [["--thinning", thinning, "--n-max", "20"] for thinning in cli._THINNINGS],
    "citations": [["--lambda", "20000", "--replicates", "1"]],
    "converge": [["--n", "2,4"]],
}


def float_options() -> list[tuple[str, str]]:
    """(subcommand, option) for every float-typed option of the parser."""
    return [
        (command, action.option_strings[0])
        for command, sub in cli.build_parser().subcommand_parsers.items()
        for action in sub._actions
        if action.type is float
    ]


def refused_or_clean(code, out: str) -> bool:
    """A refused run exits 2 and prints nothing; a finished run prints no nan."""
    return (code == 2 and out == "") or (code in (0, 1) and "nan" not in out)


@pytest.mark.parametrize("command, option", float_options())
def test_non_finite_float_option_is_refused_or_clean(command, option, capsys):
    for base in GUARD_BASES[command]:
        for value in ("nan", "inf", "-inf"):
            # the = form keeps argparse from reading -inf as an option name
            code = main([command, *base, f"{option}={value}"])
            out = capsys.readouterr().out
            assert refused_or_clean(code, out), (command, base, option, value, code, out)


def test_guard_flags_a_run_that_prints_nan(capsys):
    # negative control: too few authors for a tail exponent prints nan and exits 0
    code = main(["citations", "--lambda", "5", "--replicates", "1"])
    out = capsys.readouterr().out
    assert code == 0 and "nan" in out
    assert not refused_or_clean(code, out)


# the citations base reaches --tv-atoms through the TV cross-check
INT_GUARD_BASES = {
    **GUARD_BASES,
    "citations": [
        ["--lambda", "20000", "--replicates", "1"],
        ["--lambda", "1", "--replicates", "1", "--tv-check", "--tv-fields", "1000", "--tv-atoms", "20"],
    ],
}


def int_options() -> list[tuple[str, str]]:
    """(subcommand, option) for every int-typed option of the parser."""
    return [
        (command, action.option_strings[0])
        for command, sub in cli.build_parser().subcommand_parsers.items()
        for action in sub._actions
        if action.type is int
    ]


def guarded_run(argv, capsys):
    """(exit code, stdout) of one run; an exception escaping main stands in for the code."""
    try:
        code = main(argv)
    except SystemExit as stop:  # argparse's usage errors
        code = stop.code
    except Exception as error:
        code = error
    return code, capsys.readouterr().out


def refused_or_finished(code, out: str) -> bool:
    """A refused run exits 2 and prints nothing; a finished run exits 0 or 1."""
    return (code == 2 and out == "") or code in (0, 1)


@pytest.mark.parametrize("command, option", int_options())
def test_zero_or_negative_int_option_is_refused_or_finishes(command, option, capsys):
    for base in INT_GUARD_BASES[command]:
        for value in ("0", "-1"):
            code, out = guarded_run([command, *base, f"{option}={value}"], capsys)
            assert refused_or_finished(code, out), (command, base, option, value, code, out)


def test_int_guard_reports_an_escaping_exception(capsys):
    # negative control: an error raised out of main fails the guard
    with mock.patch.object(cli, "cmd_citations", side_effect=ZeroDivisionError("float division by zero")):
        code, out = guarded_run(["citations", "--replicates", "1"], capsys)
    assert isinstance(code, ZeroDivisionError)
    assert not refused_or_finished(code, out)


# ---------------------------------------------------------------------------
# every numeric flag against the interval that states its domain
# ---------------------------------------------------------------------------


def domain_flags() -> list[tuple[list[str], str, _Interval, str, bool]]:
    """(base argv, flag, interval, name the refusal gives, integer-typed) for every numeric flag with a domain.

    Each base runs cleanly at every value just inside the interval (n = 1
    needs no p(n), so the exponents' ends do not underflow it).
    """
    flags = []
    for command, choice_flag, table, size in (
        ("check-stability", "--family", cli._FAMILIES, ["--n", "1"]),
        ("check-pgf", "--thinning", cli._THINNINGS, ["--n-max", "20"]),
    ):
        for choice, (constructor, defaults) in table.items():
            for dest, field in zip(defaults, dataclasses.fields(constructor)):
                base = [command, choice_flag, choice, *size]
                flags.append((base, cli._flag(dest), constructor.domains[field.name], field.name, field.type == "int"))
    svh = ["check-stability", "--family", "svh", "--n", "1"]
    pgf = ["check-pgf", "--thinning", "bernoulli", "--n-max", "20"]
    field = ["citations", "--lambda", "1", "--replicates", "1"]
    tv = [*field, "--tv-check", "--tv-fields", "1000", "--tv-atoms", "20"]
    converge = ["converge", "--n", "2,4"]
    return flags + [
        (svh, "--p", Bernoulli().p_domain(), "p", False),
        (svh, "--tol", cli._TOL, "--tol", False),
        (svh, "--n", _COUNT, "n", True),
        (pgf, "--p", Bernoulli().p_domain(), "p", False),
        (pgf, "--n-max", _COUNT, "n_max", True),
        (pgf, "--radius", extraction._RADIUS, "radius", False),
        (pgf, "--tol", cli._TOL, "--tol", False),
        (field, "--lambda", FieldCitations.domains["lam"], "lam", False),
        (field, "--p", FieldCitations.domains["p"], "p", False),
        (field, "--q", FieldCitations.domains["q"], "q", False),
        (field, "--seed", samplers._UINT64, "value", True),
        (field, "--stream", samplers._UINT64, "stream_id", True),
        (field, "--replicates", _COUNT, "--replicates", True),
        (tv, "--tv-fields", _COUNT, "--tv-fields", True),
        (tv, "--tv-atoms", _COUNT, "--tv-atoms", True),
        (converge, "--b", Gamma.domains["b"], "b", False),
        (converge, "--gamma", Gamma.domains["gamma_shape"], "gamma_shape", False),
        (converge, "--a", _POSITIVE, "a", False),
        (converge, "--n", _COUNT, "n", True),
    ]


def end_probes(interval: _Interval, integer: bool) -> list[tuple[float, float]]:
    """(outside, inside) at each finite end: the nearest float, or integer, on either side of the interval's edge."""
    def step(x, direction):
        return x + direction if integer else float(np.nextafter(x, direction * math.inf))

    probes = []
    for end, closed, outward in ((interval.lo, interval.ends[0] == "[", -1), (interval.hi, interval.ends[1] == "]", 1)):
        if math.isfinite(end):
            probes.append((step(end, outward), end) if closed else (end, step(end, -outward)))
    return probes


def domain_cases() -> list:
    """One case per probe: (argv, refused, name, the value as the refusal prints it)."""
    cases = []
    for base, flag, interval, name, integer in domain_flags():
        kind = int if integer else float
        probes = [] if integer else [(value, True) for value in (math.nan, math.inf, -math.inf)]
        for outside, inside in end_probes(interval, integer):
            probes += [(outside, True), (inside, False)]
        for value, refused in probes:
            text = str(kind(value))  # the text argparse reads back to this value
            cases.append(pytest.param(
                [*base, f"{flag}={text}"], refused, name, text,
                id=f"{' '.join(base[:3] if base[1] in CHOICE_FLAG.values() else base[:1])} {flag}={text} "
                   f"{'refused' if refused else 'accepted'}",
            ))
    return cases


# values just inside a domain that another, kept rule refuses: argv suffix -> its message
REFUSED_BY_ANOTHER_RULE = {
    ("--family", "ts", "--n", "1", "--alpha=5e-324"): "1/alpha must be a positive integer",
    ("--family", "svh", "--n", "1", "--p=5e-324"): "1 - Q_p(z) underflows at n = 1",
    ("--thinning", "bernoulli", "--n-max", "20", "--radius=5e-324"): "radius ** n_max = 5e-324 ** 20 underflows",
}


@pytest.mark.parametrize("argv, refused, name, text", domain_cases())
def test_numeric_flag_is_checked_against_its_interval(argv, refused, name, text, capsys):
    code, out, err = run(argv, capsys)
    other_rule = REFUSED_BY_ANOTHER_RULE.get(tuple(argv[1:]))
    if refused:
        # one line that names the parameter and ends with the value
        assert (code, out) == (2, ""), (code, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"{name} must " in err and err.endswith(f", not {text}\n"), err
    elif other_rule is not None:
        assert (code, out) == (2, "") and other_rule in err, err
    else:
        assert code in (0, 1), (code, err)


# ---------------------------------------------------------------------------
# check-pgf
# ---------------------------------------------------------------------------


def test_check_pgf_bernoulli_passes(capsys):
    code, out, err = run(
        ["check-pgf", "--thinning", "bernoulli", "--p", "0.5", "--n-max", "50"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "p,min_coeff,argmin_k,tol_neg,norm_defect"


def test_check_pgf_example2_sweep_passes(capsys):
    code, out, err = run(
        [
            "check-pgf", "--thinning", "ex2", "--b", "-0.5",
            "--p", "0.2,0.3333333333333333,0.5", "--n-max", "100",
        ],
        capsys,
    )
    assert code == 0
    assert len(out.splitlines()) == 4


@pytest.mark.parametrize("b", ["0.5", "0.99"])
def test_check_pgf_example2_identity_passes(b, capsys):
    # Q_1(z) = z: every coefficient but c_1 = 1 is 0
    code, out, err = run(["check-pgf", "--thinning", "ex2", "--b", b, "--p", "1.0"], capsys)
    assert (code, err) == (0, "")


def test_check_pgf_inadmissible_parameter_exits_two(capsys):
    code, out, err = run(
        ["check-pgf", "--thinning", "ex1", "--kappa", "0.5", "--m", "2", "--p", "0.8"],
        capsys,
    )
    assert code == 2
    assert "kappa" in err


@pytest.mark.parametrize("argv", [
    ["check-pgf", "--thinning", "bernoulli", "--p", "0.5", "--n-max", "100000000000"],
    ["citations", "--lambda", "1", "--replicates", "1", "--tv-check", "--tv-fields", "1000",
     "--tv-atoms", "100000000000"],
], ids=["check-pgf", "citations"])
def test_huge_table_depth_exits_two_before_allocating(argv, capsys):
    # the extraction circle would hold 8e11 points; refused by its cap, not by a MemoryError
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: n_max must be at most 2^23")


def test_table_depth_whose_radius_power_underflows_exits_two(capsys):
    # 0.9^10001 underflows: refused by name, with no RuntimeWarning
    argv = ["check-pgf", "--thinning", "bernoulli", "--p", "0.5", "--n-max", "10001"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(argv, capsys)
    assert (code, out, caught) == (2, "", [])
    assert err == "error: radius ** n_max = 0.9 ** 10001 underflows; raise the radius or lower n_max\n"
    # negative control: the same depth on a radius near 1 is extracted
    code, out, err = run(argv + ["--radius", "0.999"], capsys)
    assert (code, err) == (0, "")


# ---------------------------------------------------------------------------
# citations
# ---------------------------------------------------------------------------


def test_citations_rerun_is_byte_identical(tmp_path, capsys):
    argv = [
        "citations", "--lambda", "10", "--p", "0.5", "--q", "0.5",
        "--seed", "7", "--replicates", "3",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")


@pytest.mark.parametrize("target", ["missing/out.csv", "."], ids=["missing-directory", "directory"])
def test_unwritable_out_exits_two(target, tmp_path, capsys):
    code, out, err = run(["converge", "--n", "2,4", "--out", str(tmp_path / target)], capsys)
    assert (code, out) == (2, "")
    assert "cannot write --out" in err


def test_citations_tv_check_row(capsys):
    code, out, err = run(
        [
            "citations", "--lambda", "1", "--p", "0.5", "--q", "0.5", "--seed", "9",
            "--replicates", "2", "--tv-check", "--tv-fields", "20000",
        ],
        capsys,
    )
    assert code == 0
    last = out.splitlines()[-1].split(",")
    assert last[0] == "tv_check"
    assert float(last[-1]) < 0.05


def test_citations_rejects_p_zero(capsys):
    code, out, err = run(["citations", "--p", "0", "--replicates", "1"], capsys)
    assert code == 2


@pytest.mark.parametrize("replicates", ["0", "-1"])
def test_citations_rejects_non_positive_replicates(replicates, capsys):
    code, out, err = run(["citations", "--lambda", "1", "--replicates", replicates], capsys)
    assert code == 2
    assert out == ""
    assert "--replicates" in err


@pytest.mark.parametrize("atoms", ["0", "-1"])
def test_citations_tv_check_rejects_non_positive_atoms(atoms, capsys):
    code, out, err = run(
        ["citations", "--lambda", "1", "--replicates", "1", "--tv-check", f"--tv-atoms={atoms}"], capsys
    )
    assert (code, out) == (2, "")
    assert "--tv-atoms" in err


@pytest.mark.parametrize("fields", ["0", "-1"])
def test_citations_tv_check_rejects_non_positive_fields(fields, capsys):
    code, out, err = run(
        ["citations", "--lambda", "1", "--replicates", "1", "--tv-check", f"--tv-fields={fields}"], capsys
    )
    assert (code, out) == (2, "")
    assert "--tv-fields" in err


@pytest.mark.parametrize("option", ["--tv-atoms=-1", "--tv-atoms=100", "--tv-fields=1000"])
def test_tv_option_without_tv_check_exits_two_naming_it(option, capsys):
    # the option would be ignored: only the TV cross-check reads it
    code, out, err = run(["citations", "--lambda", "5", "--replicates", "2", option], capsys)
    assert (code, out) == (2, "")
    assert option.partition("=")[0] in err and "--tv-check" in err


def test_tv_option_from_config_needs_tv_check(tmp_path, capsys):
    cfg = tmp_path / "tv.cfg"
    cfg.write_text("tv_atoms = 5\ntv_fields = 1000\n")
    code, out, err = run(["--config", str(cfg), "citations", "--lambda", "100", "--replicates", "1"], capsys)
    assert (code, out) == (2, "")
    assert "--tv-atoms" in err
    # negative control: the same keys with the cross-check
    cfg.write_text("tv_atoms = 5\ntv_fields = 1000\ntv_check = true\n")
    code, out, err = run(["--config", str(cfg), "citations", "--lambda", "100", "--replicates", "1"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("tv_check,")


def test_tv_options_with_tv_check_are_read(capsys):
    argv = ["citations", "--lambda", "100", "--replicates", "1", "--tv-check", "--tv-atoms", "5", "--tv-fields", "1000"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("tv_check,")


def test_citations_tv_check_enforces_its_certificate(capsys):
    # at 400 atoms the summed table bound 0.5 (atoms + 1) tol_neg is far
    # above 0.01, so the distance it would print is meaningless
    argv = ["citations", "--lambda", "1", "--replicates", "1", "--tv-check", "--tv-fields", "1000"]
    code, out, err = run(argv + ["--tv-atoms", "400"], capsys)
    assert code == 1
    assert out == ""
    assert "certified extraction bound" in err
    assert "rounding part" in err and "lower n_max" in err
    code, out, err = run(argv + ["--tv-atoms", "200"], capsys)
    assert code == 0
    assert out.splitlines()[-1].startswith("tv_check,")


TV_POWER_ARGV = ["citations", "--lambda", "1", "--p", "0.5", "--q", "0.5", "--seed", "3", "--replicates", "1",
                 "--tv-check", "--tv-fields", "250000", "--tv-atoms", "200"]


def test_citations_tv_check_fails_a_distance_above_its_bound(monkeypatch, capsys):
    # negative control: field totals drawn at q = 0.55 against the q = 0.5
    # table.  At lam = 1, 2.5e5 fields and 200 atoms the bound is 0.0140;
    # over seeds 1-5 the true law reads TV 0.006-0.007, q = 0.55, q = 0.45
    # and p = 0.52 read 0.015-0.020 and fail, while q = 0.52 and
    # lam = 1.02 read 0.008-0.012 and pass: the check sees about a 10%
    # parameter error at this size, and less in p, which moves the tail cell
    family = FieldCitations(1.0, 0.5, 0.5)
    seed = Seed(3, 1)  # --seed 3, --stream 0 plus one replicate
    # one path: the row prints _tv_check's distance and a failure its bound
    tv, bound = _tv_check(family, 200, field_totals(FieldSim(family, seed), 250_000))
    wrong_tv, wrong_bound = _tv_check(family, 200, _wrong_q_totals(FieldSim(family, seed), 250_000))
    assert wrong_bound == bound
    code, out, err = run(TV_POWER_ARGV, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "tv_check" + "," * 9 + fmt(tv)

    monkeypatch.setattr(cli, "field_totals", _wrong_q_totals)
    code, wrong_out, err = run(TV_POWER_ARGV, capsys)
    assert code == 1
    assert wrong_out.splitlines()[:-1] == out.splitlines()[:-1]  # the rows are printed all the same
    assert wrong_out.splitlines()[-1] == "tv_check" + "," * 9 + fmt(wrong_tv)
    assert err.startswith(f"tv check failed: tv_distance {fmt(wrong_tv)} > bound {fmt(bound)} ")
    assert fmt(bound).startswith("0.01395")


def test_citations_help_states_the_value_cap(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["citations", "--help"])
    assert stop.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "beyond 2^61 is carried as a float64" in text
    assert "beyond the float64 maximum 1.8e308 is refused" in text


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 9])
def test_citations_small_q_refuses_or_succeeds(seed, capsys):
    # at p = 0.2, q = 1e-6 about 0.29% of authors exceed 2^61, so most
    # runs of ~1000 authors carry float64 draws (seed 9 does not); every
    # run succeeds, and its total is at least its largest author's count
    code, out, err = run(
        ["citations", "--lambda", "1000", "--p", "0.2", "--q", "1e-6", "--replicates", "1", "--seed", str(seed)],
        capsys,
    )
    assert (code, err) == (0, "")
    row = out.splitlines()[1].split(",")
    largest = simulate_field(FieldSim(FieldCitations(1000.0, 0.2, 1e-6), Seed(seed, 0))).per_author_citations.max()
    assert row[0] == "field" and int(row[3]) >= largest


def test_citations_tv_check_carries_draws_past_2_61(capsys):
    # a TV call whose field totals hold a draw above 2^61; it was refused
    # while such draws were
    argv = ["citations", "--lambda", "1.0", "--p", "0.5", "--q", "0.5", "--seed", "5", "--stream", "31000",
            "--replicates", "25", "--tv-check", "--tv-fields", "250000", "--tv-atoms", "200"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    records = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert records == ["field"] * 25 + ["tv_check"]


def test_citations_json_rows_parse(capsys):
    code, out, err = run(
        ["citations", "--lambda", "10", "--replicates", "2", "--json", "--seed", "3"],
        capsys,
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 2
    assert rows[0]["record"] == "field"
    assert rows[0]["replicate"] == 0 and rows[1]["replicate"] == 1
    assert set(rows[0]) == {
        "record", "replicate", "n_scientists", "total", "mean", "median",
        "mode", "tail_exponent", "top_share", "tv_distance",
    }
    # too few scientists for a tail fit: NaN must serialize as strict-JSON null
    assert all(row["tail_exponent"] is None for row in rows)
    assert "NaN" not in out


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def test_converge_matched_doubling_passes(capsys):
    code, out, err = run(
        ["converge", "--b", "1", "--gamma", "2", "--n", "2,4,8,16,32,64,128,256"],
        capsys,
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "n,condition_b,sup_distance"
    assert len(lines) == 9
    # condition (b) values sit below 1/n at a = 2
    for line in lines[1:]:
        n, cond_b, _ = line.split(",")
        assert float(cond_b) <= 1.0 / int(n)


def test_converge_target_h_is_flat(capsys):
    code, out, err = run(["converge", "--h-kind", "target", "--n", "2,10,100"], capsys)
    assert code == 0
    for line in out.splitlines()[1:]:
        assert float(line.split(",")[2]) < 1e-12


def test_converge_mismatched_warns_and_fails(capsys):
    code, out, err = run(
        ["converge", "--h-kind", "mismatched", "--n", "2,4,8"], capsys
    )
    assert code == 1
    assert "warning: condition (a)" in err
    assert "not decreasing" in err


# ---------------------------------------------------------------------------
# the one verdict path: rows first, then one failure line and exit 1
# ---------------------------------------------------------------------------


def _one_negative_mass(*args, **kwargs):
    return PmfTable(np.arange(3), [0.5, -1e-3, 0.5], 0.0)


def _wrong_q_totals(cfg, n_fields):
    return field_totals(FieldSim(FieldCitations(cfg.family.lam, cfg.family.p, 0.55), cfg.seed), n_fields)


FAILING_RUNS = {
    "check-stability": (["check-stability", "--family", "svh", "--alpha", "0.5", "--n", "2..5", "--tol", "1e-18"],
                        None, None),
    "check-pgf": (["check-pgf", "--thinning", "bernoulli", "--p", "0.5", "--n-max", "2"],
                  "extract_pmf", _one_negative_mass),
    "citations": (TV_POWER_ARGV, "field_totals", _wrong_q_totals),
    "converge": (["converge", "--h-kind", "mismatched", "--n", "2,4,8"], None, None),
}


@pytest.mark.parametrize("command", FAILING_RUNS)
def test_failed_check_writes_its_rows_to_out_then_one_failure_line(command, monkeypatch, tmp_path, capsys):
    argv, name, replacement = FAILING_RUNS[command]
    if name is not None:
        monkeypatch.setattr(cli, name, replacement)
    code, printed, err = run(argv, capsys)
    assert code == 1 and printed.count("\n") > 1
    out = tmp_path / "rows.csv"
    code, stdout, err_with_out = run(argv + ["--out", str(out)], capsys)
    assert (code, stdout, err_with_out) == (1, "", err)
    assert out.read_bytes() == printed.encode()
    assert len([line for line in err.splitlines() if not line.startswith("warning: ")]) == 1

# ---------------------------------------------------------------------------
# sweep parsing and formatting helpers
# ---------------------------------------------------------------------------


def test_parse_int_range_forms():
    assert parse_int_range("2..10") == list(range(2, 11))
    assert parse_int_range("2..50:3") == list(range(2, 51, 3))
    assert parse_int_range("5,2,9") == [5, 2, 9]
    assert parse_int_range(4) == [4]
    with pytest.raises(ParameterError, match="bad range"):
        parse_int_range("5..2")
    with pytest.raises(ParameterError, match="bad range"):
        parse_int_range("2..10:0")
    with pytest.raises(ParameterError, match="bad integer range"):
        parse_int_range("abc")
    with pytest.raises(ParameterError, match="empty integer list"):
        parse_int_range(",")


@given(a=st.integers(-1000, 1000), length=st.integers(0, 500), s=st.integers(1, 50))
@settings(max_examples=200, deadline=None)
def test_parse_int_range_matches_python_range(a, length, s):
    b = a + length
    assert parse_int_range(f"{a}..{b}:{s}") == list(range(a, b + 1, s))


def test_parse_float_list_forms():
    assert parse_float_list("0.5,1e-3") == [0.5, 0.001]
    assert parse_float_list(0.5) == [0.5]
    with pytest.raises(ParameterError, match="bad float list"):
        parse_float_list("x")
    with pytest.raises(ParameterError, match="empty float list"):
        parse_float_list(",")


@pytest.mark.parametrize(
    "argv",
    [
        ["check-stability", "--family", "svh", "--n", ","],
        ["check-pgf", "--thinning", "bernoulli", "--p", ","],
        ["converge", "--b", "1", "--gamma", "2", "--h-kind", "matched", "--n", ","],
    ],
    ids=["check-stability", "check-pgf", "converge"],
)
def test_empty_sweep_list_exits_two(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert "empty" in err


def test_fmt_round_trips_17_digits():
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(None) == ""
    assert fmt(3) == "3"
    assert fmt("tv_check") == "tv_check"
    for value in [0.1, 1.0 / 3.0, 2.0 ** -52, 1e300]:
        assert float(fmt(value)) == value


# ---------------------------------------------------------------------------
# config merging
# ---------------------------------------------------------------------------


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("# stability defaults\nalpha = 0.8\nn = 2\n")
    code, out, err = run(
        ["--config", str(cfg), "check-stability", "--family", "svh"], capsys
    )
    assert code == 0
    # p(2) = 2^(-1/0.8)
    assert out.splitlines()[1].startswith("2,0.42044820762685725,")


def test_config_after_subcommand(tmp_path, capsys):
    # placement is free: the path is extracted before argparse sees argv
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("alpha = 0.8\nn = 2\n")
    code, out, err = run(
        ["check-stability", "--family", "svh", "--config", str(cfg)], capsys
    )
    assert code == 0
    assert out.splitlines()[1].startswith("2,0.42044820762685725,")


def test_explicit_flags_beat_config(tmp_path, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("alpha = 0.8\n")
    code, out, err = run(
        ["--config=" + str(cfg), "check-stability", "--family", "svh", "--alpha", "0.5", "--n", "2"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1].startswith("2,0.25,")


def test_config_space_form_and_dashed_keys(tmp_path, capsys):
    cfg = tmp_path / "conv.cfg"
    cfg.write_text("h-kind target\n")
    code, out, err = run(["--config", str(cfg), "converge", "--n", "2,10"], capsys)
    assert code == 0
    assert all(float(line.split(",")[2]) < 1e-12 for line in out.splitlines()[1:])


def test_config_false_flag_stays_off(tmp_path, capsys):
    cfg = tmp_path / "flags.cfg"
    cfg.write_text("json = false\n")
    code, out, err = run(["--config", str(cfg), "check-stability", "--family", "svh", "--n", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "n,p,residual,argmax_z"
    cfg.write_text("json = true\n")
    code, out, err = run(["--config", str(cfg), "check-stability", "--family", "svh", "--n", "2"], capsys)
    assert code == 0
    assert json.loads(out.splitlines()[0])["n"] == 2
    cfg.write_text("json = 0\n")
    code, out, err = run(["--config", str(cfg), "check-stability", "--family", "svh", "--n", "2"], capsys)
    assert code == 2
    assert "json" in err


def test_config_unknown_key_exits_two_naming_it(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("lamda = 10\n")
    code, out, err = run(["--config", str(cfg), "citations", "--replicates", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "lamda" in err


@pytest.mark.parametrize("line", ["h = 2", "tv_atoms = 5", "n = 50"])
def test_config_key_of_another_subcommand_exits_two_naming_it(line, tmp_path, capsys):
    # check-pgf has no --h, --tv-atoms or --n; n is not read as a prefix of --n-max
    cfg = tmp_path / "other.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run(["--config", str(cfg), "check-pgf", "--thinning", "bernoulli", "--n-max", "20"], capsys)
    assert (code, out) == (2, "")
    assert repr(line.split()[0]) in err and "check-pgf" in err


def test_config_key_of_the_chosen_subcommand_is_read(tmp_path, capsys):
    # negative control for the refusal above
    cfg = tmp_path / "own.cfg"
    cfg.write_text("n = 2..3\n")
    code, out, err = run(["--config", str(cfg), "check-stability", "--family", "svh"], capsys)
    assert (code, err) == (0, "")
    assert [line.split(",")[0] for line in out.splitlines()] == ["n", "2", "3"]


def test_config_key_sets_the_required_choice(tmp_path, capsys):
    cfg = tmp_path / "family.cfg"
    cfg.write_text("family = svh\nalpha = 0.8\n")
    code, out, err = run(["--config", str(cfg), "check-stability", "--n", "2"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("2,0.42044820762685725,")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
CITATION_OPTIONS = {
    "lam": FINITE,
    "p": FINITE,
    "q": FINITE,
    "seed": st.integers(-(2 ** 70), 2 ** 70),
    "stream": st.integers(0, 2 ** 64 - 1),
    "replicates": st.integers(-5, 10 ** 6),
    "tv_check": st.booleans(),
    "tv_fields": st.integers(0, 10 ** 9),
    "tv_atoms": st.integers(0, 10 ** 4),
    "json": st.booleans(),
}


def _parsed_citations_namespace(argv) -> dict:
    # the subcommand is replaced by a recorder, so only parsing runs
    seen = {}

    def record(args):
        seen.update(vars(args))
        return [], [], None

    with mock.patch.object(cli, "cmd_citations", record):
        assert main(argv) == 0
    return seen


@given(values=st.fixed_dictionaries({}, optional=CITATION_OPTIONS), dashed=st.booleans())
@settings(max_examples=100, deadline=None)
def test_config_round_trips_to_the_flag_namespace(values, dashed):
    # the same option values, once as config lines and once as flags,
    # parse to the same namespace
    citations = cli.build_parser().subcommand_parsers["citations"]
    flag_of = {action.dest: action.option_strings[0] for action in citations._actions}
    flags = []
    lines = []
    for dest, value in values.items():
        key = dest.replace("_", "-") if dashed else dest
        if isinstance(value, bool):
            flags += [flag_of[dest]] if value else []
            lines.append(f"{key} = {str(value).lower()}")
        else:
            flags.append(f"{flag_of[dest]}={value!r}")
            lines.append(f"{key} = {value!r}")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "citations.cfg")
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        from_config = _parsed_citations_namespace(["--config", path, "citations"])
    from_flags = _parsed_citations_namespace(["citations", *flags])
    assert from_config == from_flags


def test_config_value_is_parsed_by_the_option_type(tmp_path, capsys):
    # --m is an integer option: 2.5 is refused, not truncated to 2
    cfg = tmp_path / "ex1.cfg"
    cfg.write_text("kappa = 0.6\nm = 2.5\n")
    with pytest.raises(SystemExit) as stop:
        main(["--config", str(cfg), "check-stability", "--family", "ex1", "--n", "2"])
    assert stop.value.code == 2
    assert "--m" in capsys.readouterr().err


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_abbreviated_config_exits_two(before, tmp_path, capsys):
    # an abbreviation must not pass for --config and leave the file unread
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("alpha = 0.9\n")
    command, config = ["check-stability", "--family", "svh", "--n", "2"], ["--conf", str(cfg)]
    code, out = guarded_run(config + command if before else command + config, capsys)
    assert (code, out) == (2, "")


@pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_full_config_flag_applies_the_file(before, joined, tmp_path, capsys):
    # negative control for the abbreviation: p(2) = 2^(-1/0.9)
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text("alpha = 0.9\n")
    config = [f"--config={cfg}"] if joined else ["--config", str(cfg)]
    command = ["check-stability", "--family", "svh", "--n", "2"]
    code, out, err = run(config + command if before else command + config, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("2,0.46293735614364517,")


# an abbreviated flag and the output the full spelling prints; the
# abbreviation was once read as the full flag, as no config key is
ABBREVIATIONS = {
    "n-for-n-max": (
        ["check-pgf", "--thinning", "bernoulli", "--p", "0.5"], ("--n", "--n-max"), "20",
        "0.5,-4.5244233667057473e-18,9,0.13148309691975196,5.0000000006988898e-07",
    ),
    "lam-for-lambda": (
        ["check-stability", "--family", "svh", "--n", "2"], ("--lam", "--lambda"), "2",
        "2,0.25,1.1102230246251565e-16,0.68649931349999993",
    ),
}


@pytest.mark.parametrize("case", ABBREVIATIONS)
def test_abbreviated_subcommand_flag_exits_two(case, capsys):
    command, (short, _), value, _ = ABBREVIATIONS[case]
    assert guarded_run(command + [short, value], capsys) == (2, "")


@pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
@pytest.mark.parametrize("case", ABBREVIATIONS)
def test_full_subcommand_flag_is_read(case, joined, capsys):
    # negative control for the abbreviation: the full spelling still parses,
    # and its value reaches the output (the default prints another row)
    command, (_, full), value, row = ABBREVIATIONS[case]
    flag = [f"{full}={value}"] if joined else [full, value]
    code, out, err = run(command + flag, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == row
    assert run(command, capsys)[1].splitlines()[1] != row


def test_missing_config_exits_two(capsys):
    code, out, err = run(
        ["--config", "/nonexistent/path.cfg", "check-stability", "--family", "svh"],
        capsys,
    )
    assert code == 2
    assert "cannot read config file" in err


def test_dangling_config_flag_exits_two(capsys):
    code, out, err = run(["check-stability", "--family", "svh", "--config"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

PLAIN_STABILITY = ["check-stability", "--family", "svh", "--n", "2..6"]


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_config_run_leaves_the_shared_parser_unchanged(tmp_path, capsys):
    cli.build_parser.cache_clear()  # the first plain run builds the parser
    first = run(PLAIN_STABILITY, capsys)
    assert first[0] == 0 and first[1].startswith("n,p,residual,argmax_z\n")
    cfg = tmp_path / "json.cfg"
    cfg.write_text("json = true\n")
    code, out, err = run(["--config", str(cfg), *PLAIN_STABILITY], capsys)
    assert (code, err) == (0, "") and json.loads(out.splitlines()[0])["n"] == 2
    assert run(PLAIN_STABILITY, capsys) == first


@pytest.mark.parametrize(
    "argv",
    [
        ["check-stability", "--family", "nope"],
        [*PLAIN_STABILITY, "--json", "--bogus"],
        ["--config", "{cfg}", "check-stability", "--family", "ex1", "--n", "2"],
    ],
    ids=["bad-choice", "unknown-flag", "bad-config-value"],
)
def test_usage_error_leaves_the_next_run_unchanged(argv, tmp_path, capsys):
    cfg = tmp_path / "ex1.cfg"
    cfg.write_text("json = true\nkappa = 0.6\nm = 2.5\n")
    first = run(PLAIN_STABILITY, capsys)
    assert guarded_run([arg.format(cfg=cfg) for arg in argv], capsys) == (2, "")
    assert run(PLAIN_STABILITY, capsys) == first
