"""Command-line contract: exit codes, byte-identical reruns, CSV/JSON
schema, sweep parsing, and config merging."""

import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casualstable import cli
from casualstable.cli import fmt, main, parse_float_list, parse_int_range
from casualstable.errors import ParameterError


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
        ["check-stability", "--family", "gamma", "--b", "1", "--gamma", "2", "--casual", "--n", "2..100"],
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


def test_tightened_tolerance_exits_one(capsys):
    code, out, err = run(
        ["check-stability", "--family", "svh", "--alpha", "0.5", "--n", "2..5", "--tol", "1e-18"],
        capsys,
    )
    assert code == 1
    assert "stability check failed" in err


def test_casual_flag_rejected_for_discrete_family(capsys):
    code, out, err = run(
        ["check-stability", "--family", "svh", "--casual", "--n", "2..5"], capsys
    )
    assert code == 2 and "--casual" in err


def test_solve_pn_conflicts_with_explicit_p(capsys):
    code, out, err = run(
        ["check-stability", "--family", "svh", "--p", "0.3", "--solve-pn", "--n", "2..5"],
        capsys,
    )
    assert code == 2 and "mutually exclusive" in err


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


def test_check_pgf_inadmissible_parameter_exits_two(capsys):
    code, out, err = run(
        ["check-pgf", "--thinning", "ex1", "--kappa", "0.5", "--m", "2", "--p", "0.8"],
        capsys,
    )
    assert code == 2
    assert "kappa" in err


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


def test_citations_tv_check_enforces_its_certificate(capsys):
    # at 400 atoms the summed table bound 0.5 (atoms + 1) tol_neg is far
    # above 0.01, so the distance it would print is meaningless
    argv = ["citations", "--lambda", "1", "--replicates", "1", "--tv-check", "--tv-fields", "1000"]
    code, out, err = run(argv + ["--tv-atoms", "400"], capsys)
    assert code == 1
    assert out == ""
    assert "certified extraction bound" in err
    code, out, err = run(argv + ["--tv-atoms", "200"], capsys)
    assert code == 0
    assert out.splitlines()[-1].startswith("tv_check,")


def test_citations_help_states_the_value_cap(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["citations", "--help"])
    assert stop.value.code == 0
    assert "beyond 2^61 is refused" in capsys.readouterr().out


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
        del seen["func"]
        return 0

    with mock.patch.object(cli, "cmd_citations", record):
        assert main(argv) == 0
    return seen


@given(values=st.fixed_dictionaries({}, optional=CITATION_OPTIONS), dashed=st.booleans())
@settings(max_examples=100, deadline=None)
def test_config_round_trips_to_the_flag_namespace(values, dashed):
    # the same option values, once as config lines and once as flags,
    # parse to the same namespace
    parser = cli.build_parser()
    (citations,) = [sub for sub in parser.subcommand_parsers if sub.prog.endswith(" citations")]
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
