"""Golden outputs: seeded CLI runs and sampler streams pinned across changes.

Each CLI case runs ``main`` in-process and compares stdout byte for byte
with ``tests/golden/<name>``; each sampler case hashes its output array
and compares the SHA-256 digest with ``tests/golden/sampler_digests.json``.
A change that is meant to alter the random stream or the printed digits
regenerates both with

    PYTHONPATH=src python tests/test_golden.py

and says so in its change notes.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from casualstable import (
    AuthorCitations,
    Example1,
    FieldCitations,
    FieldSim,
    Seed,
    Sibuya,
    SvhStable,
    author_rvs,
    ex1_rvs,
    field_totals,
    make_rng,
    ranking_instability,
    sibuya_rvs,
    svh_rvs,
)
from casualstable.cli import main

GOLDEN = Path(__file__).parent / "golden"
DIGESTS = GOLDEN / "sampler_digests.json"

# (file name, argv, exit code)
CLI_CASES = [
    ("stability_svh.csv",
     ["check-stability", "--family", "svh", "--lambda", "1.5", "--alpha", "0.7", "--n", "2..6"], 0),
    ("stability_ex1_m1.jsonl",
     ["check-stability", "--family", "ex1", "--lambda", "1", "--gamma", "0.6", "--kappa", "0.3",
      "--n", "2..6", "--json"], 0),
    ("stability_ex1_m2.csv",
     ["check-stability", "--family", "ex1", "--lambda", "1", "--gamma", "0.5", "--kappa", "0.6",
      "--m", "2", "--n", "2..6"], 0),
    ("stability_ex2.csv",
     ["check-stability", "--family", "ex2", "--lambda", "1", "--gamma", "1.3", "--b", "0.2", "--n", "2..6"], 0),
    ("stability_gamma.jsonl",
     ["check-stability", "--family", "gamma", "--b", "0.5", "--gamma", "2", "--n", "2..20", "--json"], 0),
    ("stability_ts.csv",
     ["check-stability", "--family", "ts", "--lambda", "1", "--alpha", "0.5", "--h", "1", "--n", "2..20"], 0),
    ("pgf_bernoulli.csv",
     ["check-pgf", "--thinning", "bernoulli", "--p", "0.3,0.9", "--n-max", "50"], 0),
    ("pgf_ex1.jsonl",
     ["check-pgf", "--thinning", "ex1", "--kappa", "0.6", "--m", "2", "--p", "0.2,0.5", "--n-max", "100",
      "--json"], 0),
    ("pgf_ex2.csv",
     ["check-pgf", "--thinning", "ex2", "--b", "0.3", "--p", "0.25,0.7", "--n-max", "100"], 0),
    ("citations_p05_q05.csv",
     ["citations", "--lambda", "1", "--p", "0.5", "--q", "0.5", "--seed", "7", "--replicates", "3",
      "--tv-check", "--tv-fields", "50000", "--tv-atoms", "100"], 0),
    ("citations_p07_q03.jsonl",
     ["citations", "--lambda", "1", "--p", "0.7", "--q", "0.3", "--seed", "7", "--replicates", "3",
      "--tv-check", "--tv-fields", "50000", "--tv-atoms", "100", "--json"], 0),
    ("citations_fields.csv",
     ["citations", "--lambda", "20000", "--p", "0.5", "--q", "0.5", "--seed", "9", "--replicates", "2"], 0),
    ("converge_matched.csv",
     ["converge", "--b", "1", "--gamma", "2", "--h-kind", "matched", "--n", "2,4,8,16"], 0),
    ("converge_mismatched.csv",
     ["converge", "--b", "1", "--gamma", "2", "--h-kind", "mismatched", "--n", "2,4,8,16"], 1),
    ("converge_target.jsonl",
     ["converge", "--b", "1", "--gamma", "2", "--h-kind", "target", "--n", "2,4,8", "--json"], 0),
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _ranking():
    report = ranking_instability(FieldSim(FieldCitations(500.0, 0.5, 0.5), Seed(11, 5)), 10)
    return report.correlations, report.mean_median_ratios


SAMPLER_CASES = {
    "sibuya_rvs": lambda: (sibuya_rvs(Sibuya(0.5), make_rng(Seed(11, 0)), 10 ** 5),),
    "author_rvs": lambda: (author_rvs(AuthorCitations(0.7, 0.3), make_rng(Seed(11, 1)), 10 ** 5),),
    "svh_rvs": lambda: (svh_rvs(SvhStable(2.0, 0.6), make_rng(Seed(11, 2)), 10 ** 5),),
    "ex1_rvs": lambda: (ex1_rvs(Example1(1.5, 0.6, 0.4, 2), make_rng(Seed(11, 3)), 10 ** 5),),
    "field_totals": lambda: (field_totals(FieldSim(FieldCitations(3.0, 0.5, 0.3), Seed(11, 4)), 10 ** 5),),
    "ranking_instability": _ranking,
}


@pytest.mark.parametrize("name, argv, code", CLI_CASES, ids=[case[0] for case in CLI_CASES])
def test_cli_output_matches_golden_file(name, argv, code):
    got_code, out = run_cli(argv)
    assert got_code == code
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(SAMPLER_CASES))
def test_sampler_stream_matches_golden_digest(name):
    expected = json.loads(DIGESTS.read_text())[name]
    assert _digest(*SAMPLER_CASES[name]()) == expected


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv, code in CLI_CASES:
        got_code, out = run_cli(argv)
        if got_code != code:
            raise SystemExit(f"{name}: exit {got_code}, expected {code}")
        (GOLDEN / name).write_text(out)
    digests = {name: _digest(*case()) for name, case in sorted(SAMPLER_CASES.items())}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")


if __name__ == "__main__":
    regenerate()
