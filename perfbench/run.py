"""Benchmark entry point.

    python3 perfbench/run.py --workload {certify,citations,limit} --seed N --seconds S --trace {0,1}

Runs repetitions of the workload's batch (see ``workloads``) one after
another in this single-threaded process until ``--seconds`` have passed,
checks every result, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: the median over batches
of the batch's wall time and of its per-operation latency percentiles,
the median set-up time of fresh interpreters, and peak resident memory.
``--trace 1`` alternates untraced and traced batches and reports the
per-layer metrics of the traced ones (per batch) and the tracing
overhead next to the untraced batches' range; the spans of the first
traced batch are written to ``perfbench/out/``.

``correct`` is false when any check found a wrong result.  ``failed``
counts failed operations, including the sampler's documented value-cap
refusals, which are failures but not wrong results.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
MAX_REPORTED_PROBLEMS = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["certify", "citations", "limit"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must lie in [0, 2^64)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def setup_times(workload: str, seed: int) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh interpreters, one at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=bootstrap.ROOT,
        )
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}: {probe.stderr[-500:]}")
        times.append(float(probe.stdout.split()[-1]))
    return times


def run_batches(args, tracer):
    """Repeat the batch until the time is up; with a tracer, trace every other batch."""
    import harness
    import workloads
    from checks import CliResult

    runs = []
    started = time.perf_counter()
    rep = 0
    while True:
        batch = workloads.build(args.workload, args.seed, rep)
        traced = tracer is not None and rep % 2 == 1
        if traced:
            first_span = len(tracer.spans)
            tracer.install()
            try:
                run = harness.execute(batch, tracer)
            finally:
                tracer.uninstall()
            if not any(t for _, _, t in runs):
                tracer.write(BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz", first_span)
        else:
            run = harness.execute(batch)
        harness.evaluate(batch, run)
        if rep == 0:
            harness.check_rerun(batch, run)
        # results are checked: keep their size only, so memory stays flat across batches
        run.stdout_bytes = sum(len(result.out.encode()) for result in run.results if isinstance(result, CliResult))
        run.results = []
        runs.append((batch, run, traced))
        rep += 1
        enough = time.perf_counter() - started >= args.seconds
        if enough and (tracer is None or rep >= 2):
            return runs


def end_to_end(runs, setup: list[float]) -> dict[str, float]:
    import numpy as np

    # medians over batches, so that a slow spell of the machine during one
    # batch moves no metric
    return {
        "wall_s": statistics.median(run.wall_s for _, run, _ in runs),
        "op_p50_ms": statistics.median(float(np.percentile(run.latencies, 50)) for _, run, _ in runs) * 1e3,
        "op_p90_ms": statistics.median(float(np.percentile(run.latencies, 90)) for _, run, _ in runs) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runs, tracer) -> dict[str, float]:
    traced = [run for _, run, t in runs if t]
    plain = [run for _, run, t in runs if not t]
    metrics = tracer.layer_metrics(len(traced))
    metrics["cli.emit_bytes"] = sum(run.stdout_bytes for run in traced) / len(traced)
    metrics["trace.overhead_s"] = (statistics.median(run.wall_s for run in traced)
                                   - statistics.median(run.wall_s for run in plain))
    # an overhead within the untraced batches' own range is not resolved
    metrics["trace.plain_wall_range_s"] = max(run.wall_s for run in plain) - min(run.wall_s for run in plain)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.MissingSource as error:
        print(f"error: {error}; run from the root of a casualstable checkout", file=sys.stderr)
        return 2
    from tracer import MissingTarget, Tracer

    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]}
    try:
        tracer = Tracer() if args.trace else None
    except MissingTarget as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    setup = [] if args.trace else setup_times(args.workload, args.seed)
    runs = run_batches(args, tracer)

    attempted = sum(len(batch.ops) for batch, _, _ in runs)
    failed = sum(len(run.failures) for _, run, _ in runs)
    correct = not any(run.wrong for _, run, _ in runs)
    reported = 0
    for batch, run, _ in runs:
        for index, problems in sorted(run.failures.items()):
            for problem in problems[: MAX_REPORTED_PROBLEMS - reported]:
                print(f"{problem.kind}: {batch.ops[index].label}: {problem.message}", file=sys.stderr)
                reported += 1

    if args.trace:
        values = per_layer(runs, tracer)
    else:
        values = end_to_end(runs, setup)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "streams": runs[0][0].streams,
        "batches": len(runs),
        "traced_batches": sum(1 for _, _, t in runs if t),
        "ops_per_batch": len(runs[0][0].ops),
        "batch_walls_s": [run.wall_s for _, run, _ in runs],
        "ops_failed": failed / attempted,
        "setup_samples_s": setup,
        **bootstrap.environment(),
    }
    print("# run " + json.dumps(info))
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    if args.trace and abs(values["trace.overhead_s"]) <= values["trace.plain_wall_range_s"]:
        print("# trace.overhead_s is within the untraced batches' range: unresolved")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
