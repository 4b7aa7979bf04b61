"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/collect.py [--seeds 1-10] [--traced-seeds 1] [--write FILE] [--label TEXT]

Each run is a separate ``perfbench/run.py`` process, one at a time, over
every workload of ``BENCHMARK.json`` at its ``run_seconds``.  For every
workload and end-to-end metric the table shows the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread, the
interquartile distance as a share of the median, next to the metric's
bound from ``BENCHMARK.json``; ``ops_failed`` is failed over attempted
operations.  Traced runs add the per-layer metrics and the tracing
overhead.  ``--write`` stores the summary as one point of the bench
trajectory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",") if part]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result, run info) of one benchmark process."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}: {done.stderr[-1000:]}")
    lines = done.stdout.strip().splitlines()
    info = next(json.loads(line[len("# run "):]) for line in lines if line.startswith("# run "))
    return json.loads(lines[-1]), info


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    parser.add_argument("--traced-seeds", default="", help="seeds for traced runs (none by default)")
    parser.add_argument("--write", type=Path, default=None, help="write the summary as JSON here")
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)

    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    summary = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for workload in (entry["name"] for entry in spec["workloads"]):
        results, infos = [], []
        for seed in parse_seeds(args.seeds):
            result, info = run_once(workload, seed, seconds, 0)
            results.append(result)
            infos.append(info)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()), flush=True)
        attempted = sum(result["attempted"] for result in results)
        failed = sum(result["failed"] for result in results)
        entry = {
            "seeds": parse_seeds(args.seeds),
            "correct": all(result["correct"] for result in results),
            "attempted": attempted,
            "failed": failed,
            "ops_failed": failed / attempted,
            "ops_per_batch": infos[0]["ops_per_batch"],
            "batches": [info["batches"] for info in infos],
            "end_to_end": {name: summarize([result["metrics"][name]["value"] for result in results])
                           for name in results[0]["metrics"]},
        }
        summary["environment"] = {key: infos[0][key] for key in
                                  ("nproc", "cpu_model", "python", "numpy", "scipy", "threads")}
        if args.traced_seeds:
            traced = [run_once(workload, seed, seconds, 1)[0] for seed in parse_seeds(args.traced_seeds)]
            entry["per_layer"] = {name: summarize([result["metrics"][name]["value"] for result in traced])["median"]
                                  for name in traced[0]["metrics"]}
        summary["workloads"][workload] = entry

        print(f"\n{workload}: {attempted} operations, ops_failed = {entry['ops_failed']:.4g}, "
              f"correct = {entry['correct']}")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}")
        for name, stats in entry["end_to_end"].items():
            print(f"  {name:<14}{stats['median']:>12.5g}{stats['q1']:>12.5g}{stats['q3']:>12.5g}"
                  f"{stats['spread']:>9.4f}{bounds.get(name, float('nan')):>8.3g}")
        for name, value in entry.get("per_layer", {}).items():
            print(f"  {name:<34}{value:>14.6g}")
        print(flush=True)

    if args.write:
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
