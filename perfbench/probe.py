"""Set-up probe: time ``import casualstable`` plus building a workload's inputs.

Run as ``python3 perfbench/probe.py <workload> <seed>`` in a fresh
interpreter; prints the elapsed seconds, measured from the first line
of this script, as its only output.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402

import bootstrap  # noqa: E402


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    bootstrap.prepare()
    import workloads

    workloads.build(workload, seed, 0)
    print(repr(time.perf_counter() - STARTED))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
