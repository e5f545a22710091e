"""afpm benchmark: the README pipeline, timed per CLI stage, in one process.

    python3 perfbench/run.py --workload mi_walkthrough --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Set-up synthesizes the raw corpora from ``--seed`` (three times; the median
is ``setup_s``). The measured part then repeats whole rounds of the stage
chain -- one in-process ``afpm.cli.main`` call per CLI stage, followed by
the output checks -- until ``--seconds`` have passed, and at least three
times. Each end-to-end metric is the median over rounds, scaled to a fixed
reference speed (see bench.py).

With ``--trace 1`` the rounds alternate untraced and traced; traced rounds
time the public functions of every afpm module through shims (tracing.py)
and yield the per-layer metrics. The last line of standard output is one
JSON object: correct, attempted, failed and metrics. A run record with the
machine, versions, seed and operation counts goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import THREAD_VARS, WORKLOADS  # noqa: E402  (imports no numpy)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy sizes are for the smoke check only")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # The BLAS pools size themselves when numpy is first imported;
    # cli.main's own pinning comes too late when it runs in-process.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(ROOT, "src", "afpm", "cli.py")):
        print(f"perfbench: no afpm sources at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bench  # numpy, scipy and every afpm module load here

    import_s = time.perf_counter() - T_START
    return bench.run(args, import_s, ROOT)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    import json
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            combined["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
