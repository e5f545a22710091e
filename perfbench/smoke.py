"""Smoke check of the whole benchmark at toy sizes, traced run included.

    python3 perfbench/smoke.py

Runs every workload with one-block models on a few trials, untraced and
traced, and fails unless each run passes all of its output checks and
reports every metric BENCHMARK.json names. It also runs the benchmark from
a directory without the afpm sources, where it must fail without printing a
result. Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=600)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for w in spec["workloads"]:
            proc = run(["perfbench/run.py", "--workload", w["name"], "--seed", "0",
                        "--seconds", "1", "--trace", str(trace), "--scale", "toy"], ROOT)
            tag = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{tag}: correct {res['correct']}, "
                                f"{res['failed']} of {res['attempted']} failed\n{proc.stderr}")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            if trace == 0:
                zero = [k for k, m in res["metrics"].items() if not m["value"] > 0]
                if zero:
                    problems.append(f"{tag}: end-to-end metrics not positive: {zero}")
            print(f"ok {tag}: {res['attempted']} operations", flush=True)

    # Without src/ next to it the benchmark must refuse to run.
    bare = os.path.join(HERE, "work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    proc = run([*spec["command"][1:], "--workload", spec["workloads"][0]["name"],
                "--seed", "0", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok bare directory: exit {proc.returncode}")

    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
