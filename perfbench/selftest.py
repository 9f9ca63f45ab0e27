#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark: every named metric prints with its unit.

    python3 perfbench/selftest.py

Runs perfbench/run.py once per workload and trace level with a one-second
measurement (one round; two when traced). run.py itself exits non-zero when
a metric BENCHMARK.json names for that trace level is missing or carries
another unit; this test checks that each run exits 0, reports correct=true
and gives every metric a numeric value. Takes a few minutes: set-up and the
attack model's training are full size.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            label = f"{workload['name']} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload["name"], "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=str(ROOT))
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            bad = [name for name, metric in result["metrics"].items()
                   if not isinstance(metric["value"], (int, float))]
            if result["correct"] is not True or bad:
                problems.append(f"{label}: correct={result['correct']}, "
                                f"non-numeric {bad}")
            else:
                print(f"ok: {label}: {len(result['metrics'])} metrics", flush=True)
    for problem in problems:
        print("FAIL:", problem, file=sys.stderr)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
