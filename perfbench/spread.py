#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py <workload> <first-seed> <count> [--trace 1]

Run from the repository root. For every metric, prints the median of the
runs, the distance between the first and third quartile as a share of
that median (statistics.quantiles(values, n=4)), and, for end-to-end
metrics, that spread as a share of the metric's bound in BENCHMARK.json.
Each run's result line is appended to .bench_out/spread.jsonl.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    args = sys.argv[1:]
    if len(args) not in (3, 5) or (len(args) == 5 and args[3] != "--trace"):
        sys.exit(__doc__)
    workload, first, count = args[0], int(args[1]), int(args[2])
    trace = args[4] if len(args) == 5 else "0"
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    values = {}
    for seed in range(first, first + count):
        cmd = bench["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", trace,
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed} failed ({out.returncode}):\n{out.stdout}\n{out.stderr}")
        result = json.loads(lines[-1])
        with open(os.path.join(ROOT, ".bench_out", "spread.jsonl"), "a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        of_bound = f"{spread / bounds[name]:.2f} of bound" if name in bounds else ""
        print(f"{name:<32} median {med:<14.6g} spread {spread:.4f} {of_bound}")


if __name__ == "__main__":
    main()
