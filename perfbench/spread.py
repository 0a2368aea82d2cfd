#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py WORKLOAD [--seeds 1,2,3,4,5] [--trace 0]
                                [--save runs.jsonl]

The spread is the distance between the first and third quartile of the
values (statistics.quantiles(values, n=4)) as a share of their median,
next to the metric's bound from BENCHMARK.json. Run from the repository
root. `--save` appends each run's record and result lines to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--save")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in a.seeds.split(","):
        cmd = ["python3", *bench["command"][1:], "--workload", a.workload,
               "--seed", seed, "--seconds", str(bench["run_seconds"]),
               "--trace", a.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if a.save:
            with open(a.save, "a") as f:
                f.write(lines[-2] + "\n" + lines[-1] + "\n")
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect or failed ops: {result}",
                  file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:24s} median {med:12.5g}  spread {spread:7.4f}"
              f"  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
