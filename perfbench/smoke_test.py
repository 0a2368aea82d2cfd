#!/usr/bin/env python3
"""Smoke test of the benchmark, and its one-command report.

    python3 perfbench/smoke_test.py [--size tiny|full] [--seconds S]

Runs every workload of BENCHMARK.json untraced and traced (by default
at `--size tiny` for 2 seconds), prints every metric with its unit, and
asserts that each run prints a run record and a result line whose
metrics are exactly the ones BENCHMARK.json names (end-to-end untraced,
per-layer traced), each with its unit and a finite value, and that no
operation failed. Run from the repository root; exits non-zero on the
first failure.
"""

import argparse
import json
import math
import subprocess
import sys


def check(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", default="tiny", choices=["tiny", "full"])
    ap.add_argument("--seconds", default="2")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            name = f"{w['name']} --trace {trace}"
            cmd = ["python3", *bench["command"][1:], "--workload", w["name"],
                   "--seed", "7", "--seconds", a.seconds, "--trace", trace,
                   "--size", a.size]
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=900)
            check(out.returncode == 0,
                  f"{name}: exit {out.returncode}\n{out.stderr}")
            lines = out.stdout.strip().splitlines()
            check(len(lines) >= 2, f"{name}: expected record and result")
            record = json.loads(lines[-2])["record"]
            for field in ("seed", "host", "engine_config", "timed_engine"):
                check(field in record, f"{name}: record lacks {field}")
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{name}: not correct: "
                  f"{record.get('check_failures')}")
            check(result["failed"] == 0, f"{name}: {result['failed']} failed")
            check(result["attempted"] >= 1, f"{name}: nothing attempted")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = result["metrics"]
            check(set(got) == set(want),
                  f"{name}: missing {sorted(set(want) - set(got))}, "
                  f"unexpected {sorted(set(got) - set(want))}")
            for metric, unit in want.items():
                v = got[metric]
                check(v["unit"] == unit,
                      f"{name}: {metric} unit {v['unit']} != {unit}")
                check(isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"]),
                      f"{name}: {metric} value {v['value']!r}")
            print(f"ok {name}: {result['attempted']} ops, 0 failed")
            for metric, v in got.items():
                print(f"  {metric:34s} {v['value']:.6g} {v['unit']}")
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
