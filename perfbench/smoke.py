#!/usr/bin/env python3
"""Smoke check of the benchmark itself at tiny sizes (about a minute).

Run from the repository root:

    python3 perfbench/smoke.py

For every workload it checks that
- the result line has exactly the contract's keys, and every end-to-end
  (--trace 0) and per-layer (--trace 1) metric in BENCHMARK.json is emitted
  with its unit and nothing else;
- a different seed changes the output digest;
- two traced runs with one seed report identical counts;
that detail.json holds the per-function times metric_map.json lists for the
workload, and that metric_map.json names every per-layer metric exactly once.
Exits non-zero on the first failed check.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "0",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"FAIL {workload} seed={seed} trace={trace}: exit {proc.returncode}\n"
                         f"{proc.stderr[-3000:]}")
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")
    print(f"ok   {message}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(os.path.join(ROOT, "perfbench", "metric_map.json"), encoding="utf-8") as handle:
        metric_map = json.load(handle)
    mapped = [m for entry in metric_map["layer_map"] for m in entry["metrics"]]
    listed = metric_map["per_function"]
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    check(sorted(mapped) == sorted(expected[1]),
          "metric_map.json names every per-layer metric exactly once")

    for workload in (w["name"] for w in bench["workloads"]):
        results = {}
        for seed, trace in ((1, 0), (2, 0), (1, 1), (1, 1)):
            result, digest = run(workload, seed, trace)
            check(set(result) == {"correct", "attempted", "failed", "metrics"} and result["correct"],
                  f"{workload} seed={seed} trace={trace}: result line well-formed and correct")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace],
                  f"{workload} trace={trace}: every metric emitted with its unit")
            results.setdefault((seed, trace), []).append((result, digest))
        check(results[(1, 0)][0][1] != results[(2, 0)][0][1],
              f"{workload}: a different seed changes the digest")
        check(results[(1, 0)][0][1] == results[(1, 1)][0][1],
              f"{workload}: traced run has the untraced digest")
        (first, _), (second, _) = results[(1, 1)]
        counts = [
            {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
            for r in (first, second)
        ]
        check(counts[0] == counts[1], f"{workload}: counts repeat across two traced runs")
        detail = os.path.join(ROOT, "perfbench", "out", f"{workload}-seed1-trace1", "detail.json")
        with open(detail, encoding="utf-8") as handle:
            per_function = json.load(handle)["per_function"]
        missing = [e["key"] for e in listed if workload in e["on"] and e["key"] not in per_function]
        check(not missing, f"{workload}: detail.json has the listed per-function times"
                           + (f", missing {missing}" if missing else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
