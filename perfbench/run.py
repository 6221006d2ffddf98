#!/usr/bin/env python3
"""mcastsim benchmark: one workload per run, in one single-threaded process.

Run from the repository root:

    python3 perfbench/run.py --workload recipes --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced executions of the same
workload and reports the per-layer metrics (see tracer.py).  Either way the
workload is repeated with the same seed until ``--seconds`` have passed
(at least three times) and every repetition must produce the same output
digest.

``wall_s``, and the row times behind ``time_to_1pct_s``, are in seconds at
a reference host speed: every timed call into mcastsim (an estimate row,
a recipe row, an analytic check) is calibrated by the speed probes taken
around it (speed.py), and each call counts at its median calibrated
duration over the repetitions.  ``setup_s`` is the median over fresh
interpreters, each calibrated by a startup probe (see SETUP_CODE).  Raw
durations of the timed calls are in detail.json.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``attempted`` counts the gated operations of one execution (estimate rows
and analytic checks), ``failed`` the ones that failed the gate other than
the known defects listed in metric_map.json.  Provenance, digests, the
per-row table and, when traced, the per-function table go to
perfbench/out/<workload>-seed<seed>-trace<t>/detail.json.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, "perfbench", "out")

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# Set-up is measured in a fresh interpreter before every repetition (after
# one discarded warm-up), so the measurements spread over the whole run like
# the repetitions do; the median is reported.  Like the timed calls, each is
# calibrated against host speed (speed.py), but by a probe of its own kind:
# a fresh interpreter importing a fixed set of standard-library modules,
# run just before and just after.  Over 39 groups of six set-ups on the
# 2-core host this cut the spread of the group medians from 0.15 to 0.05.
SETUP_CODE = "import numpy, scipy, mpmath, mcastsim.cli"
STARTUP_PROBE_CODE = ("import argparse, dataclasses, decimal, email.message, fractions, json, "
                      "logging, statistics, unittest, xml.dom.minidom")
# The startup probe's duration on an undisturbed 2-core host (its lower decile).
REFERENCE_STARTUP_S = 0.09
MIN_REPS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "time_to_1pct_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "1",
}


def layer_unit(name: str) -> str:
    for suffix, unit in (
        (".calls", "count"), ("_p50", "count"), ("_p99", "count"), ("us_per_call", "us"),
        ("ms_per_call", "ms"), ("ns_per_slot", "ns"), ("self_s", "s"), ("_share", "1"),
        ("_frac", "1"),
    ):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("recipes", "large-n"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at toy iteration counts (smoke check)")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 63:
        parser.error("--seed must be a nonnegative 63-bit integer")
    return args


def import_mcastsim():
    """Import mcastsim from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    try:
        import mcastsim
    except ImportError as exc:
        raise SystemExit(f"error: cannot import mcastsim from {SRC}: {exc}")
    if not os.path.abspath(mcastsim.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: mcastsim resolved to {mcastsim.__file__}, not {SRC}")


def setup_s() -> float:
    """Seconds from starting a fresh interpreter until mcastsim, numpy,
    scipy and mpmath are imported, calibrated by the startup probe."""
    before = _interpreter_s(STARTUP_PROBE_CODE)
    raw = _interpreter_s(SETUP_CODE)
    after = _interpreter_s(STARTUP_PROBE_CODE)
    return raw * REFERENCE_STARTUP_S * 2.0 / (before + after)


def _interpreter_s(code: str) -> float:
    """Seconds a fresh interpreter takes to run ``code`` and exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    # no timeout: with one, Popen.wait polls at up to 50 ms intervals
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def repeat(seconds: float, step) -> list:
    results = []
    deadline = time.perf_counter() + seconds
    while len(results) < MIN_REPS or time.perf_counter() < deadline:
        gc.collect()  # start every repetition from the same heap state
        results.append(step())
    return results


def provenance(args, size: dict) -> dict:
    import mpmath
    import numpy
    import scipy

    source = hashlib.sha256()
    pkg = os.path.join(SRC, "mcastsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                source.update(name.encode() + b"\0" + handle.read())
    return {
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "iterations": {k: v for k, v in size.items() if k.endswith("_iterations")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import_mcastsim()
    import tracer
    import workloads

    size = workloads.SIZES[args.size]
    execute = workloads.workload(args.workload, args.size)
    out_dir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    detail = {"provenance": provenance(args, size)}

    setup_times = []
    try:
        # warm caches and lazy imports on a toy-sized copy of the workload
        workloads.workload(args.workload, "tiny")(args.seed, out_dir)
        if args.trace:
            plain, traced, layer_metrics, per_function = [], [], [], []

            def step():
                plain.append(execute(args.seed, out_dir))
                with tracer.Tracer() as t:
                    traced.append(execute(args.seed, out_dir))
                layer_metrics.append(t.metrics(traced[-1].wall_s))
                per_function.append(t.per_function())

            repeat(args.seconds, step)
            executions = plain + traced
        else:
            setup_s()

            def step():
                setup_times.append(setup_s())
                return execute(args.seed, out_dir)

            executions = plain = repeat(args.seconds, step)
    except Exception:  # noqa: BLE001 - report any crash of the program as a failed run
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    for ex in executions:
        for row in ex.rows:
            workloads.gate(args.workload, row)
    rows = executions[0].rows
    for i, row in enumerate(rows):
        row["row_s"] = _median_or_none([ex.rows[i].get("row_s") for ex in plain])
        row["raw_s"] = _median_or_none([ex.rows[i].get("raw_s") for ex in plain])
    failed_rows = [r for r in rows if not r["passed"]]
    unexpected = [r for r in failed_rows if r["known_defect"] is None]
    digests = sorted({ex.digest for ex in executions})
    deterministic = len(digests) == 1
    attempted = len(rows)

    walls = [ex.wall_s for ex in plain]
    if args.trace:
        untraced_wall = statistics.median(walls)
        traced_wall = statistics.median(ex.wall_s for ex in traced)
        values = _medians(layer_metrics)
        values["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
        detail["per_function"] = _medians(per_function)
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(values.items())}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": calibrated_wall_s(plain),
            "time_to_1pct_s": workloads.time_to_target_s(rows),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "pass_frac": (attempted - len(failed_rows)) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    detail.update(
        repetitions=len(executions),
        wall_s=walls,
        wall_median_s=statistics.median(walls),
        part_s={k: statistics.median(ex.part_s[k] for ex in plain) for k in plain[0].part_s},
        traced_wall_s=[ex.wall_s for ex in traced] if args.trace else None,
        setup_s=setup_times or None,
        digests=digests,
        deterministic=deterministic,
        known_defects_reproduced=[r["op"] for r in failed_rows if r["known_defect"]],
        unexpected_failures=[{"op": r["op"], "reason": r["reason"]} for r in unexpected],
        rows=rows,
        metrics=metrics,
    )
    detail_path = os.path.join(out_dir, "detail.json")
    with open(detail_path, "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)

    _print_rows(rows)
    print(f"digest {digests[0] if deterministic else 'MISMATCH ' + ' '.join(digests)}")
    print(f"detail written to {os.path.relpath(detail_path, ROOT)}")
    print(json.dumps({
        "correct": deterministic and not unexpected,
        "attempted": attempted,
        "failed": len(unexpected),
        "metrics": metrics,
    }))
    return 0


def calibrated_wall_s(executions) -> float:
    """Sum over the timed segments of each one's median calibrated duration
    across the executions."""
    return sum(statistics.median(durations)
               for durations in zip(*(ex.segments for ex in executions)))


def _medians(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def _median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _print_rows(rows: list[dict]) -> None:
    def fmt(value, spec):
        return format(value, spec) if value is not None else format("-", ">" + spec.split(".")[0])

    print(f"{'op':<44} {'row_s':>9} {'relSE_thr':>9} {'relSE_del':>9} "
          f"{'z_thr':>7} {'z_floor':>9}  status")
    for r in rows:
        status = "ok" if r["passed"] else ("KNOWN " if r["known_defect"] else "FAIL ") + r["reason"]
        print(f"{r['op']:<44} {fmt(r.get('row_s'), '9.4f')} "
              f"{fmt(r['rel_se_throughput'], '9.2e')} {fmt(r['rel_se_delay'], '9.2e')} "
              f"{fmt(r['z_throughput'], '7.2f')} {fmt(r['z_floor'], '9.2f')}  {status}")


if __name__ == "__main__":
    sys.exit(main())
