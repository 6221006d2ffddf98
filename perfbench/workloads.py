"""The benchmark's workloads and the correctness gate applied to their rows.

Each workload is a function ``execute(seed, out_dir) -> Execution`` that
drives mcastsim's public API in-process.  Only the calls into mcastsim are
timed; the gate runs afterwards on the recorded values.

Why these workloads:

- ``recipes``: the single-group recipe fig-compt (static alpha in {1, 2, N},
  IR, coop, N = 2..12, 29 rows) and then the G = 5 multigroup recipe fig-t5
  (19 rows), both through ``cli.main``.  The per-hit delay loop and the IR
  cycle do nearly all of the work; on the fig-t5 part every hit goes through
  ``multigroup_static_schedule`` and coop draws G*N^2 inter-user gains.
  The two recipes form one workload, rather than two, so that each run can
  measure longer on a machine whose speed drifts; their separate times are
  in detail.json.
- ``large-n``: throughput estimates, analytic evaluators and the oracle
  checks at large populations, plus two static delay probes (N = 64 and
  N = 72).  The rate kernel and the analytic evaluators dominate; the
  delay loop is small.  The N = 72 probe reproduces known defect D2
  (geometric gaps saturate at int64) and fails the coupon-collector floor.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

import speed
from mcastsim import analytic, cli, simcore
from mcastsim.simcore import SimConfig

Z_LIMIT = 4.5
CLOSED_FORM_RTOL = 1e-6
TARGET_REL_SE = 0.01

METRIC_MAP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "metric_map.json")

SIZES = {
    "full": {
        "compt_iterations": 500,
        "t5_iterations": 300,
        "throughput_iterations": 32000,
        "probe_iterations": 1500,
        "static_sets": ((32, (1, 2, 32)), (200, (1, 2, 200)), (1000, (1, 2))),
        "coop_users": (32, 64),
        "multigroup_users": 32,
        "closed_form_users": 200,
    },
    "tiny": {
        "compt_iterations": 100,
        "t5_iterations": 100,
        "throughput_iterations": 200,
        "probe_iterations": 50,
        "static_sets": ((32, (1, 2, 32)), (200, (1, 2)), (1000, (1,))),
        "coop_users": (8,),
        "multigroup_users": 8,
        "closed_form_users": 200,
    },
}

PROBE_USERS = (64, 72)


@dataclass
class Execution:
    """One execution of a workload.  ``wall_s`` is its raw duration without
    the speed probes; ``segments`` are the calibrated durations (see
    speed.py) of its timed calls into mcastsim, in the same order on every
    execution, and last the calibrated time spent between those calls."""

    wall_s: float
    rows: list[dict]
    digest: str
    segments: list[float]
    part_s: dict[str, float] = field(default_factory=dict)


def _op(kind: str, config: SimConfig) -> str:
    alpha = f" a={config.alpha}" if config.alpha is not None else ""
    return f"{kind} {config.scheme}{alpha} N={config.n_users} G={config.n_groups}"


def _row(op: str, config: SimConfig | None = None, **fields) -> dict:
    row = {"op": op, "scheme": None, "N": None, "G": None, "alpha": None, "iterations": None}
    if config is not None:
        row.update(scheme=config.scheme, N=config.n_users, G=config.n_groups,
                   alpha=config.alpha, iterations=config.iterations)
    row.update(fields)
    return row


def _record_fields(record: simcore.MetricsRecord) -> dict:
    return {
        "throughput": record.throughput_mean,
        "throughput_se": record.throughput_se,
        "delay": record.delay_mean,
        "delay_se": record.delay_se,
        "analytic_throughput": record.analytic_throughput,
    }


def _hex(value) -> str:
    return float(value).hex() if isinstance(value, float) else repr(value)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def recipe_workload(recipes: tuple[tuple[str, int], ...]):
    """cli.main on each named recipe at its iteration count, in order; rows
    are the simcore.run_config calls, the digest covers every CSV's bytes."""

    def execute(seed: int, out_dir: str) -> Execution:
        captured = []
        original = simcore.run_config
        clock = speed.Clock()

        def timed_run_config(config):
            start = time.perf_counter()
            record = original(config)
            secs = time.perf_counter() - start
            captured.append((config, record, secs, clock.calibrated(secs)))
            return record

        digest = hashlib.sha256()
        part_s = {}
        for recipe, iterations in recipes:
            path = os.path.join(out_dir, f"{recipe}.csv")
            argv = ["run", "--recipe", recipe, "--iterations", str(iterations),
                    "--seed", str(seed), "--out", path]
            simcore.run_config = timed_run_config
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    overhead = clock.overhead_s
                    start = time.perf_counter()
                    code = cli.main(argv)
                    part_s[recipe] = (time.perf_counter() - start
                                      - (clock.overhead_s - overhead))
            finally:
                simcore.run_config = original
            if code != 0:
                raise RuntimeError(f"mcastsim {' '.join(argv)} exited with {code}")
            with open(path, "rb") as handle:
                digest.update(handle.read())
        rows = [
            _row(_op("run_config", c), c, row_s=calibrated, raw_s=secs, **_record_fields(rec))
            for c, rec, secs, calibrated in captured
        ]
        wall = sum(part_s.values())
        between = clock.calibrated_typical(wall - sum(secs for *_, secs, _ in captured))
        segments = [calibrated for *_, calibrated in captured] + [between]
        return Execution(wall, rows, digest.hexdigest(), segments, part_s)

    return execute


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def large_n_workload(size: dict):
    """Throughput, analytics and oracle checks at large N, called directly."""

    def configs(seed: int) -> list[tuple[str, SimConfig]]:
        its = size["throughput_iterations"]
        out = []
        for n, alphas in size["static_sets"]:
            out += [("throughput", SimConfig(scheme="static", n_users=n, alpha=a, iterations=its))
                    for a in alphas]
        out += [("throughput", SimConfig(scheme="coop", n_users=n, iterations=its))
                for n in size["coop_users"]]
        out.append(("throughput", SimConfig(
            scheme="multigroup-static", n_users=size["multigroup_users"], alpha=2,
            n_groups=5, iterations=its)))
        out += [("delay", SimConfig(scheme="static", n_users=n, alpha=2,
                                    iterations=size["probe_iterations"]))
                for n in PROBE_USERS]
        return [(kind, replace(config, seed=_child_seed(seed, i)))
                for i, (kind, config) in enumerate(out)]

    def execute(seed: int, out_dir: str) -> Execution:
        estimators = {"throughput": simcore.estimate_throughput, "delay": simcore.estimate_delay}
        outcomes = []
        n_cf = size["closed_form_users"]
        clock = speed.Clock()
        start = time.perf_counter()
        for kind, config in configs(seed):
            outcomes.append((kind, config) + _call(clock, estimators[kind], config))
        cf = _call(clock, analytic.static_throughput_closed_form, n_cf, 2, 1.0)
        checks = _call(clock, cli.run_verification)
        wall = time.perf_counter() - start - clock.overhead_s

        rows = []
        for kind, config, value, error, secs, calibrated in outcomes:
            fields = _record_fields(value) if error is None else {}
            rows.append(_row(_op(kind, config), config, row_s=calibrated, raw_s=secs,
                             error=error, **fields))
        cf_value, cf_error, _, cf_secs = cf
        # the static alpha=2 throughput row at the same N carries the quadrature value
        reference = next((row.get("analytic_throughput") for row in rows
                          if row["scheme"] == "static" and row["alpha"] == 2 and row["N"] == n_cf),
                         None)
        rows.append(_row(f"closed_form a=2 N={n_cf}", None, scheme="static", N=n_cf, alpha=2, G=1,
                         check_s=cf_secs, error=cf_error, closed_form=cf_value,
                         quadrature=reference))
        check_value, check_error, _, check_secs = checks
        if check_error is not None:
            rows.append(_row("verify", None, check_s=check_secs, error=check_error))
        else:
            rows += [_row(f"verify {r.name}", None, check_s=check_secs, check_passed=r.passed,
                          detail=r.detail) for r in check_value]

        digest = hashlib.sha256()
        for row in rows:
            for key in ("op", "error", "throughput", "throughput_se", "delay", "delay_se",
                        "analytic_throughput", "closed_form", "check_passed", "detail"):
                digest.update(f"{key}={_hex(row.get(key))};".encode())
        timed = [o[-2:] for o in outcomes] + [cf[-2:], checks[-2:]]
        between = clock.calibrated_typical(wall - sum(secs for secs, _ in timed))
        segments = [calibrated for _, calibrated in timed] + [between]
        return Execution(wall, rows, digest.hexdigest(), segments)

    return execute


def _call(clock: speed.Clock, fn, *args):
    """(value, error, raw seconds, calibrated seconds) of one call; an
    exception is an outcome."""
    start = time.perf_counter()
    try:
        value, error = fn(*args), None
    except Exception as exc:  # noqa: BLE001 - a raising row is a failed row
        value, error = None, f"{type(exc).__name__}: {exc}"
    secs = time.perf_counter() - start
    return value, error, secs, clock.calibrated(secs)


def workload(name: str, size_name: str = "full"):
    size = SIZES[size_name]
    if name == "recipes":
        return recipe_workload((("fig-compt", size["compt_iterations"]),
                                ("fig-t5", size["t5_iterations"])))
    if name == "large-n":
        return large_n_workload(size)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def coupon_floor(n_users: int, n_groups: int, alpha: int) -> float:
    """Expected slots until each of the alpha coupled queues has been hit
    once: G * C(N, N/alpha) * H_alpha, a lower bound on the mean delay.
    Computed here rather than with mcastsim.analytic, so the gate does not
    rely on the code it checks."""
    return n_groups * math.comb(n_users, n_users // alpha) * math.fsum(
        1.0 / k for k in range(1, alpha + 1)
    )


def gate(workload_name: str, row: dict) -> dict:
    """Annotate a row with relative SEs, z-scores, pass/fail and reason."""
    reasons = []
    if row.get("error"):
        reasons.append(f"raised {row['error']}")
    for mean_key, se_key in (("throughput", "throughput_se"), ("delay", "delay_se")):
        mean, se = row.get(mean_key), row.get(se_key)
        row[f"rel_se_{mean_key}"] = None
        if mean is None:
            continue
        if not (math.isfinite(mean) and math.isfinite(se)):
            reasons.append(f"non-finite {mean_key} {mean!r} +- {se!r}")
            continue
        row[f"rel_se_{mean_key}"] = se / abs(mean) if mean else math.inf
    delay, delay_se = row.get("delay"), row.get("delay_se")
    if delay is not None and delay < 1:
        reasons.append(f"delay {delay!r} below 1 slot")

    row["z_throughput"] = row["z_floor"] = None
    static = row["scheme"] in ("static", "multigroup-static")
    reference = row.get("analytic_throughput")
    thr, thr_se = row.get("throughput"), row.get("throughput_se")
    if static and thr is not None and reference is not None and thr_se:
        z = (thr - reference) / thr_se
        row["z_throughput"] = z
        if not abs(z) <= Z_LIMIT:
            reasons.append(f"throughput {z:+.2f} SE from analytic")
    if static and delay is not None and delay_se:
        floor = coupon_floor(row["N"], row["G"], row["alpha"])
        z = (delay - floor) / delay_se
        row["z_floor"] = z
        if not z >= -Z_LIMIT:
            reasons.append(f"delay {delay:.4g} is {-z:.1f} SE below the coupon floor {floor:.4g}")
    if row.get("closed_form") is not None:
        if row["quadrature"] is None:
            reasons.append("no quadrature value to compare the closed form with")
        else:
            rel = abs(row["closed_form"] - row["quadrature"]) / abs(row["quadrature"])
            row["closed_form_rel_dev"] = rel
            if not rel <= CLOSED_FORM_RTOL:
                reasons.append(f"closed form off quadrature by {rel:.2e}")
    if row.get("check_passed") is False:
        reasons.append(f"verification failed: {row['detail']}")

    row["passed"] = not reasons
    row["reason"] = "; ".join(reasons) or None
    row["known_defect"] = known_defects().get((workload_name, row["op"])) if reasons else None
    return row


@functools.cache
def known_defects() -> dict[tuple[str, str], str]:
    """Operations known to fail the gate, keyed by (workload, op).  They
    count against pass_frac but not as unexpected failures."""
    with open(METRIC_MAP, encoding="utf-8") as handle:
        entries = json.load(handle)["known_defects"]
    return {(d["workload"], d["op"]): f"{d['id']}: {d['effect']}" for d in entries}


def time_to_target_s(rows: list[dict]) -> float:
    """Projected seconds for every estimate row to reach TARGET_REL_SE:
    sum of row_s * (max relative SE / target)^2, where row_s is the row's
    median calibrated duration over the repetitions."""
    total = 0.0
    for row in rows:
        rel = [row.get(k) for k in ("rel_se_throughput", "rel_se_delay")]
        rel = [r for r in rel if r is not None]
        if row.get("row_s") is not None and rel:
            total += row["row_s"] * (max(rel) / TARGET_REL_SE) ** 2
    return total
