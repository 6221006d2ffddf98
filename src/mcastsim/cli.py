"""Command-line front end: experiment runs, named figure recipes,
self-verification against independent oracles, and plot-data emission.

CSV rows use the fixed column set
scheme,N,G,alpha,L,P,S,iterations,seed,throughput_nats,throughput_se,
delay_slots,delay_se,analytic_throughput,predicted_scaling
with empty fields where a value does not apply.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from mcastsim import analytic, simcore
from mcastsim.channel import CoherencePolicy
from mcastsim.simcore import SimConfig

__all__ = [
    "CSV_COLUMNS",
    "CheckResult",
    "RECIPES",
    "cmd_plotdata",
    "cmd_run",
    "cmd_verify",
    "main",
    "run_verification",
]

CSV_COLUMNS = [
    "scheme", "N", "G", "alpha", "L", "P", "S", "iterations", "seed",
    "throughput_nats", "throughput_se", "delay_slots", "delay_se",
    "analytic_throughput", "predicted_scaling",
]

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_PARSE = 2


# ---------------------------------------------------------------------------
# settings: run flags, which are also the experiment-file keys
# ---------------------------------------------------------------------------

def _parse_coherence(text: str) -> CoherencePolicy:
    mode, sep, raw = text.partition(":")
    if not sep:
        raise ValueError("expected MODE:VALUE, e.g. fixed:1.0 or scaled:2.0")
    return CoherencePolicy(mode, float(raw))


# sweep axis name, which is also its CSV column -> run setting
SWEEP_AXES = {
    "N": "n_users",
    "G": "groups",
    "alpha": "alpha",
    "L": "antennas",
    "P": "power",
    "S": "packet_nats",
}


def _parse_sweep(text: str) -> list[dict]:
    axis, sep, raw = text.partition("=")
    axis = axis.strip()
    values = [v.strip() for v in raw.split(",") if v.strip()]
    if not sep or not values:
        raise ValueError("expected AXIS=v1,v2,..., e.g. N=2,4,8")
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {sorted(SWEEP_AXES)}, got {axis!r}")
    key = SWEEP_AXES[axis]
    return [{key: _SETTINGS[key][0](value)} for value in values]


# Every run setting: its experiment-file key, which is also the flag
# --key-with-dashes, mapped to the parser of its text and its help.
_SETTINGS = {
    "scheme": (str, f"one of {', '.join(simcore.SCHEMES)}"),
    "n_users": (int, "users per group N (required)"),
    "alpha": (int, "fixed-fraction divisor: N/alpha users decode (static schemes)"),
    "groups": (int, "group count G (multigroup schemes)"),
    "antennas": (int, "base-station antennas L (static schemes)"),
    "power": (float, "transmit SNR P"),
    "packet_nats": (float, "packet size S in nats"),
    "coherence": (_parse_coherence, "fixed:TC or scaled:C"),
    "rate_target": (float, "per-attempt rate target (ir)"),
    "attempt_cap": (int, "attempt cap (ir); omit for unbounded"),
    "iterations": (int, "samples per metric"),
    "seed": (int, "root seed"),
    "sweep": (_parse_sweep, f"AXIS=v1,v2,... with AXIS in {','.join(SWEEP_AXES)}"),
    "out": (str, "output CSV path"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _field(key: str) -> str:
    return "n_groups" if key == "groups" else key


def _file_line_to_args(line: str) -> list[str]:
    """An experiment-file line ``key = value`` as the flag pair
    ``--key value``; text after ``#`` is a comment, and a line without
    ``=`` reads as the arguments it holds, none if it is blank."""
    key, sep, value = line.split("#", 1)[0].partition("=")
    return [_flag(key.strip()), value.strip()] if sep else key.split()


def _parse_setting(key: str, text: str):
    try:
        return _SETTINGS[key][0](text)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _config_from_settings(settings: dict, where: str = "") -> SimConfig:
    """The one SimConfig builder.  Only the keys present are passed, so
    SimConfig's defaults are the only defaults.  An invariant breach
    starts with ``where``."""
    for key in ("scheme", "n_users"):
        if key not in settings:
            raise ValueError(f"missing required key {key!r} ({_flag(key)})")
    fields = {
        _field(key): value for key, value in settings.items() if key not in ("sweep", "out")
    }
    try:
        return SimConfig(**fields)
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from exc


# ---------------------------------------------------------------------------
# recipes for the reference experiments, and sweeps: one settings point per row
# ---------------------------------------------------------------------------

RECIPES = {
    # throughput versus the rated user's position, N = 10
    "fig-tpos": [dict(scheme="static", n_users=10, alpha=a) for a in (1, 2, 5, 10)],
    "fig-compt": [
        point for n in (2, 4, 6, 8, 10, 12) for point in (
            *(dict(scheme="static", n_users=n, alpha=a) for a in sorted({1, 2, n})),
            dict(scheme="ir", n_users=n, rate_target=1.0),
            dict(scheme="coop", n_users=n),
        )
    ],
    "fig-t5": [
        point for n in (2, 4, 6, 8, 10) for point in (
            *(dict(scheme="multigroup-static", n_users=n, alpha=a, groups=5)
              for a in sorted({1, 2, n})),
            dict(scheme="multigroup-coop", n_users=n, groups=5),
        )
    ],
}


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _expand(points: list[dict], settings: dict, root_seed: int, name: str) -> list[SimConfig]:
    """One config per point, its settings over the run's; a breach names
    the point.  Each point's seed is drawn from the run's seed (root_seed
    unless given) and its index, so appending points keeps earlier seeds."""
    seed = settings.get("seed", root_seed)
    simcore._check_seed(seed)
    return [
        _config_from_settings(
            {**settings, **point, "seed": _child_seed(seed, index)},
            where=f"{name} point {index} ({', '.join(f'{k}={v}' for k, v in point.items())}): ",
        )
        for index, point in enumerate(points)
    ]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _record_row(config: SimConfig, record: simcore.MetricsRecord) -> dict:
    return {
        "scheme": config.scheme,
        # the CSV names the swept fields by their axis names
        **{column: getattr(config, _field(key)) for column, key in SWEEP_AXES.items()},
        "iterations": config.iterations,
        "seed": config.seed,
        "throughput_nats": record.throughput_mean,
        "throughput_se": record.throughput_se,
        "delay_slots": record.delay_mean,
        "delay_se": record.delay_se,
        "analytic_throughput": record.analytic_throughput,
        "predicted_scaling": record.predicted_scaling_value,
    }


def _write_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_format_value(row[col]) for col in CSV_COLUMNS])


def _run_settings(args) -> tuple[dict, list[SimConfig]]:
    """The run's settings and every config it runs, each validated before
    the first runs: a recipe's, or the flags' at each sweep point if they
    sweep."""
    settings = {
        key: _parse_setting(key, getattr(args, key))
        for key in _SETTINGS if getattr(args, key) is not None
    }
    if args.recipe:
        if args.recipe not in RECIPES:
            raise ValueError(
                f"unknown recipe {args.recipe!r}; known: {', '.join(sorted(RECIPES))}"
            )
        extra = [_flag(key) for key in settings if key not in ("iterations", "seed", "out")]
        if extra:
            raise ValueError(
                f"--recipe takes only --iterations, --seed and --out, not {' '.join(extra)}"
            )
        return settings, _expand(RECIPES[args.recipe], settings, 1, args.recipe)
    configs = [_config_from_settings(settings)]
    if "sweep" in settings:
        # the settings alone are valid, so a point that breaks an invariant is at fault
        configs = _expand(settings["sweep"], settings, 0, "sweep")
    return settings, configs


def cmd_run(args) -> int:
    try:
        settings, configs = _run_settings(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    out_path = settings.get("out")
    if not out_path:
        print("error: no output path (--out)", file=sys.stderr)
        return EXIT_PARSE

    try:
        results = [(cfg, simcore.run_config(cfg)) for cfg in configs]
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    rows = [_record_row(cfg, rec) for cfg, rec in results]
    try:
        _write_csv(out_path, rows)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    print(f"wrote {len(rows)} row(s) to {out_path}")
    for cfg, rec in results:
        label = cfg.scheme + (f"(alpha={cfg.alpha})" if cfg.alpha is not None else "")
        reference = ("" if rec.analytic_throughput is None
                     else f"  analytic={rec.analytic_throughput:.4f}")
        print(f"  {label} N={cfg.n_users} G={cfg.n_groups}"
              f"  throughput={rec.throughput_mean:.4f}+-{rec.throughput_se:.4f}"
              f"{reference}  delay={rec.delay_mean:.2f}+-{rec.delay_se:.2f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check_coupon() -> tuple[bool, str]:
    worst = 0.0
    for q in (2, 3, 4, 6, 10):
        for coupled in range(1, min(q, 3) + 1):
            # every sorted need vector over {1, 2, 3}, in one evaluator call
            needs = list(itertools.combinations_with_replacement((1, 2, 3), coupled))
            integrals = analytic.coupon_collector_expected_picks(q, needs).tolist()
            exacts = analytic.coupon_collector_markov(q, needs)
            for integral, exact in zip(integrals, exacts):
                worst = max(worst, abs(integral - exact) / exact)
    return worst <= 1e-10, f"max rel deviation {worst:.3e} (tol 1e-10)"


def _check_closedform() -> tuple[bool, str]:
    worst = 0.0
    for n in (2, 4, 8, 16, 32):
        for alpha in sorted({1, 2, n}):
            for power in (0.1, 1.0, 10.0):
                closed = analytic.static_throughput_closed_form(n, alpha, power)
                quad_val = analytic.throughput_quadrature(n, alpha, power)
                worst = max(worst, abs(closed - quad_val) / abs(quad_val))
    return worst <= 1e-10, f"max rel deviation {worst:.3e} (tol 1e-10)"


def _check_coop_closed_form() -> tuple[bool, str]:
    # at N = 2 and one group the cooperative gain min(X, Y) has survival
    # function 2 e^-2z - e^-3z: the larger of two unit exponentials, times the
    # one relay gain's e^-z.  So its throughput is the static closed form of
    # the least of two gains less a third of that of the least of three.
    worst = 0.0
    for power in (0.1, 1.0, 10.0):
        closed = (analytic.static_throughput_closed_form(2, 1, power)
                  - analytic.static_throughput_closed_form(3, 1, power) / 3)
        quad_val = analytic.throughput_quadrature(2, None, power)
        worst = max(worst, abs(closed - quad_val) / abs(quad_val))
    return worst <= 1e-10, f"max rel deviation {worst:.3e} (tol 1e-10)"


def _check_renewal() -> tuple[bool, str]:
    # one set of uncapped cycles gives both metrics; each is held to the
    # exact mean attempts E[tau], the delay to it and the throughput to the
    # renewal reward N Rbar / E[tau]
    config = SimConfig(scheme="ir", n_users=4, rate_target=0.5, iterations=4000, seed=20240)
    record = simcore.estimate_throughput(config)
    attempts = analytic.ir_expected_attempts(config.n_users, config.rate_target, config.power)
    z_delay = (record.delay_mean - attempts) / record.delay_se
    z_throughput = (record.throughput_mean
                    - config.n_users * config.rate_target / attempts) / record.throughput_se
    return (
        max(abs(z_delay), abs(z_throughput)) <= 4.5,
        f"delay z {z_delay:+.2f}, throughput z {z_throughput:+.2f} against "
        f"E[tau] = {attempts:.6f} (tol 4.5)",
    )


_CHECKS = {
    "coupon-markov-oracle": _check_coupon,
    "closedform-vs-quadrature": _check_closedform,
    "coop-closed-form": _check_coop_closed_form,
    "renewal-reward": _check_renewal,
}


def run_verification(name_filter: str | None = None) -> list[CheckResult]:
    """Run the oracle cross-checks, optionally only those whose name
    contains the filter substring, timing each."""
    results = []
    for name, check in _CHECKS.items():
        if name_filter and name_filter not in name:
            continue
        start = time.perf_counter()
        passed, detail = check()
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results


def cmd_verify(args) -> int:
    results = run_verification(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return EXIT_PARSE
    failures = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}, {result.seconds:.3f} s")
        if not result.passed:
            failures.append(result.name)
    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"all {len(results)} check(s) passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

def _read_run_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected columns {reader.fieldnames}")
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def _series_label(row: dict) -> str:
    label = row["scheme"]
    if row["alpha"]:
        label += f"-a{row['alpha']}"
    # a swept G, L, P or S splits the series; "1.0" reads as 1
    for axis in ("G", "L", "P", "S"):
        if row[axis] and float(row[axis]) != 1:
            label += f"-{axis}{row[axis]}"
    return label


def cmd_plotdata(args) -> int:
    written = []
    for path in args.csv:
        try:
            rows = _read_run_csv(path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        stem = os.path.splitext(os.path.basename(path))[0]
        series: dict[str, list[dict]] = {}
        for row in rows:
            series.setdefault(_series_label(row), []).append(row)
        for label, group in sorted(series.items()):
            group.sort(key=lambda r: (int(r["N"]), int(r["G"])))
            for metric, value_col, se_col in (
                ("throughput", "throughput_nats", "throughput_se"),
                ("delay", "delay_slots", "delay_se"),
            ):
                usable = [r for r in group if r[value_col]]
                if not usable:
                    continue
                out_name = os.path.join(args.out_dir, f"{stem}__{label}__{metric}.dat")
                try:
                    with open(out_name, "w", encoding="utf-8", newline="") as handle:
                        handle.write(f"# {label} {metric}: N value se\n")
                        for r in usable:
                            handle.write(f"{r['N']} {r[value_col]} {r[se_col]}\n")
                except OSError as exc:
                    print(f"error: cannot write {out_name}: {exc}", file=sys.stderr)
                    return EXIT_RUNTIME
                written.append(out_name)
    for name in written:
        print(f"wrote {name}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcastsim",
        description="Monte-Carlo simulator and analytics for multicast scheduling "
                    "in a fading downlink",
        fromfile_prefix_chars="@",
    )
    # an @FILE argument reads the file's key = value lines as flags
    parser.convert_arg_line_to_args = _file_line_to_args
    sub = parser.add_subparsers(dest="command", required=True)

    # exact flags only, so an unknown experiment-file key is an error
    run_p = sub.add_parser("run", allow_abbrev=False,
                           help="run one experiment, a sweep, or a named recipe; "
                                "@FILE reads flags from key = value lines")
    run_p.add_argument(
        "--recipe",
        help=f"named experiment: {', '.join(sorted(RECIPES))}; "
             "takes only --iterations, --seed and --out",
    )
    for key, (_, help_text) in _SETTINGS.items():
        run_p.add_argument(_flag(key), help=help_text)
    run_p.set_defaults(func=cmd_run)

    verify_p = sub.add_parser("verify", help="cross-check analytics against oracles")
    verify_p.add_argument("--filter", help="run only checks whose name contains this substring")
    verify_p.set_defaults(func=cmd_verify)

    plot_p = sub.add_parser("plotdata", help="emit per-series columnar files from run CSVs")
    plot_p.add_argument("csv", nargs="+", help="CSV files produced by 'run'")
    plot_p.add_argument("--out-dir", default=".", help="directory for .dat files")
    plot_p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
