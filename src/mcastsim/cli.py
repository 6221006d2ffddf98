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
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from mcastsim import analytic, simcore
from mcastsim.channel import CoherencePolicy
from mcastsim.simcore import SimConfig, _child_seed

__all__ = [
    "CSV_COLUMNS",
    "CheckResult",
    "ExperimentFileError",
    "RECIPES",
    "cmd_plotdata",
    "cmd_run",
    "cmd_verify",
    "main",
    "parse_experiment_file",
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


class ExperimentFileError(Exception):
    """Configuration problem; the message names the key and line."""


# ---------------------------------------------------------------------------
# experiment files
# ---------------------------------------------------------------------------

_FILE_KEYS = {
    "scheme": str,
    "n_users": int,
    "alpha": int,
    "groups": int,
    "antennas": int,
    "power": float,
    "packet_nats": float,
    "coherence": str,
    "rate_target": float,
    "attempt_cap": int,
    "iterations": int,
    "seed": int,
    "sweep": str,
    "out": str,
}


def _parse_coherence(text: str) -> CoherencePolicy:
    mode, sep, raw = text.partition(":")
    if not sep:
        raise ValueError("expected MODE:VALUE, e.g. fixed:1.0 or scaled:2.0")
    value = float(raw)
    if mode == "fixed":
        return CoherencePolicy.fixed(value)
    if mode == "scaled":
        return CoherencePolicy.scaled(value)
    raise ValueError(f"unknown coherence mode {mode!r}")


def _parse_sweep(text: str) -> tuple[str, list[str]]:
    axis, sep, raw = text.partition("=")
    if not sep or not raw:
        raise ValueError("expected AXIS=v1,v2,..., e.g. N=2,4,8")
    return axis.strip(), [v.strip() for v in raw.split(",") if v.strip()]


def parse_experiment_file(path: str) -> dict:
    """Read a key = value experiment file into a settings dict.

    Unknown keys, bad values and cross-field invariant breaches all raise
    ExperimentFileError naming the offending key and line.
    """
    settings: dict = {}
    lines: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ExperimentFileError(f"line {lineno}: expected 'key = value'")
            key = key.strip()
            value = value.strip()
            if key not in _FILE_KEYS:
                raise ExperimentFileError(f"line {lineno}: unknown key {key!r}")
            if key in lines:
                raise ExperimentFileError(
                    f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})"
                )
            try:
                settings[key] = _FILE_KEYS[key](value)
            except ValueError as exc:
                raise ExperimentFileError(f"line {lineno}: {key}: {exc}") from exc
            lines[key] = lineno
    settings["_lines"] = lines
    return settings


def _config_from_settings(settings: dict) -> tuple[SimConfig, tuple[str, list[str]] | None, str | None]:
    lines = settings.get("_lines", {})

    def fail(key: str, message: str):
        where = f"line {lines[key]}: " if key in lines else ""
        raise ExperimentFileError(f"{where}{message}")

    if "scheme" not in settings:
        raise ExperimentFileError("missing required key 'scheme'")
    if "n_users" not in settings:
        raise ExperimentFileError("missing required key 'n_users'")
    coherence = CoherencePolicy.fixed(1.0)
    if "coherence" in settings:
        try:
            coherence = _parse_coherence(settings["coherence"])
        except ValueError as exc:
            fail("coherence", f"coherence: {exc}")
    try:
        config = SimConfig(
            scheme=settings["scheme"],
            n_users=settings["n_users"],
            alpha=settings.get("alpha"),
            n_groups=settings.get("groups", 1),
            antennas=settings.get("antennas", 1),
            power=settings.get("power", 1.0),
            packet_nats=settings.get("packet_nats", 1.0),
            coherence=coherence,
            rate_target=settings.get("rate_target"),
            attempt_cap=settings.get("attempt_cap"),
            iterations=settings.get("iterations", 5000),
            seed=settings.get("seed", 0),
        )
    except ValueError as exc:
        message = str(exc)
        mentioned = [(message.find(key), key) for key in lines if key in message]
        offender = min(mentioned)[1] if mentioned else "scheme"
        fail(offender, message)
    sweep = None
    if "sweep" in settings:
        try:
            sweep = _parse_sweep(settings["sweep"])
        except ValueError as exc:
            fail("sweep", f"sweep: {exc}")
    return config, sweep, settings.get("out")


# ---------------------------------------------------------------------------
# recipes for the reference experiments
# ---------------------------------------------------------------------------

_RECIPE_N_SWEEP = (2, 4, 6, 8, 10, 12)
_RECIPE_N_SWEEP_MG = (2, 4, 6, 8, 10)


def _recipe_tpos(iterations: int, seed: int) -> list[SimConfig]:
    # throughput versus the rated user's position, N = 10
    configs = []
    for index, alpha in enumerate((1, 2, 5, 10)):
        configs.append(SimConfig(
            scheme="static", n_users=10, alpha=alpha, iterations=iterations,
            seed=_child_seed(seed, index),
        ))
    return configs


def _single_group_suite(iterations: int, seed: int) -> list[SimConfig]:
    configs = []
    index = 0
    for n in _RECIPE_N_SWEEP:
        entries = [("static", a) for a in sorted({1, 2, n})] + [("ir", None), ("coop", None)]
        for scheme, alpha in entries:
            kwargs = dict(iterations=iterations, seed=_child_seed(seed, index))
            if scheme == "ir":
                configs.append(SimConfig(scheme="ir", n_users=n, rate_target=1.0, **kwargs))
            elif scheme == "coop":
                configs.append(SimConfig(scheme="coop", n_users=n, **kwargs))
            else:
                configs.append(SimConfig(scheme="static", n_users=n, alpha=alpha, **kwargs))
            index += 1
    return configs


def _multigroup_suite(iterations: int, seed: int) -> list[SimConfig]:
    configs = []
    index = 0
    for n in _RECIPE_N_SWEEP_MG:
        for alpha in sorted({1, 2, n}):
            configs.append(SimConfig(
                scheme="multigroup-static", n_users=n, alpha=alpha, n_groups=5,
                iterations=iterations, seed=_child_seed(seed, index),
            ))
            index += 1
        configs.append(SimConfig(
            scheme="multigroup-coop", n_users=n, n_groups=5,
            iterations=iterations, seed=_child_seed(seed, index),
        ))
        index += 1
    return configs


RECIPES = {
    "fig-tpos": _recipe_tpos,
    "fig-compt": _single_group_suite,
    "fig-t5": _multigroup_suite,
}


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
        "N": config.n_users,
        "G": config.n_groups,
        "alpha": config.alpha,
        "L": config.antennas,
        "P": config.power,
        "S": config.packet_nats,
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


def cmd_run(args) -> int:
    if args.config:
        try:
            base, sweep, file_out = _config_from_settings(parse_experiment_file(args.config))
        except (OSError, ExperimentFileError) as exc:
            print(f"error: {args.config}: {exc}", file=sys.stderr)
            return EXIT_PARSE
        out_path = args.out or file_out
        configs = None
    elif args.recipe:
        if args.recipe not in RECIPES:
            print(f"error: unknown recipe {args.recipe!r}; known: {', '.join(sorted(RECIPES))}",
                  file=sys.stderr)
            return EXIT_PARSE
        iterations = args.iterations if args.iterations is not None else 5000
        seed = args.seed if args.seed is not None else 1
        try:
            configs = RECIPES[args.recipe](iterations, seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        base, sweep, out_path = None, None, args.out
    else:
        if not args.scheme:
            print("error: need --scheme, --recipe or --config", file=sys.stderr)
            return EXIT_PARSE
        try:
            coherence = _parse_coherence(args.coherence) if args.coherence else CoherencePolicy.fixed(1.0)
            base = SimConfig(
                scheme=args.scheme,
                n_users=args.n_users,
                alpha=args.alpha,
                n_groups=args.groups,
                antennas=args.antennas,
                power=args.power,
                packet_nats=args.packet_nats,
                coherence=coherence,
                rate_target=args.rate_target,
                attempt_cap=args.attempt_cap,
                iterations=args.iterations if args.iterations is not None else 5000,
                seed=args.seed if args.seed is not None else 0,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        sweep = _parse_sweep(args.sweep) if args.sweep else None
        configs = None
        out_path = args.out

    if not out_path:
        print("error: no output path (--out or 'out' in the config file)", file=sys.stderr)
        return EXIT_PARSE

    try:
        if configs is not None:
            results = [(cfg, simcore.run_config(cfg)) for cfg in configs]
        elif sweep is not None:
            axis, values = sweep
            results = simcore.run_sweep(base, axis, values)
        else:
            results = [(base, simcore.run_config(base))]
    except ValueError as exc:
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
        parts = [f"{label} N={cfg.n_users} G={cfg.n_groups}"]
        if rec.throughput_mean is not None:
            parts.append(f"throughput={rec.throughput_mean:.4f}+-{rec.throughput_se:.4f}")
        if rec.analytic_throughput is not None:
            parts.append(f"analytic={rec.analytic_throughput:.4f}")
        if rec.delay_mean is not None:
            parts.append(f"delay={rec.delay_mean:.2f}+-{rec.delay_se:.2f}")
        print("  " + "  ".join(parts))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_ei() -> CheckResult:
    worst = 0.0
    for x in (0.1, 1.0, 5.0, 20.0, 50.0):
        reference, _ = integrate.quad(
            lambda u: math.exp(-u) / u, x, np.inf, epsabs=1e-14, epsrel=1e-13, limit=300
        )
        worst = max(worst, abs(analytic.expint_ei(-x) - (-reference)))
    return CheckResult("ei-quadrature", worst <= 1e-10, f"max abs deviation {worst:.3e} (tol 1e-10)")


def _check_coupon() -> CheckResult:
    worst = 0.0
    for q in (2, 3, 4, 6, 10):
        for coupled in (1, 2, 3):
            if coupled > q:
                continue
            for m in (1, 2, 3):
                exact = analytic.coupon_collector_markov(q, coupled, m)
                integral = analytic.coupon_collector_expected_trials(q, coupled, m)
                worst = max(worst, abs(integral - exact) / exact)
    return CheckResult(
        "coupon-markov-oracle", worst <= 1e-4, f"max rel deviation {worst:.3e} (tol 1e-4)"
    )


def _check_closedform() -> CheckResult:
    worst = 0.0
    for n in (2, 4, 8, 16, 32):
        for alpha in sorted({1, 2, n}):
            for power in (0.1, 1.0, 10.0):
                closed = analytic.static_throughput_closed_form(n, alpha, power)
                quad_val = analytic.throughput_quadrature(n, alpha, power)
                worst = max(worst, abs(closed - quad_val) / abs(quad_val))
    return CheckResult(
        "closedform-vs-quadrature", worst <= 1e-6, f"max rel deviation {worst:.3e} (tol 1e-6)"
    )


def _check_renewal() -> CheckResult:
    config = SimConfig(scheme="ir", n_users=4, rate_target=0.5, iterations=4000, seed=20240)
    throughput = simcore.estimate_throughput(config)
    delay = simcore.estimate_delay(config)
    product = throughput.throughput_mean * delay.delay_mean
    target = config.n_users * config.rate_target
    rel_se = math.hypot(
        throughput.throughput_se / throughput.throughput_mean,
        delay.delay_se / delay.delay_mean,
    )
    deviation = abs(product / target - 1.0)
    return CheckResult(
        "renewal-reward",
        deviation <= 3 * rel_se,
        f"throughput*delay/(N*Rbar) off by {deviation:.4f} (tol {3 * rel_se:.4f})",
    )


_CHECKS = (
    ("ei-quadrature", _check_ei),
    ("coupon-markov-oracle", _check_coupon),
    ("closedform-vs-quadrature", _check_closedform),
    ("renewal-reward", _check_renewal),
)


def run_verification(name_filter: str | None = None) -> list[CheckResult]:
    """Run the oracle cross-checks, optionally only those whose name
    contains the filter substring."""
    return [
        check() for name, check in _CHECKS
        if not name_filter or name_filter in name
    ]


def cmd_verify(args) -> int:
    results = run_verification(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return EXIT_PARSE
    failures = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
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
    if row["G"] and row["G"] != "1":
        label += f"-G{row['G']}"
    return label


def cmd_plotdata(args) -> int:
    import os

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
                with open(out_name, "w", encoding="utf-8", newline="") as handle:
                    handle.write(f"# {label} {metric}: N value se\n")
                    for r in usable:
                        handle.write(f"{r['N']} {r[value_col]} {r[se_col]}\n")
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
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment, a sweep, or a named recipe")
    run_p.add_argument("--config", help="experiment file (key = value lines)")
    run_p.add_argument("--recipe", help=f"named experiment: {', '.join(sorted(RECIPES))}")
    run_p.add_argument("--scheme", choices=simcore.SCHEMES)
    run_p.add_argument("--n-users", type=int, default=2)
    run_p.add_argument("--alpha", type=int)
    run_p.add_argument("--groups", type=int, default=1)
    run_p.add_argument("--antennas", type=int, default=1)
    run_p.add_argument("--power", type=float, default=1.0)
    run_p.add_argument("--packet-nats", type=float, default=1.0)
    run_p.add_argument("--coherence", help="fixed:TC or scaled:C")
    run_p.add_argument("--rate-target", type=float, help="per-attempt rate target (ir)")
    run_p.add_argument("--attempt-cap", type=int, help="attempt cap (ir); omit for unbounded")
    run_p.add_argument("--iterations", type=int)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--sweep", help="AXIS=v1,v2,... with AXIS in N,G,alpha,L,P,S")
    run_p.add_argument("--out", help="output CSV path")
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
