import csv
import math
import pathlib
import re
import tempfile
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcastsim import analytic, cli, simcore


def _read_csv(path):
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        return reader.fieldnames, list(reader)


def _counted_run_config(monkeypatch):
    """Route cli's run_config calls through a counter; returns the list of
    configs run."""
    calls, real = [], simcore.run_config

    def counted(config):
        calls.append(config)
        return real(config)

    monkeypatch.setattr(simcore, "run_config", counted)
    return calls


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_single_config_writes_csv(tmp_path, capsys):
    out = tmp_path / "med.csv"
    code = cli.main([
        "run", "--scheme", "static", "--alpha", "2", "--n-users", "4",
        "--power", "1", "--iterations", "400", "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    header, rows = _read_csv(out)
    assert header == cli.CSV_COLUMNS
    assert len(rows) == 1
    row = rows[0]
    assert row["scheme"] == "static" and row["alpha"] == "2" and row["N"] == "4"
    assert float(row["throughput_nats"]) > 0
    assert float(row["delay_slots"]) >= 1
    assert float(row["analytic_throughput"]) > 0
    assert "wrote 1 row" in capsys.readouterr().out


def test_run_reports_finite_delay_at_n1024(tmp_path):
    # each run's mean is of order C(1024, 512) = 4.5e306, so the sum of 200
    # of them, or of their squared deviations, overflows
    out = tmp_path / "big.csv"
    code = cli.main([
        "run", "--scheme", "static", "--n-users", "1024", "--alpha", "2",
        "--iterations", "200", "--out", str(out),
    ])
    assert code == 0
    row = _read_csv(out)[1][0]
    assert math.isfinite(float(row["delay_slots"])) and math.isfinite(float(row["delay_se"]))


def test_run_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    flags = ["run", "--scheme", "coop", "--n-users", "4", "--iterations", "300", "--seed", "21"]
    assert cli.main(flags + ["--out", str(a)]) == 0
    assert cli.main(flags + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_ir_flags(tmp_path):
    out = tmp_path / "ir.csv"
    code = cli.main([
        "run", "--scheme", "ir", "--n-users", "4", "--rate-target", "0.5",
        "--iterations", "400", "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    _, rows = _read_csv(out)
    assert rows[0]["alpha"] == ""
    assert rows[0]["analytic_throughput"] == ""
    assert float(rows[0]["delay_slots"]) >= 1


def test_run_sweep_flag(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "run", "--scheme", "static", "--alpha", "2", "--n-users", "2",
        "--sweep", "N=2,4,6", "--iterations", "200", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    _, rows = _read_csv(out)
    assert [r["N"] for r in rows] == ["2", "4", "6"]
    assert len({r["seed"] for r in rows}) == 3


def test_run_recipe(tmp_path):
    out = tmp_path / "tpos.csv"
    code = cli.main([
        "run", "--recipe", "fig-tpos", "--iterations", "60", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    _, rows = _read_csv(out)
    assert [r["alpha"] for r in rows] == ["1", "2", "5", "10"]
    assert all(r["N"] == "10" for r in rows)


def test_run_unknown_recipe(tmp_path, capsys):
    code = cli.main(["run", "--recipe", "fig-nope", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "fig-nope" in capsys.readouterr().err


def test_run_invalid_flags(tmp_path, capsys):
    code = cli.main([
        "run", "--scheme", "static", "--alpha", "3", "--n-users", "10",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_run_requires_output(capsys):
    code = cli.main(["run", "--scheme", "coop", "--n-users", "4", "--iterations", "10"])
    assert code == 2
    assert "out" in capsys.readouterr().err


def test_run_invalid_sweep_value(tmp_path, capsys, monkeypatch):
    # every sweep point is validated before the first one runs
    calls = _counted_run_config(monkeypatch)
    out = tmp_path / "x.csv"
    code = cli.main([
        "run", "--scheme", "static", "--alpha", "2", "--n-users", "4",
        "--sweep", "N=4,7", "--iterations", "50", "--out", str(out),
    ])
    assert code == 2
    assert "7" in capsys.readouterr().err
    assert not calls and not out.exists()


@pytest.mark.parametrize("sweep", ["N", "X=1,2", "N=,"])
def test_run_malformed_sweep_is_a_parse_error(tmp_path, capsys, sweep):
    out = tmp_path / "x.csv"
    code = cli.main([
        "run", "--scheme", "static", "--alpha", "2", "--n-users", "4",
        "--sweep", sweep, "--iterations", "50", "--out", str(out),
    ])
    assert code == 2
    assert "sweep" in capsys.readouterr().err
    assert not out.exists()


def test_run_requires_n_users(tmp_path, capsys):
    code = cli.main(["run", "--scheme", "coop", "--iterations", "10",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "n_users" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--scheme", "coop", "--scheme"),
    ("--seed", "-1", "non-negative"),
])
def test_recipe_rejects_bad_settings(tmp_path, capsys, flag, value, message):
    code = cli.main(["run", "--recipe", "fig-tpos", flag, value,
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("mode", [
    ["--recipe", "fig-tpos"],
    ["--scheme", "static", "--alpha", "2", "--n-users", "4", "--sweep", "N=4,8"],
], ids=["recipe", "sweep"])
@pytest.mark.parametrize("seed", ["-1", "46116860184273879040"], ids=["negative", "over-64-bits"])
def test_root_seed_is_checked_before_any_row_runs(tmp_path, capsys, monkeypatch, mode, seed):
    # the root seed of a recipe or a sweep is held to SimConfig's seed rule
    calls = _counted_run_config(monkeypatch)
    out = tmp_path / "x.csv"
    code = cli.main(["run", *mode, "--seed", seed, "--iterations", "10", "--out", str(out)])
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not calls and not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--power", "inf", "power"),
    ("--coherence", "fixed:inf", "coherence"),
])
def test_run_rejects_non_finite_settings(tmp_path, capsys, flag, value, message):
    out = tmp_path / "x.csv"
    code = cli.main(["run", "--scheme", "static", "--alpha", "1", "--n-users", "2",
                     "--iterations", "10", flag, value, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, message", [
    ("bogus:1", "unknown coherence mode 'bogus'"),
    ("1.0", "expected MODE:VALUE"),
], ids=["mode", "separator"])
def test_run_rejects_malformed_coherence(tmp_path, capsys, value, message):
    out = tmp_path / "x.csv"
    code = cli.main(["run", "--scheme", "static", "--alpha", "1", "--n-users", "2",
                     "--iterations", "10", "--coherence", value, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("settings", [
    ["--power", "1e20"], ["--sweep", "P=1,1e20"],
], ids=["single", "sweep"])
def test_run_reports_a_quadrature_failure(tmp_path, capsys, monkeypatch, settings):
    # a throughput quadrature that cannot settle, here at P = 1e20, raises
    # ArithmeticError: a runtime failure, reported without a traceback
    quadrature = analytic.throughput_quadrature

    def fail_at_high_power(n_users, alpha, power, *rest):
        if power >= 1e20:
            raise ArithmeticError("integrand is not negligible at the ends of the window")
        return quadrature(n_users, alpha, power, *rest)

    monkeypatch.setattr(analytic, "throughput_quadrature", fail_at_high_power)
    out = tmp_path / "x.csv"
    code = cli.main(["run", "--scheme", "static", "--alpha", "1", "--n-users", "2",
                     "--iterations", "10", *settings, "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_run_at_high_power_reports_the_quadrature(tmp_path):
    # the quadrature window reaches far enough below the scheduled gain's
    # mass that static rows settle at P = 1e20
    out = tmp_path / "x.csv"
    code = cli.main(["run", "--scheme", "static", "--alpha", "1", "--n-users", "2",
                     "--iterations", "10", "--power", "1e20", "--out", str(out)])
    assert code == 0
    _, rows = _read_csv(out)
    assert math.isfinite(float(rows[0]["analytic_throughput"]))


def test_run_rejects_packet_that_cannot_drain(tmp_path, capsys):
    # S / (Tc log1p(P (1 + log 2))) hits at least: 1e12 nats would run for
    # hours and 1e300 forever, so both exit 1 before the first hit
    out = tmp_path / "x.csv"
    for packet_nats, hits in (("1e12", "1.01e+12"), ("1e300", "1.01e+300")):
        start = time.perf_counter()
        code = cli.main(["run", "--scheme", "static", "--alpha", "1", "--n-users", "2",
                         "--iterations", "10", "--packet-nats", packet_nats, "--out", str(out)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert f"at least {hits} hits on average" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("settings", [
    dict(scheme="coop", n_users=2, packet_nats=math.inf),
    dict(scheme="ir", n_users=2, rate_target=math.inf),
], ids=["packet_nats", "rate_target"])
def test_settings_reject_non_finite_values(settings):
    key = list(settings)[-1]
    with pytest.raises(ValueError, match=key):
        cli._config_from_settings(settings)


# ---------------------------------------------------------------------------
# experiment files: @FILE reads key = value lines as flags
# ---------------------------------------------------------------------------

def _readme_example():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"```\n# exp\.cfg\n(.*?)```", readme, re.S).group(1)


def test_config_file_round_trip(tmp_path):
    out = tmp_path / "exp.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# median-user run\n"
        "scheme = static\n"
        "alpha = 2\n"
        "n_users = 10\n"
        "power = 1.0\n"
        "coherence = fixed:1.0\n"
        "iterations = 120\n"
        "seed = 7\n"
        f"out = {out}\n"
    )
    assert cli.main(["run", f"@{cfg}"]) == 0
    _, rows = _read_csv(out)
    assert len(rows) == 1 and rows[0]["N"] == "10"


def test_config_file_writes_the_bytes_of_its_flags(tmp_path):
    # the README's example file, run as a file and as the flags it spells
    example = _readme_example()
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(example)
    flags = []
    for line in example.splitlines():
        key, _, value = (part.strip() for part in line.partition("="))
        flags += [] if key == "out" else ["--" + key.replace("_", "-"), value]
    small = ["--iterations", "150"]
    assert cli.main(["run", f"@{cfg}", *small, "--out", str(tmp_path / "file.csv")]) == 0
    assert cli.main(["run", *flags, *small, "--out", str(tmp_path / "flags.csv")]) == 0
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()


def test_config_file_sweep(tmp_path):
    out = tmp_path / "s.csv"
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "scheme = static\nalpha = 1\nn_users = 2\nsweep = N=2,4\n"
        f"iterations = 80\nout = {out}\n"
    )
    assert cli.main(["run", f"@{cfg}"]) == 0
    _, rows = _read_csv(out)
    assert [row["N"] for row in rows] == ["2", "4"]


def test_flags_override_config_file(tmp_path):
    out = tmp_path / "exp.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"scheme = coop\nn_users = 4\niterations = 500\nseed = 1\nout = {out}\n")
    assert cli.main(["run", f"@{cfg}", "--iterations", "7", "--seed", "3"]) == 0
    _, rows = _read_csv(out)
    assert rows[0]["iterations"] == "7"
    assert rows[0]["seed"] == "3"


def test_overriding_flag_is_the_value_checked(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"scheme = static\nn_users = 10\nalpha = 2\nout = {tmp_path / 'x.csv'}\n")
    assert cli.main(["run", f"@{cfg}", "--alpha", "3"]) == 2
    assert "alpha=3" in capsys.readouterr().err


def test_config_file_unknown_sweep_axis_names_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme = static\nalpha = 1\nn_users = 2\nsweep = X=1,2\nout = x.csv\n")
    assert cli.main(["run", f"@{cfg}"]) == 2
    err = capsys.readouterr().err
    assert "sweep" in err and "'X'" in err


@pytest.mark.parametrize("values, named", [("4,7", "n_users=7"), ("4,x", "'x'")],
                         ids=["invariant", "literal"])
def test_config_file_invalid_sweep_value_names_key(tmp_path, capsys, monkeypatch, values, named):
    calls = _counted_run_config(monkeypatch)
    out = tmp_path / "x.csv"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"scheme = static\nalpha = 2\nn_users = 4\nsweep = N={values}\nout = {out}\n")
    assert cli.main(["run", f"@{cfg}"]) == 2
    err = capsys.readouterr().err
    assert "sweep" in err and named in err
    assert not calls and not out.exists()


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme = static\nn_users = 4\nwhatever = 3\n")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", f"@{cfg}"])
    assert exit_info.value.code == 2
    assert "--whatever" in capsys.readouterr().err


def test_config_file_key_is_not_abbreviated(tmp_path, capsys):
    # argparse would otherwise read "iter" as the unique prefix of --iterations
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"scheme = coop\nn_users = 4\niter = 7\nout = {tmp_path / 'x.csv'}\n")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["run", f"@{cfg}"])
    assert exit_info.value.code == 2
    assert "--iter" in capsys.readouterr().err


def test_config_file_bad_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme = static\nalpha = two\nn_users = 4\n")
    assert cli.main(["run", f"@{cfg}"]) == 2
    assert "alpha: invalid literal" in capsys.readouterr().err


def test_config_file_invariant_breach_names_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("scheme = static\nn_users = 10\nalpha = 3\nout = x.csv\n")
    assert cli.main(["run", f"@{cfg}"]) == 2
    assert "alpha=3 must divide n_users=10" in capsys.readouterr().err


def test_config_file_skips_comments_and_blank_lines(tmp_path):
    out = tmp_path / "exp.csv"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# coop run\n\n   \nscheme = coop   # two-stage\n# n_users = 6\n"
        f"n_users = 4\niterations = 30\n\nout = {out}\n"
    )
    assert cli.main(["run", f"@{cfg}"]) == 0
    _, rows = _read_csv(out)
    assert (rows[0]["scheme"], rows[0]["N"]) == ("coop", "4")


def test_config_file_duplicate_key(tmp_path):
    # a repeated key acts as a repeated flag: the last one wins
    out = tmp_path / "dup.csv"
    cfg = tmp_path / "dup.cfg"
    cfg.write_text(f"scheme = static\nscheme = coop\nn_users = 4\niterations = 30\nout = {out}\n")
    assert cli.main(["run", f"@{cfg}"]) == 0
    _, rows = _read_csv(out)
    assert rows[0]["scheme"] == "coop"


def test_config_file_reads_a_nested_file(tmp_path):
    # argparse expands an @FILE line inside a file too
    out = tmp_path / "exp.csv"
    base = tmp_path / "base.cfg"
    base.write_text("scheme = coop\nn_users = 4\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"@{base}\niterations = 30\nout = {out}\n")
    assert cli.main(["run", f"@{cfg}"]) == 0
    _, rows = _read_csv(out)
    assert (rows[0]["scheme"], rows[0]["iterations"]) == ("coop", "30")


def test_readme_lists_every_setting():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Recognized keys: `([^`]*)`", readme).group(1)
    assert [key.strip() for key in listed.split(",")] == list(cli._SETTINGS)


def test_readme_lists_every_csv_column():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### CSV format\n.*?```\n(.*?)```", readme, re.S).group(1)
    assert "".join(block.split()).split(",") == cli.CSV_COLUMNS


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verification_passes_on_fresh_tree(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    for name in ("coupon-markov-oracle", "closedform-vs-quadrature", "coop-closed-form",
                 "renewal-reward"):
        assert f"[PASS] {name}" in out
    assert "all 4 check(s) passed" in out


def test_verification_filter_runs_subset(capsys):
    assert cli.main(["verify", "--filter", "coupon"]) == 0
    out = capsys.readouterr().out
    assert "coupon-markov-oracle" in out
    assert "closedform-vs-quadrature" not in out


def test_verification_times_each_check(capsys):
    results = cli.run_verification("coupon")
    assert [r.name for r in results] == ["coupon-markov-oracle"]
    # a plain bool, as a JSON report of the checks needs
    assert results[0].passed is True and results[0].seconds > 0
    assert results[0].detail.endswith("(tol 1e-10)")
    assert cli.main(["verify", "--filter", "coupon"]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(r"\[PASS\] coupon-markov-oracle: .* \(tol 1e-10\), \d+\.\d{3} s", line)


def test_verification_flags_corrupted_quadrature(monkeypatch, capsys):
    monkeypatch.setattr(analytic, "throughput_quadrature", lambda *args: 0.5)
    assert cli.main(["verify", "--filter", "closedform"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] closedform-vs-quadrature" in captured.out
    assert "closedform-vs-quadrature" in captured.err


def test_verification_flags_ei_zeroed_in_the_tail(monkeypatch):
    # Ei(-a/P) is under 2e-8 in magnitude from a/P = 15 on; the closed form
    # takes e^(a/P) E1(a/P) = -e^(a/P) Ei(-a/P) from mpmath's Ei below its
    # crossover and from the continued fraction above, so both are zeroed
    # there, and the check holds the sum to the quadrature at a/P up to 320
    real_ei, real_fraction = mpmath.ei, analytic._scaled_exp_e1
    monkeypatch.setattr(mpmath, "ei", lambda x: mpmath.mpf(0) if x < -15 else real_ei(x))
    monkeypatch.setattr(analytic, "_scaled_exp_e1", lambda num, den, *args: (
        0 if num > 15 * den else real_fraction(num, den, *args)))
    passed, detail = cli._check_closedform()
    assert not passed
    assert detail.endswith("(tol 1e-10)")


@pytest.mark.parametrize(
    "name, check",
    [
        ("throughput_quadrature", cli._check_closedform),
        ("throughput_quadrature", cli._check_coop_closed_form),
        ("coupon_collector_expected_picks", cli._check_coupon),
    ],
)
def test_verification_flags_a_1e_8_relative_error(monkeypatch, name, check):
    # the checks measure about 2e-16, so a 1e-8 error is far outside them
    real = getattr(analytic, name)
    monkeypatch.setattr(analytic, name, lambda *args: real(*args) * (1 + 1e-8))
    passed, detail = check()
    assert not passed
    assert detail.endswith("(tol 1e-10)")


def test_coupon_check_covers_unequal_needs(monkeypatch):
    # wrong by 1e-8 only where a row's needs differ, which a check of
    # equal needs alone would pass
    real = analytic.coupon_collector_expected_picks

    def corrupted(total_queues, needs):
        needs = np.asarray(needs)
        unequal = (needs != needs[:, :1]).any(axis=1)
        return real(total_queues, needs) * np.where(unequal, 1 + 1e-8, 1.0)

    monkeypatch.setattr(analytic, "coupon_collector_expected_picks", corrupted)
    passed, detail = cli._check_coupon()
    assert not passed
    assert detail.endswith("(tol 1e-10)")


def test_verification_unmatched_filter(capsys):
    assert cli.main(["verify", "--filter", "nonesuch"]) == 2


# ---------------------------------------------------------------------------
# plot data
# ---------------------------------------------------------------------------

def test_plotdata_round_trip(tmp_path):
    out = tmp_path / "compt.csv"
    assert cli.main([
        "run", "--scheme", "static", "--alpha", "2", "--n-users", "2",
        "--sweep", "N=2,4,6", "--iterations", "100", "--seed", "4", "--out", str(out),
    ]) == 0
    assert cli.main(["plotdata", str(out), "--out-dir", str(tmp_path)]) == 0
    thr = tmp_path / "compt__static-a2__throughput.dat"
    dly = tmp_path / "compt__static-a2__delay.dat"
    assert thr.exists() and dly.exists()
    data_lines = [l for l in thr.read_text().splitlines() if not l.startswith("#")]
    assert len(data_lines) == 3
    xs = [line.split()[0] for line in data_lines]
    assert xs == ["2", "4", "6"]


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(scheme=st.sampled_from(["static", "coop", "ir"]),
       multiples=st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True),
       seed=st.integers(0, 2 ** 32))
def test_plotdata_round_trips_any_n_sweep(scheme, multiples, seed):
    # each metric's series file lists the CSV rows sorted by N, with the
    # value and SE text of the CSV
    step, extra = {"static": (2, ["--alpha", "2"]), "coop": (2, []),
                   "ir": (1, ["--rate-target", "0.5"])}[scheme]
    ns = ",".join(str(step * m) for m in multiples)
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "sweep.csv"
        assert cli.main([
            "run", "--scheme", scheme, "--n-users", str(step), *extra, "--sweep", f"N={ns}",
            "--iterations", "20", "--seed", str(seed), "--out", str(out),
        ]) == 0
        assert cli.main(["plotdata", str(out), "--out-dir", tmp]) == 0
        rows = sorted(_read_csv(out)[1], key=lambda r: int(r["N"]))
        for metric, value_col, se_col in (("throughput", "throughput_nats", "throughput_se"),
                                          ("delay", "delay_slots", "delay_se")):
            (dat,) = pathlib.Path(tmp).glob(f"sweep__*__{metric}.dat")
            lines = [l for l in dat.read_text().splitlines() if not l.startswith("#")]
            assert lines == [f"{r['N']} {r[value_col]} {r[se_col]}" for r in rows]


def test_plotdata_splits_mixed_groups(tmp_path):
    path = tmp_path / "mix.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(cli.CSV_COLUMNS)
        writer.writerow(["multigroup-static", 4, 1, 1, 1, 1.0, 1.0, 10, 1,
                         0.9, 0.01, 3.0, 0.1, "", ""])
        writer.writerow(["multigroup-static", 4, 2, 1, 1, 1.0, 1.0, 10, 2,
                         1.2, 0.01, 5.0, 0.1, "", ""])
    assert cli.main(["plotdata", str(path), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "mix__multigroup-static-a1__throughput.dat").exists()
    assert (tmp_path / "mix__multigroup-static-a1-G2__throughput.dat").exists()


def test_plotdata_writes_one_series_per_swept_power(tmp_path):
    out = tmp_path / "p.csv"
    assert cli.main([
        "run", "--scheme", "static", "--alpha", "2", "--n-users", "4",
        "--sweep", "P=1,2,4", "--iterations", "50", "--out", str(out),
    ]) == 0
    assert cli.main(["plotdata", str(out), "--out-dir", str(tmp_path)]) == 0
    # P = 1 is the default and names nothing
    for label in ("static-a2", "static-a2-P2", "static-a2-P4"):
        lines = (tmp_path / f"p__{label}__throughput.dat").read_text().splitlines()
        assert [line.split()[0] for line in lines[1:]] == ["4"]
    assert len(list(tmp_path.glob("p__*__throughput.dat"))) == 3


def test_plotdata_reports_unwritable_out_dir(tmp_path, capsys):
    out = tmp_path / "tpos.csv"
    assert cli.main(["run", "--scheme", "static", "--alpha", "2", "--n-users", "2",
                     "--iterations", "10", "--out", str(out)]) == 0
    missing = tmp_path / "missing"
    assert cli.main(["plotdata", str(out), "--out-dir", str(missing)]) == 1
    assert f"error: cannot write {missing}" in capsys.readouterr().err


def test_plotdata_rejects_empty_csv(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    with open(path, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerow(cli.CSV_COLUMNS)
    assert cli.main(["plotdata", str(path)]) == 2
    assert "no data rows" in capsys.readouterr().err


def test_plotdata_rejects_malformed_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    assert cli.main(["plotdata", str(path)]) == 2
    assert "columns" in capsys.readouterr().err
