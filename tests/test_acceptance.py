"""End-to-end acceptance gates.

Each test covers one release criterion at its stated tolerance and prints
one [PASS]/[FAIL] line (run pytest with -s to see them on success).
"""
import csv
import math
import time

import numpy as np
import pytest
from scipy import stats

from mcastsim import analytic, cli, queueing, simcore
from mcastsim.simcore import SimConfig

from oracles import (
    ServiceLaw,
    ei_reference,
    ir_expected_attempts,
    ols_slope,
    pick_simulation_delays,
    service_time_pmf,
    throughput_reference,
)


def _exponential_server_delays(n_users, n_groups, alpha, packet_nats, rng, runs):
    """The engine on the fixed-fraction queue layout at Tc = 1, every hit
    served at a unit-mean exponential rate instead of a scheduled one."""
    config = SimConfig(
        scheme="static" if n_groups == 1 else "multigroup-static", n_users=n_users,
        alpha=alpha, n_groups=n_groups, packet_nats=packet_nats, iterations=runs,
    )
    return queueing._coupled_queue_delay(config, lambda count: rng.exponential(1.0, count))[0]


def _simulated_picks(queues, coupled, rng, runs):
    """Uniform picks until each coupled queue is hit once, simulated by
    the pick-simulation reference (a vanishing packet, unit-mean
    exponential rates): the engine itself reports the exact mean here."""
    return pick_simulation_delays(
        queues, coupled, 1e-12, lambda rng, count: rng.exponential(1.0, count), rng, runs)


def _report(criterion: str, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. special functions
# ---------------------------------------------------------------------------

def test_criterion_1_exponential_integral():
    start = time.perf_counter()
    # the closed form's Ei: at N = alpha = 1 it is -e^x Ei(-x) with x = 1/P;
    # relative, since Ei(-50) = -3.8e-24 and any absolute bound passes a zero there
    worst = max(
        abs(analytic.static_throughput_closed_form(1, 1, 1 / x)
            / (-math.exp(x) * ei_reference(-x)) - 1.0)
        for x in (0.1, 1.0, 5.0, 20.0, 50.0)
    )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (exponential integral vs quadrature)",
        worst <= 1e-12 and elapsed < 1.0,
        f"max rel deviation {worst:.2e} (tol 1e-12), {elapsed:.2f}s (limit 1s)",
    )


# ---------------------------------------------------------------------------
# 2. closed form == quadrature at every supported size
# ---------------------------------------------------------------------------

def test_criterion_2_closed_form_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 33):
        for alpha in (a for a in range(1, n + 1) if n % a == 0):
            for power in (0.1, 1.0, 10.0):
                closed = analytic.static_throughput_closed_form(n, alpha, power)
                reference = throughput_reference(n, alpha, power)
                worst = max(worst, abs(closed - reference) / abs(reference))
    elapsed = time.perf_counter() - start
    _report(
        "criterion 2 (closed form vs quadrature, N<=32)",
        worst <= 1e-6 and elapsed < 30.0,
        f"max rel deviation {worst:.2e} (tol 1e-6), {elapsed:.1f}s (limit 30s)",
    )


# ---------------------------------------------------------------------------
# 3. Monte-Carlo throughput tracks the closed form
# ---------------------------------------------------------------------------

def test_criterion_3_mc_vs_analytic_throughput():
    start = time.perf_counter()
    worst_ratio, worst_case = 0.0, ""
    for n in (2, 4, 8, 16):
        for alpha in sorted({1, 2, n}):
            cfg = SimConfig(
                scheme="static", n_users=n, alpha=alpha, iterations=10 ** 5,
                seed=300 + 10 * n + alpha,
            )
            record = simcore.estimate_throughput(cfg)
            closed = analytic.static_throughput_closed_form(n, alpha, 1.0)
            # the closed form is exact, so only the estimate's own noise
            # counts: |z| > 4.5 has chance 7e-6 per setting
            tolerance = 4.5 * record.throughput_se
            ratio = abs(record.throughput_mean - closed) / tolerance
            if ratio > worst_ratio:
                worst_ratio, worst_case = ratio, f"N={n},alpha={alpha}"
    elapsed = time.perf_counter() - start
    _report(
        "criterion 3 (MC throughput vs closed form)",
        worst_ratio <= 1.0 and elapsed < 60.0,
        f"worst deviation {worst_ratio:.2f}x tolerance at {worst_case}, "
        f"{elapsed:.1f}s (limit 60s)",
    )


# ---------------------------------------------------------------------------
# 4. memoryless-server service law
# ---------------------------------------------------------------------------

def test_criterion_4_service_law_fit():
    runs = 10 ** 5
    delays = _exponential_server_delays(4, 1, 1, 1.0, np.random.default_rng(401), runs)
    law = ServiceLaw(1.0, 1.0)
    probs = [service_time_pmf(law, k) for k in range(1, 8)]
    expected = [p * runs for p in probs] + [runs - sum(p * runs for p in probs)]
    observed = [int(np.sum(delays == k)) for k in range(1, 8)] + [int(np.sum(delays >= 8))]
    _, p_value = stats.chisquare(observed, expected)
    mean_error = abs(delays.mean() - 2.0) / 2.0
    _report(
        "criterion 4 (shifted-Poisson service law)",
        p_value > 0.01 and mean_error < 0.01,
        f"GOF p={p_value:.3f} (need >0.01), mean off by {mean_error:.3%} (tol 1%)",
    )


# ---------------------------------------------------------------------------
# 5. coupon-collector agreement: oracle, integral, simulation
# ---------------------------------------------------------------------------

def test_criterion_5_coupon_collector():
    worst_oracle = 0.0
    for q in range(2, 11):
        for coupled in (1, 2, 3):
            if coupled > q:
                continue
            for m in (1, 2, 3):
                integral = analytic.coupon_collector_expected_picks(q, [[m] * coupled])[0]
                exact = analytic.coupon_collector_markov(q, (m,) * coupled)
                worst_oracle = max(worst_oracle, abs(integral - exact) / exact)

    worst_sim, worst_case = 0.0, ""
    for n in (2, 4, 6, 8):
        for alpha in sorted({1, 2, n}):
            for groups in (1, 2):
                q_total = groups * math.comb(n, n // alpha)
                expected = analytic.coupon_collector_expected_picks(q_total, [[1] * alpha])[0]
                rng = np.random.default_rng(5000 + 100 * n + 10 * alpha + groups)
                mean = _simulated_picks(q_total, alpha, rng, 20000).mean()
                rel = abs(mean - expected) / expected
                if rel > worst_sim:
                    worst_sim, worst_case = rel, f"N={n},alpha={alpha},G={groups}"

    pinned = _simulated_picks(2, 2, np.random.default_rng(5999), 10 ** 5).mean()
    _report(
        "criterion 5 (coupon collector: oracle/integral/simulation)",
        worst_oracle <= 0.02 and worst_sim <= 0.02 and abs(pinned - 3.0) <= 0.06,
        f"integral-vs-oracle {worst_oracle:.2e}, sim-vs-integral {worst_sim:.3%} "
        f"at {worst_case} (tol 2%), pinned case {pinned:.3f} (need 3.00+-0.06)",
    )


# ---------------------------------------------------------------------------
# 6. scaling laws
# ---------------------------------------------------------------------------

def test_criterion_6_scaling_laws():
    start = time.perf_counter()
    details = []
    ok = True

    # worst-user delay grows linearly: D(40)/D(20)
    def worst_delay(n, seed):
        config = SimConfig(scheme="static", n_users=n, alpha=1, packet_nats=5.0, iterations=3000)
        return float(queueing.tagged_delay_static(config, np.random.default_rng(seed))[0].mean())

    ratio = worst_delay(40, 602) / worst_delay(20, 601)
    ok &= 1.7 <= ratio <= 2.3
    details.append(f"worst-delay D(40)/D(20)={ratio:.2f} in [1.7,2.3]")

    # median throughput grows linearly: R(128)/R(64)
    def med_throughput(n, seed):
        cfg = SimConfig(scheme="static", n_users=n, alpha=2, iterations=20000, seed=seed)
        return simcore.estimate_throughput(cfg).throughput_mean

    ratio = med_throughput(128, 612) / med_throughput(64, 611)
    ok &= 1.8 <= ratio <= 2.2
    details.append(f"median-throughput R(128)/R(64)={ratio:.2f} in [1.8,2.2]")

    # median delay tracks the central binomial coefficient
    normalized = []
    for n in (4, 6, 8):
        cfg = SimConfig(scheme="static", n_users=n, alpha=2, iterations=4000, seed=620 + n)
        normalized.append(simcore.estimate_delay(cfg).delay_mean / math.comb(n, n // 2))
    spread = max(normalized) / min(normalized) - 1.0
    ok &= spread < 0.25
    details.append(f"median-delay/C(N,N/2) spread {spread:.1%} (tol 25%)")

    # cooperative delay stays flat from N=8 to N=64
    coop = []
    for n, seed in ((8, 631), (64, 632)):
        cfg = SimConfig(scheme="coop", n_users=n, iterations=2000, seed=seed)
        coop.append(simcore.estimate_delay(cfg).delay_mean)
    flatness = max(coop) / min(coop)
    ok &= flatness <= 2.0
    details.append(f"coop-delay N=8 vs N=64 ratio {flatness:.2f} (tol 2)")

    # retransmission delay is sublinear: 16x more users, growth under 4x
    def ir_delay(n, seed):
        cfg = SimConfig(scheme="ir", n_users=n, rate_target=2.0, iterations=3000, seed=seed)
        return simcore.estimate_delay(cfg).delay_mean

    growth = ir_delay(256, 642) / ir_delay(16, 641)
    ok &= growth < 4.0
    details.append(f"ir-delay growth {growth:.2f} for 16x users (tol <4)")

    # two-antenna worst user: log-log slope near 1/2
    ns = (16, 32, 64, 128, 256)
    means = [
        simcore.estimate_throughput(SimConfig(
            scheme="static", n_users=n, alpha=1, antennas=2, iterations=20000, seed=650 + i
        )).throughput_mean
        for i, n in enumerate(ns)
    ]
    slope = ols_slope(np.log(ns), np.log(means))
    ok &= 0.4 <= slope <= 0.6
    details.append(f"two-antenna worst-user slope {slope:.3f} in [0.4,0.6]")

    elapsed = time.perf_counter() - start
    ok &= elapsed < 900.0
    _report("criterion 6 (scaling laws)", ok, "; ".join(details) + f"; {elapsed:.0f}s (limit 900s)")


# ---------------------------------------------------------------------------
# 7. figure orderings at the reference settings
# ---------------------------------------------------------------------------

def test_criterion_7_figure_orderings(tmp_path):
    start = time.perf_counter()
    records = {}
    for label, kwargs in {
        "worst": dict(scheme="static", alpha=1),
        "median": dict(scheme="static", alpha=2),
        "best": dict(scheme="static", alpha=10),
        "coop": dict(scheme="coop"),
    }.items():
        cfg = SimConfig(n_users=10, power=1.0, iterations=5000, seed=701, **kwargs)
        records[label] = simcore.run_config(cfg)

    thr = {k: r.throughput_mean for k, r in records.items()}
    dly = {k: r.delay_mean for k, r in records.items()}
    throughput_ordered = thr["median"] > thr["best"] > thr["worst"]
    delay_ordered = (
        dly["median"] >= 3 * dly["best"]
        and dly["best"] > dly["worst"]
        and dly["worst"] >= 2 * dly["coop"]
    )

    sweep = tmp_path / "groups.csv"
    assert cli.main([
        "run", "--scheme", "multigroup-static", "--n-users", "10", "--alpha", "1",
        "--iterations", "5000", "--seed", "702", "--sweep", "G=1,2,3,4,5", "--out", str(sweep),
    ]) == 0
    with open(sweep, newline="") as handle:
        gains = [float(row["throughput_nats"]) for row in csv.DictReader(handle)]
    monotone = all(a < b for a, b in zip(gains, gains[1:]))

    elapsed = time.perf_counter() - start
    _report(
        "criterion 7 (figure orderings)",
        throughput_ordered and delay_ordered and monotone and elapsed < 300.0,
        f"throughput median>{thr['median']:.2f} best>{thr['best']:.2f} worst>{thr['worst']:.2f}; "
        f"delay median={dly['median']:.0f} best={dly['best']:.1f} worst={dly['worst']:.1f} "
        f"coop={dly['coop']:.1f}; G-sweep {['%.2f' % g for g in gains]}; "
        f"{elapsed:.0f}s (limit 300s)",
    )


# ---------------------------------------------------------------------------
# 8. renewal-reward identity
# ---------------------------------------------------------------------------

def test_criterion_8_renewal_reward():
    # the MC identity throughput x delay = N Rbar, and each metric against
    # the exact mean attempts E[tau] of an uncapped cycle: delay E[tau],
    # throughput N Rbar / E[tau]
    worst_dev, worst_case, ok = 0.0, "", True
    worst_z, worst_z_case, exact_ok = 0.0, "", True
    for n in (4, 16):
        for target in (0.5, 2.0):
            cfg = SimConfig(
                scheme="ir", n_users=n, rate_target=target, iterations=10 ** 4,
                seed=800 + n + int(10 * target),
            )
            throughput = simcore.estimate_throughput(cfg)
            delay = simcore.estimate_delay(cfg)
            product = throughput.throughput_mean * delay.delay_mean
            rel_se = math.hypot(
                throughput.throughput_se / throughput.throughput_mean,
                delay.delay_se / delay.delay_mean,
            )
            deviation = abs(product / (n * target) - 1.0)
            ok &= deviation <= 3 * rel_se
            if deviation / (3 * rel_se) > worst_dev:
                worst_dev, worst_case = deviation / (3 * rel_se), f"N={n},Rbar={target}"

            attempts = ir_expected_attempts(n, target, cfg.power)
            z_delay = (delay.delay_mean - attempts) / delay.delay_se
            z_throughput = (throughput.throughput_mean - n * target / attempts) / throughput.throughput_se
            exact_ok &= max(abs(z_delay), abs(z_throughput)) <= 4.5
            for name, z in (("delay", z_delay), ("throughput", z_throughput)):
                if abs(z) > abs(worst_z):
                    worst_z, worst_z_case = z, f"{name} at N={n},Rbar={target}"
    _report(
        "criterion 8 (renewal-reward identity)",
        ok and exact_ok,
        f"worst deviation {worst_dev:.2f}x the 3-se tolerance at {worst_case}; "
        f"worst z against the exact E[tau] {worst_z:+.2f} (limit 4.5) at {worst_z_case}",
    )


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    flags = [
        "run", "--scheme", "static", "--alpha", "2", "--n-users", "8",
        "--sweep", "N=4,8", "--iterations", "2000", "--seed", "909",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(flags + ["--out", str(a)]) == 0
    assert cli.main(flags + ["--out", str(b)]) == 0
    bytes_equal = a.read_bytes() == b.read_bytes()

    cfg = SimConfig(scheme="static", n_users=16, alpha=2, iterations=10 ** 4, seed=316)
    records_equal = simcore.estimate_throughput(cfg) == simcore.estimate_throughput(cfg)
    _report(
        "criterion 9 (determinism)",
        bytes_equal and records_equal,
        f"CSV bytes identical: {bytes_equal}; reran estimator identical: {records_equal}",
    )
