import math

import numpy as np
import pytest

from mcastsim import analytic, queueing, schedulers, simcore
from mcastsim.channel import CoherencePolicy
from mcastsim.simcore import MetricsRecord, SimConfig

from oracles import expected_log1p_reference, throughput_reference


# ---------------------------------------------------------------------------
# configuration invariants
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(scheme="static", n_users=4)                      # alpha missing
    with pytest.raises(ValueError):
        SimConfig(scheme="static", n_users=10, alpha=3)            # not a divisor
    with pytest.raises(ValueError):
        SimConfig(scheme="coop", n_users=5)                        # odd
    with pytest.raises(ValueError):
        SimConfig(scheme="coop", n_users=4, alpha=2)               # alpha misapplied
    with pytest.raises(ValueError):
        SimConfig(scheme="ir", n_users=4)                          # no rate target
    with pytest.raises(ValueError):
        SimConfig(scheme="static", n_users=4, alpha=2, rate_target=1.0)
    with pytest.raises(ValueError):
        SimConfig(scheme="static", n_users=4, alpha=2, n_groups=2)
    with pytest.raises(ValueError):
        SimConfig(scheme="coop", n_users=4, antennas=2)
    with pytest.raises(ValueError):
        SimConfig(scheme="static", n_users=4, alpha=2, iterations=0)
    with pytest.raises(ValueError):
        SimConfig(scheme="static", n_users=4, alpha=2, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(scheme="turbo", n_users=4)
    cfg = SimConfig(scheme="multigroup-static", n_users=4, alpha=2, n_groups=3)
    assert cfg.coherence_value == 1.0


def test_scaled_coherence_reaches_delay_accounting():
    cfg = SimConfig(
        scheme="static", n_users=16, alpha=1, iterations=200, seed=4,
        coherence=CoherencePolicy.scaled(1.0),
    )
    assert cfg.coherence_value == pytest.approx(1 / math.log(math.log(16)))
    record = simcore.estimate_delay(cfg)
    assert record.delay_mean > 0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_estimates_are_bit_reproducible():
    cfg = SimConfig(scheme="static", n_users=8, alpha=2, iterations=2000, seed=77)
    assert simcore.estimate_throughput(cfg) == simcore.estimate_throughput(cfg)
    assert simcore.estimate_delay(cfg) == simcore.estimate_delay(cfg)
    assert simcore.run_config(cfg) == simcore.run_config(cfg)


def test_distinct_seeds_differ():
    base = dict(scheme="static", n_users=8, alpha=2, iterations=2000)
    a = simcore.estimate_throughput(SimConfig(seed=1, **base))
    b = simcore.estimate_throughput(SimConfig(seed=2, **base))
    assert a.throughput_mean != b.throughput_mean


# ---------------------------------------------------------------------------
# the chunked rate sampler equals per-slot kernel calls on the same stream
# ---------------------------------------------------------------------------

def test_vectorized_static_rates_match_scalar_path(monkeypatch):
    monkeypatch.setattr(simcore, "_CHUNK", 64)          # cross chunk boundaries
    cfg = SimConfig(scheme="static", n_users=6, alpha=2, iterations=300, seed=5)
    vec = simcore._slot_rates(cfg, np.random.default_rng(42))
    rng = np.random.default_rng(42)
    per_slot = [
        schedulers.static_schedule(rng.exponential(1.0, 6), 2, 1.0)
        for _ in range(300)
    ]
    assert np.array_equal(vec, np.array(per_slot))


def test_vectorized_multigroup_rates_match_scalar_path():
    cfg = SimConfig(
        scheme="multigroup-static", n_users=4, alpha=2, n_groups=3, iterations=200, seed=6
    )
    vec = simcore._slot_rates(cfg, np.random.default_rng(43))
    rng = np.random.default_rng(43)
    per_slot = [
        schedulers.multigroup_static_schedule(rng.exponential(1.0, (3, 4)), 2, 1.0)
        for _ in range(200)
    ]
    assert np.array_equal(vec, np.array(per_slot))


def test_vectorized_chisquare_rates_match_scalar_path():
    cfg = SimConfig(scheme="static", n_users=4, alpha=1, antennas=2, iterations=150, seed=7)
    vec = simcore._slot_rates(cfg, np.random.default_rng(44))
    rng = np.random.default_rng(44)
    per_slot = [
        schedulers.static_schedule(rng.exponential(1.0, (4, 2)).mean(axis=1), 1, 1.0)
        for _ in range(150)
    ]
    assert np.array_equal(vec, np.array(per_slot))


# ---------------------------------------------------------------------------
# estimator correctness against analytics
# ---------------------------------------------------------------------------

def test_static_throughput_matches_closed_form():
    cfg = SimConfig(scheme="static", n_users=4, alpha=2, iterations=30000, seed=2024)
    record = simcore.estimate_throughput(cfg)
    closed = analytic.static_throughput_closed_form(4, 2, 1.0)
    assert record.analytic_throughput == pytest.approx(closed, rel=1e-6)
    assert abs(record.throughput_mean - closed) < max(3 * record.throughput_se, 1e-3 * closed)


def test_single_user_throughput_estimate():
    cfg = SimConfig(scheme="static", n_users=1, alpha=1, iterations=10 ** 5, seed=2030)
    record = simcore.estimate_throughput(cfg)
    assert abs(record.throughput_mean - 0.5963473623231941) < 3 * record.throughput_se


def test_multigroup_throughput_matches_quadrature():
    cfg = SimConfig(
        scheme="multigroup-static", n_users=4, alpha=1, n_groups=2, iterations=30000, seed=2025
    )
    record = simcore.estimate_throughput(cfg)
    reference = throughput_reference(4, 1, 1.0, groups=2)
    assert record.analytic_throughput == pytest.approx(reference, rel=1e-6)
    assert abs(record.throughput_mean - reference) < 3 * record.throughput_se + 1e-3 * reference


def test_coop_throughput_two_users_semi_analytic():
    # N=2: per-slot delivered = min(log(1+max(g1,g2)), log(1+u)) with u the
    # single relay gain, so the delivered rate is log(1 + min(max, u))
    def min_cdf(x):
        fmax = (1 - math.exp(-x)) ** 2
        fu = 1 - math.exp(-x)
        return 1 - (1 - fmax) * (1 - fu)

    expected = expected_log1p_reference(1.0, min_cdf)
    cfg = SimConfig(scheme="coop", n_users=2, iterations=40000, seed=2026)
    record = simcore.estimate_throughput(cfg)
    assert abs(record.throughput_mean - expected) < 3 * record.throughput_se + 1e-3 * expected


def test_ir_renewal_reward_identity():
    cfg = SimConfig(scheme="ir", n_users=4, rate_target=0.5, iterations=8000, seed=2027)
    throughput = simcore.estimate_throughput(cfg)
    delay = simcore.estimate_delay(cfg)
    product = throughput.throughput_mean * delay.delay_mean
    target = 4 * 0.5
    rel_se = math.hypot(
        throughput.throughput_se / throughput.throughput_mean,
        delay.delay_se / delay.delay_mean,
    )
    assert abs(product / target - 1.0) <= 3 * rel_se


def test_ir_capped_single_attempt():
    n, target = 3, 0.8
    cfg = SimConfig(
        scheme="ir", n_users=n, rate_target=target, attempt_cap=1, iterations=20000, seed=2028
    )
    delay = simcore.estimate_delay(cfg)
    assert delay.delay_mean == 1.0 and delay.delay_se == 0.0
    throughput = simcore.estimate_throughput(cfg)
    success = math.exp(-n * (math.exp(target) - 1.0))
    expected = n * target * success
    assert abs(throughput.throughput_mean - expected) <= 3 * throughput.throughput_se


def test_ir_vanishing_target_throughput_vanishes():
    cfg = SimConfig(scheme="ir", n_users=4, rate_target=1e-9, iterations=500, seed=2029)
    record = simcore.estimate_throughput(cfg)
    assert record.delay_mean is None
    assert record.throughput_mean == pytest.approx(4e-9, rel=1e-12)


# ---------------------------------------------------------------------------
# the vectorized reductions equal the generator-loop formulas bit for bit
# ---------------------------------------------------------------------------

def _loop_mean_se(values):
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def test_mean_se_equals_loop_formula():
    rng = np.random.default_rng(31)
    samples = [
        rng.exponential(1.0, 500),
        rng.standard_normal(777) * 1e12 + 3e13,
        np.floor(rng.exponential(50.0, 322)) + 1.0,
        rng.pareto(1.1, 400) * 1e18,
        np.array([4.0]),
    ]
    # samples whose SE changes in the last bit when squares are taken as x * x
    # rather than by the libm pow behind a scalar ** 2
    for hexes in (
        ["-0x1.513a0671d147bp-8", "0x1.2a3e6aa82e6a8p-12", "-0x1.69045ab18298bp-10"],
        ["0x1.3841813659215p+2", "-0x1.3db135ec8e311p+4", "0x1.94245e30d87adp+5",
         "-0x1.81e0fde687be3p+6", "0x1.1dbfe0bf9c796p+2"],
    ):
        samples.append(np.array([float.fromhex(h) for h in hexes]))
    for values in samples:
        assert simcore._mean_se(values) == _loop_mean_se(values)


def test_capped_ir_throughput_se_equals_loop_formula():
    cfg = SimConfig(
        scheme="ir", n_users=3, rate_target=1.0, attempt_cap=2, iterations=3000, seed=2030
    )
    record = simcore.estimate_throughput(cfg)
    taus, decoded = queueing.ir_renewal_cycle(
        3, 1.0, 1.0, 2, simcore._rng_for(cfg.seed, 0), runs=cfg.iterations
    )
    taus, decoded = taus.astype(float), decoded.astype(float)
    iters = cfg.iterations
    tau_mean, tau_se = _loop_mean_se(taus)
    ok_mean, ok_se = _loop_mean_se(decoded)
    cov = math.fsum(
        (decoded[i] - ok_mean) * (taus[i] - tau_mean) for i in range(iters)
    ) / (iters - 1) / iters
    rel_var = (ok_se / ok_mean) ** 2 + (tau_se / tau_mean) ** 2 - 2 * cov / (ok_mean * tau_mean)
    mean = 3 * 1.0 * ok_mean / tau_mean
    assert 0 < ok_mean < 1
    assert record.throughput_mean == mean
    assert record.throughput_se == mean * math.sqrt(max(rel_var, 0.0))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_reproducible_and_append_stable():
    base = SimConfig(scheme="static", n_users=2, alpha=2, iterations=500, seed=9)
    first = simcore.run_sweep(base, "N", [2, 4, 8])
    again = simcore.run_sweep(base, "N", [2, 4, 8])
    assert first == again
    assert len(first) == 3
    short = simcore.run_sweep(base, "N", [2, 4])
    assert short == first[:2]
    seeds = [cfg.seed for cfg, _ in first]
    assert len(set(seeds)) == 3


def test_sweep_alpha_over_divisors():
    base = SimConfig(scheme="static", n_users=12, alpha=1, iterations=200, seed=10)
    results = simcore.run_sweep(base, "alpha", [1, 2, 3, 4, 6, 12])
    assert len(results) == 6
    assert [cfg.alpha for cfg, _ in results] == [1, 2, 3, 4, 6, 12]


def test_sweep_antennas_improves_worst_user():
    base = SimConfig(scheme="static", n_users=8, alpha=1, iterations=20000, seed=11)
    results = simcore.run_sweep(base, "L", [1, 2, 4])
    means = [rec.throughput_mean for _, rec in results]
    assert means[0] < means[1] < means[2]
    for _, rec in results:
        assert abs(rec.throughput_mean - rec.analytic_throughput) < 4 * rec.throughput_se


def test_antennas_shorten_static_delay():
    # throughput and delay draw through the same antenna law
    base = dict(scheme="static", n_users=8, alpha=1, packet_nats=3.0, iterations=3000, seed=11)
    one = simcore.estimate_delay(SimConfig(antennas=1, **base))
    four = simcore.estimate_delay(SimConfig(antennas=4, **base))
    assert one.delay_mean - four.delay_mean > 5 * math.hypot(one.delay_se, four.delay_se)


def test_sweep_rejects_bad_axis_and_value():
    base = SimConfig(scheme="static", n_users=12, alpha=1, iterations=100, seed=12)
    with pytest.raises(ValueError):
        simcore.run_sweep(base, "Q", [1, 2])
    with pytest.raises(ValueError, match="5"):
        simcore.run_sweep(base, "alpha", [5])


# ---------------------------------------------------------------------------
# attached references
# ---------------------------------------------------------------------------

def test_run_config_attaches_references():
    record = simcore.run_config(SimConfig(scheme="static", n_users=4, alpha=2, iterations=300, seed=13))
    assert record.analytic_throughput == pytest.approx(
        analytic.static_throughput_closed_form(4, 2, 1.0), rel=1e-6
    )
    assert record.predicted_scaling_value == 4.0           # median law: Theta(N)
    assert record.delay_mean is not None and record.delay_se >= 0

    ir_record = simcore.run_config(
        SimConfig(scheme="ir", n_users=4, rate_target=1.0, iterations=300, seed=14)
    )
    assert ir_record.analytic_throughput is None
    assert ir_record.predicted_scaling_value == pytest.approx(
        analytic.predicted_scaling("ir", "throughput", 4)
    )

    coop_record = simcore.run_config(SimConfig(scheme="coop", n_users=4, iterations=300, seed=15))
    assert coop_record.predicted_scaling_value == 4.0
    assert coop_record.analytic_throughput is None
