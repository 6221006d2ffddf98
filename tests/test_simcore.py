import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from mcastsim import analytic, channel, cli, queueing, schedulers, simcore
from mcastsim.channel import CoherencePolicy
from mcastsim.simcore import MetricsRecord, SimConfig

from oracles import (
    antenna_order_stat_sf_sum,
    coop_rate_cdf,
    coop_throughput,
    expected_log1p_reference,
    fixed_fraction_iid_se,
    ir_expected_attempts,
    renewal_expected_hits,
    renewal_hit_pmf,
    throughput_reference,
)


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
        SimConfig(scheme="ir", n_users=0, rate_target=1.0)         # no users
    with pytest.raises(ValueError):
        SimConfig(scheme="static", n_users=4, alpha=2, rate_target=1.0)
    with pytest.raises(ValueError):
        SimConfig(scheme="static", n_users=4, alpha=2, n_groups=2)
    with pytest.raises(ValueError):
        SimConfig(scheme="coop", n_users=4, antennas=2)
    with pytest.raises(ValueError):
        SimConfig(scheme="static", n_users=4, alpha=2, antennas=0)
    with pytest.raises(ValueError):
        SimConfig(scheme="static", n_users=4, alpha=2, packet_nats=-1.0)
    with pytest.raises(ValueError):
        SimConfig(scheme="static", n_users=4, alpha=2, iterations=0)
    with pytest.raises(ValueError):
        SimConfig(scheme="static", n_users=4, alpha=2, seed=-1)
    with pytest.raises(ValueError):
        SimConfig(scheme="turbo", n_users=4)
    cfg = SimConfig(scheme="multigroup-static", n_users=4, alpha=2, n_groups=3)
    assert cfg.coherence.interval(cfg.n_users * cfg.n_groups) == 1.0


@pytest.mark.parametrize("settings", [
    dict(scheme="static", alpha=2), dict(scheme="coop"),
], ids=["static", "coop"])
def test_single_group_scheme_names_its_multigroup_variant(settings):
    with pytest.raises(ValueError, match=f"use multigroup-{settings['scheme']}$"):
        SimConfig(n_users=4, n_groups=2, **settings)


def test_ir_takes_one_group():
    # there is no multigroup ir scheme to point to
    with pytest.raises(ValueError, match="^ir takes one group$"):
        SimConfig(scheme="ir", n_users=4, rate_target=1.0, n_groups=2)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("settings", [
    dict(scheme="static", n_users=2, alpha=1, power=None),
    dict(scheme="coop", n_users=2, packet_nats=None),
    dict(scheme="ir", n_users=2, rate_target=None),
], ids=["power", "packet_nats", "rate_target"])
def test_config_rejects_non_finite_settings(settings, value):
    # an infinite packet or rate target never drains; infinite power gives
    # an infinite mean with a nan standard error
    key = next(k for k, v in settings.items() if v is None)
    with pytest.raises(ValueError, match=key):
        SimConfig(**{**settings, key: value})


def test_scaled_coherence_reaches_delay_accounting():
    cfg = SimConfig(
        scheme="static", n_users=16, alpha=1, iterations=200, seed=4,
        coherence=CoherencePolicy("scaled", 1.0),
    )
    assert cfg.coherence.interval(cfg.n_users) == pytest.approx(1 / math.log(math.log(16)))
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


@st.composite
def _small_configs(draw):
    """Valid configs of every scheme, small enough to run in milliseconds."""
    scheme = draw(st.sampled_from(simcore.SCHEMES))
    fields = dict(
        n_groups=1 if scheme in ("static", "ir", "coop") else draw(st.integers(1, 3)),
        power=draw(st.floats(0.1, 10.0)),
        coherence=CoherencePolicy(draw(st.sampled_from(["fixed", "scaled"])),
                                  draw(st.floats(0.5, 2.0))),
        iterations=draw(st.integers(1, 16)),
        seed=draw(st.integers(0, 2 ** 32)),
    )
    if scheme == "ir":
        n = draw(st.integers(1, 8))
        fields.update(rate_target=draw(st.floats(0.05, 2.0)),
                      attempt_cap=draw(st.none() | st.integers(1, 4)))
    elif scheme.endswith("coop"):
        n = 2 * draw(st.integers(1, 4))
        fields.update(packet_nats=draw(st.floats(0.01, 4.0)))
    else:
        n = draw(st.integers(1, 8))
        fields.update(alpha=draw(st.sampled_from([a for a in range(1, n + 1) if n % a == 0])),
                      antennas=draw(st.integers(1, 3)) if scheme == "static" else 1,
                      packet_nats=draw(st.floats(0.01, 4.0)))
    return SimConfig(scheme=scheme, n_users=n, **fields)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_small_configs())
def test_small_configs_run_finite_and_reproducible(config):
    record = simcore.run_config(config)
    assert math.isfinite(record.throughput_mean) and record.delay_mean >= 1
    assert simcore.run_config(config) == record


# ---------------------------------------------------------------------------
# the batch rate sampler equals per-slot kernel calls on the same stream
# ---------------------------------------------------------------------------

def test_vectorized_static_rates_match_scalar_path():
    vec = schedulers.slot_rates(
        SimConfig(scheme="static", n_users=6, alpha=2), 300, np.random.default_rng(42))
    rng = np.random.default_rng(42)
    per_slot = [
        schedulers.static_schedule(channel.draw_scheduled_gains(6, 4, 1, 1, rng), 1.0)[0]
        for _ in range(300)
    ]
    assert np.array_equal(vec, np.array(per_slot))


def test_sampler_reads_the_row_config(monkeypatch):
    # throughput and both delay engines hand the sampler the row's own
    # config: a coop hit draws the rate of the group that is selected
    seen = []
    sampler = schedulers.slot_rates

    def recording(config, count, rng):
        seen.append(config)
        return sampler(config, count, rng)

    monkeypatch.setattr(schedulers, "slot_rates", recording)
    static = SimConfig(scheme="multigroup-static", n_users=4, alpha=2, n_groups=2, iterations=20)
    coop = SimConfig(scheme="multigroup-coop", n_users=4, n_groups=2, iterations=20)
    calls = [
        (lambda: simcore.estimate_throughput(static), static),
        (lambda: simcore.estimate_throughput(coop), coop),
        (lambda: queueing.tagged_delay_static(static, np.random.default_rng(48)), static),
        (lambda: queueing.tagged_delay_coop(coop, np.random.default_rng(48)), coop),
    ]
    for call, expected in calls:
        seen.clear()
        call()
        assert seen and all(config == expected for config in seen)


def _slot_memory_peak(config) -> int:
    """Peak traced memory of ``slot_rates`` for 1000 slots of ``config``."""
    rng = np.random.default_rng(47)
    tracemalloc.start()
    try:
        schedulers.slot_rates(config, 1000, rng)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _assert_peak_memory_flat_in_n(scheme, **settings):
    """``slot_rates`` for 1000 slots peaks under the same bound at N = 10
    and N = 1000: a slot draws one value per group (under cooperation,
    also one relay gain or, at N = 10, five relay sums), never its N
    gains or an N x N pair-gain matrix."""
    for n in (10, 1000):
        config = SimConfig(scheme=scheme, n_users=n, **settings)
        peak = _slot_memory_peak(config)
        # a few arrays of 1000 floats per group (25 to 60 kB); drawing N
        # gains per slot and partitioning them peaks near 170 kB at N = 10
        # and 8.4 MB at N = 1000
        assert peak < 100_000 * config.n_groups, (n, peak)


@pytest.mark.parametrize("antennas", [1, 2])
def test_static_slot_memory_is_flat_in_n(antennas):
    # static slots hold O(G) values at every N and antenna count
    _assert_peak_memory_flat_in_n("static", alpha=2, antennas=antennas)


def test_multigroup_coop_slot_memory_is_flat_in_n():
    # the same bound per group holds for multigroup cooperation
    _assert_peak_memory_flat_in_n("multigroup-coop", n_groups=5)


def test_coop_slot_memory_is_flat_in_n():
    # the relay stage draws one weakest-relay gain per slot, not N/2 sums
    relay = channel.draw_interuser_gains(1000, (1000,), np.random.default_rng(49))
    assert relay.shape == (1000,)
    _assert_peak_memory_flat_in_n("coop")


@pytest.mark.parametrize("scheme, groups", [("coop", 1), ("multigroup-coop", 5)])
def test_coop_slot_memory_holds_at_most_24_relay_sums(scheme, groups):
    # the relay draw holds no relay sums, one ball count and one Gamma
    # variate per slot and group: within the flat bound with its table of
    # O(N^2) values built in the call
    for n in (48, 50):
        analytic._ball_count_sf.cache_clear()
        analytic._ball_count_guide.cache_clear()
        peak = _slot_memory_peak(SimConfig(scheme=scheme, n_users=n, n_groups=groups))
        assert peak < 100_000 * groups, (n, peak)


def test_vectorized_multigroup_rates_match_scalar_path():
    vec = schedulers.slot_rates(
        SimConfig(scheme="multigroup-static", n_users=4, alpha=2, n_groups=3), 200,
        np.random.default_rng(43))
    rng = np.random.default_rng(43)
    per_slot = [
        schedulers.multigroup_static_schedule(channel.draw_scheduled_gains(4, 3, 3, 1, rng), 1.0)
        for _ in range(200)
    ]
    assert np.array_equal(vec, np.array(per_slot))


def test_vectorized_chisquare_rates_match_scalar_path():
    vec = schedulers.slot_rates(
        SimConfig(scheme="static", n_users=4, alpha=1, antennas=2), 150, np.random.default_rng(44))
    rng = np.random.default_rng(44)
    per_slot = [
        schedulers.static_schedule(channel.draw_scheduled_gains(4, 1, 1, 2, rng), 1.0)[0]
        for _ in range(150)
    ]
    assert np.array_equal(vec, np.array(per_slot))


def test_single_group_rates_equal_one_group_multigroup_kernels():
    # a single-group config draws a (c, 1) batch and reduces it best-of-1,
    # one rate per slot
    static_config = SimConfig(scheme="static", n_users=6, alpha=3)
    static = schedulers.slot_rates(static_config, 100, np.random.default_rng(45))
    gains = channel.draw_scheduled_gains(6, 5, (100, 1), 1, np.random.default_rng(45))
    assert np.array_equal(static, schedulers.multigroup_static_schedule(gains, 1.0))

    coop = schedulers.slot_rates(SimConfig(scheme="coop", n_users=4), 100, np.random.default_rng(46))
    rng = np.random.default_rng(46)
    median = channel.draw_scheduled_gains(4, 3, (100, 1), 1, rng)
    relay = channel.draw_interuser_gains(4, (100, 1), rng)
    assert np.array_equal(coop, schedulers.cooperative_schedule(median, relay, 4, 1.0).max(axis=-1))
    assert static.shape == coop.shape == (100,)


# ---------------------------------------------------------------------------
# estimator correctness against analytics
# ---------------------------------------------------------------------------

def test_static_throughput_matches_closed_form():
    # 3.6e6 slots put the 1e-3 relative bound at about 4.5 SE
    cfg = SimConfig(scheme="static", n_users=4, alpha=2, iterations=3_600_000, seed=2024)
    record = simcore.estimate_throughput(cfg)
    closed = analytic.static_throughput_closed_form(4, 2, 1.0)
    assert record.analytic_throughput == pytest.approx(closed, rel=1e-6)
    assert abs(record.throughput_mean - closed) < max(3 * record.throughput_se, 1e-3 * closed)


def test_single_user_throughput_estimate():
    cfg = SimConfig(scheme="static", n_users=1, alpha=1, iterations=10 ** 5, seed=2030)
    record = simcore.estimate_throughput(cfg)
    # the exact E[log(1 + g)] = e E1(1) for one unit exponential gain
    assert abs(record.throughput_mean - 0.5963473623231941) < 4.5 * record.throughput_se


def test_multigroup_throughput_matches_quadrature():
    cfg = SimConfig(
        scheme="multigroup-static", n_users=4, alpha=1, n_groups=2, iterations=20_000, seed=2025
    )
    record = simcore.estimate_throughput(cfg)
    reference = throughput_reference(4, 1, 1.0, groups=2)
    assert record.analytic_throughput == pytest.approx(reference, rel=1e-6)
    assert abs(record.throughput_mean - reference) < 4.5 * record.throughput_se


# ---------------------------------------------------------------------------
# the control-variate throughput estimate
# ---------------------------------------------------------------------------

def _rated_law(config):
    return (config.n_users, config.alpha, config.power, config.n_groups, config.antennas)


@pytest.mark.parametrize("scheme, alpha, groups, antennas", [
    *((scheme, alpha, groups, antennas)
      for alpha in (1, 2, 12) for antennas in (1, 2)
      for scheme, groups in (("static", 1), ("multigroup-static", 5))),
    ("coop", None, 1, 1), ("multigroup-coop", None, 5, 1),
])
def test_control_mean_is_its_exact_mean(scheme, alpha, groups, antennas):
    # a control variate hides a sampler error that moves the rate and the
    # gain together, so the control's own plain mean is held to its exact
    # mean: 200,000 slots put every gain scaled by 1.02 at 9 SE or more
    config = SimConfig(scheme=scheme, n_users=12, alpha=alpha, n_groups=groups,
                       antennas=antennas, power=1.5)
    rates = schedulers.slot_rates(config, 200_000, np.random.default_rng(560 + (alpha or 0)))
    controls = np.expm1(rates) / config.power
    _, mean_c, mean_cc, _, _ = analytic._rated_gain_moments(*_rated_law(config))
    se = math.sqrt((mean_cc - mean_c ** 2) / controls.size)
    assert abs(controls.mean() - mean_c) <= 4.5 * se, (controls.mean() - mean_c) / se


@pytest.mark.parametrize("scheme, n, alpha, groups, iterations", [
    ("static", 2, 1, 1, 500), ("static", 12, 1, 1, 500), ("static", 12, 12, 1, 500),
    ("multigroup-static", 4, 2, 5, 300), ("multigroup-static", 10, 1, 5, 300),
    ("multigroup-static", 10, 10, 5, 300), ("coop", 2, None, 1, 500),
    ("multigroup-coop", 4, None, 5, 300),
])
def test_control_variate_throughput_se_is_exact_and_smaller(scheme, n, alpha, groups, iterations):
    # the recipe rows report an exact SE.  Over 1000 seeds the RMS of z
    # against the exact throughput, the sd of 1000 unit normals about 0,
    # lies in its chi-square band of probability 0.999, and the mean of z
    # within 0.1 (3 of its SEs)
    config = SimConfig(scheme=scheme, n_users=n, alpha=alpha, n_groups=groups,
                       iterations=iterations)
    records = [simcore.estimate_throughput(replace(config, seed=seed)) for seed in range(1000)]
    z = np.array([(r.throughput_mean - r.analytic_throughput) / r.throughput_se for r in records])
    low, high = np.sqrt(stats.chi2.ppf([0.0005, 0.9995], z.size) / z.size)
    assert low <= math.sqrt(np.mean(z ** 2)) <= high, z
    assert abs(z.mean()) <= 0.1
    se = records[0].throughput_se
    assert all(r.throughput_se == se for r in records)
    if alpha is not None:
        # at least 3 times below the exact SE of as many i.i.d. slots
        # (4.9 to 16 measured)
        assert 3 * se <= fixed_fraction_iid_se(n, alpha, 1.0, groups, iterations)
    # the residual sample SD of 10^6 slots lies within 4 % of the exact one:
    # a sampler error in the spread of the gains alone moves it, while the
    # means stay exact; the residuals' kurtosis reaches 220 at alpha = 1,
    # where 4 % is about 5 SDs of the sample SD
    mean_r, mean_c, mean_cc, mean_rc, _ = analytic._rated_gain_moments(*_rated_law(config))
    beta = (mean_rc - mean_r * mean_c) / (mean_cc - mean_c ** 2)
    rng = np.random.default_rng(570 + n + groups)
    rates = np.concatenate([schedulers.slot_rates(config, 200_000, rng) for _ in range(5)])
    residual_sd = (rates - beta * np.expm1(rates)).std(ddof=1)
    exact_sd = se / (n / (alpha or 2)) * math.sqrt(iterations)
    assert abs(residual_sd / exact_sd - 1) <= 0.04, residual_sd / exact_sd


@pytest.mark.parametrize("power", [1e-12, 1e-6])
@pytest.mark.parametrize("scheme, n, alpha", [("static", 1000, 2), ("coop", 4, None)])
def test_control_variate_se_stays_positive_at_tiny_power(scheme, n, alpha, power):
    # R is nearly linear in C at small P, and its residual variance from the
    # raw moments cancels to 0 or below; the SE is held at the moments' error
    record = simcore.estimate_throughput(SimConfig(
        scheme=scheme, n_users=n, alpha=alpha, power=power, iterations=500, seed=580))
    z = (record.throughput_mean - record.analytic_throughput) / record.throughput_se
    assert math.isfinite(z) and abs(z) <= 4.5, z


# ---------------------------------------------------------------------------
# the delay and IR estimates on the Wald control
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme, settings", [
    ("static", dict(n_users=6, alpha=1)), ("static", dict(n_users=6, alpha=2)),
    ("static", dict(n_users=6, alpha=6)),
    ("multigroup-static", dict(n_users=4, alpha=2, n_groups=5)),
    ("coop", dict(n_users=6)), ("multigroup-coop", dict(n_users=4, n_groups=5)),
    ("ir", dict(n_users=4, rate_target=1.0)),
    ("ir", dict(n_users=4, rate_target=1.0, attempt_cap=2)),
], ids=lambda value: value if isinstance(value, str) else "-".join(map(str, value.values())))
def test_wald_control_has_mean_zero(scheme, settings):
    # a control variate hides a sampler error, so each engine's control is
    # held to its exact mean 0 on its own: 100,000 runs put every hit rate
    # scaled by 1.02 at 20 SE or more
    config = SimConfig(scheme=scheme, iterations=100_000, **settings)
    rng = np.random.default_rng(590)
    if scheme == "ir":
        control = queueing.ir_renewal_cycle(config, rng)[2]
    elif config.family == "coop":
        control = queueing.tagged_delay_coop(config, rng)[1]
    else:
        control = queueing.tagged_delay_static(config, rng)[1]
    se = control.std(ddof=1) / math.sqrt(control.size)
    assert abs(control.mean()) <= 4.5 * se, control.mean() / se


def _static_rate_cdf(n, alpha, power):
    """CDF of the fixed-fraction rate log1p(P X), X the gain at ascending
    position N - N/alpha + 1 of N unit exponentials."""
    def cdf(u):
        return stats.binom.sf(n - n // alpha, n, -np.expm1(-np.expm1(u) / power))
    return cdf


def _alpha_2_delay(n, power):
    """E[T] at alpha = 2 and a unit packet: the engine's E[T | K] summed over
    the product law of the two coupled queues' needs."""
    pmf = renewal_hit_pmf(1.0, _static_rate_cdf(n, 2, power))
    needs = np.stack(np.meshgrid(*2 * [np.arange(1, pmf.size + 1)], indexing="ij"), -1)
    picks = analytic.coupon_collector_expected_picks(math.comb(n, n // 2), needs.reshape(-1, 2))
    return math.fsum((np.outer(pmf, pmf).ravel() * picks).tolist())


@pytest.mark.parametrize("kind, config, exact", [
    *(pytest.param("delay", SimConfig(scheme="static", n_users=n, alpha=1, iterations=500),
                   lambda n=n: renewal_expected_hits(1.0, _static_rate_cdf(n, 1, 1.0)),
                   id=f"static-1-{n}") for n in (2, 12)),
    pytest.param("delay", SimConfig(scheme="static", n_users=4, alpha=2, iterations=500),
                 lambda: _alpha_2_delay(4, 1.0), id="static-2-4"),
    pytest.param("delay", SimConfig(scheme="coop", n_users=8, iterations=500),
                 lambda: renewal_expected_hits(1.0, coop_rate_cdf(8, 1, 1.0)), id="coop-8"),
    pytest.param("delay", SimConfig(scheme="ir", n_users=8, rate_target=1.0, iterations=500),
                 lambda: ir_expected_attempts(8, 1.0, 1.0), id="ir-delay-8"),
    pytest.param("throughput", SimConfig(scheme="ir", n_users=8, rate_target=1.0, iterations=500),
                 lambda: 8 * 1.0 / ir_expected_attempts(8, 1.0, 1.0), id="ir-throughput-8"),
])
def test_wald_controlled_se_is_honest(kind, config, exact):
    # over 1000 seeds at recipe sizes, z against the exact delay (Q E[K]
    # with Q = 1, or the exact E[T] at alpha = 2) or IR throughput has mean
    # within 0.1 (3 of its SEs), RMS in its chi-square band of probability
    # 0.999, and no |z| beyond 4.5: the fitted beta and the residual SE
    # neither bias z nor thin its tails at 500 runs
    reference = exact()
    estimate = simcore.estimate_delay if kind == "delay" else simcore.estimate_throughput
    records = [estimate(replace(config, seed=seed)) for seed in range(1000)]
    z = np.array([(getattr(r, f"{kind}_mean") - reference) / getattr(r, f"{kind}_se")
                  for r in records])
    low, high = np.sqrt(stats.chi2.ppf([0.0005, 0.9995], z.size) / z.size)
    assert low <= math.sqrt(np.mean(z ** 2)) <= high, z
    assert abs(z.mean()) <= 0.1 and np.abs(z).max() <= 4.5, (z.mean(), np.abs(z).max())


def test_coop_throughput_two_users_semi_analytic():
    # N=2: per-slot delivered = min(log(1+max(g1,g2)), log(1+u)) with u the
    # single relay gain, so the delivered rate is log(1 + min(max, u))
    def min_cdf(x):
        fmax = (1 - math.exp(-x)) ** 2
        fu = 1 - math.exp(-x)
        return 1 - (1 - fmax) * (1 - fu)

    expected = expected_log1p_reference(1.0, min_cdf)
    # 10**6 slots put the bound at about 4.5 SE
    cfg = SimConfig(scheme="coop", n_users=2, iterations=10 ** 6, seed=2026)
    record = simcore.estimate_throughput(cfg)
    assert abs(record.throughput_mean - expected) < 3 * record.throughput_se + 1e-3 * expected


def test_ir_renewal_reward_identity():
    # one set of cycles gives both metrics, so throughput x delay = N Rbar
    # holds by construction; each metric is held to the exact E[tau]
    cfg = SimConfig(scheme="ir", n_users=4, rate_target=0.5, iterations=8000, seed=2027)
    record = simcore.run_config(cfg)
    target = 4 * 0.5
    assert record.throughput_mean * record.delay_mean == pytest.approx(target, rel=1e-12)
    assert record.throughput_se / record.throughput_mean == pytest.approx(
        record.delay_se / record.delay_mean, rel=1e-12)
    attempts = ir_expected_attempts(4, 0.5, 1.0)
    assert abs(record.delay_mean - attempts) <= 4.5 * record.delay_se
    assert abs(record.throughput_mean - target / attempts) <= 4.5 * record.throughput_se


@pytest.mark.parametrize("cap", [None, 3])
def test_ir_row_runs_one_set_of_cycles(monkeypatch, cap):
    calls = []
    real = queueing.ir_renewal_cycle

    def counted(config, rng):
        calls.append(config)
        return real(config, rng)

    monkeypatch.setattr(queueing, "ir_renewal_cycle", counted)
    cfg = SimConfig(scheme="ir", n_users=4, rate_target=1.0, attempt_cap=cap,
                    iterations=300, seed=2032)
    record = simcore.run_config(cfg)
    assert calls == [cfg]
    # the public delay estimator reports the row's delay fields bit for bit
    delay = simcore.estimate_delay(cfg)
    assert (delay.delay_mean, delay.delay_se) == (record.delay_mean, record.delay_se)
    assert delay.throughput_mean is None


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


def test_capped_ir_single_iteration_has_zero_se():
    # one cycle has no covariance to estimate, as one sample has no variance
    cfg = SimConfig(
        scheme="ir", n_users=2, rate_target=0.01, attempt_cap=3, iterations=1, seed=2031
    )
    record = simcore.estimate_throughput(cfg)
    assert record.throughput_mean > 0
    assert record.throughput_se == 0.0


def test_ir_vanishing_target_throughput_vanishes():
    cfg = SimConfig(scheme="ir", n_users=4, rate_target=1e-9, iterations=500, seed=2029)
    record = simcore.estimate_throughput(cfg)
    # every cycle decodes on its first attempt
    assert (record.delay_mean, record.delay_se) == (1.0, 0.0)
    assert record.throughput_mean == pytest.approx(4e-9, rel=1e-12)


# ---------------------------------------------------------------------------
# one draw per slot: a queue row's throughput slots head its delay engine's
# first round
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("antennas", [1, 2, 3])
@pytest.mark.parametrize("alpha", [1, 2, 6])      # ascending positions 1, 4 and N = 6
@pytest.mark.parametrize("scheme, groups", [("static", 1), ("multigroup-static", 5)])
def test_static_sampler_is_chunk_invariant(scheme, groups, alpha, antennas):
    # the head of a first round and its rest are the values one call for the
    # whole round draws, bit for bit
    config = SimConfig(scheme=scheme, n_users=6, alpha=alpha, n_groups=groups,
                       antennas=antennas, iterations=1)
    for first, second in ((1, 1), (1, 6), (7, 5), (40, 80)):
        whole = schedulers.slot_rates(config, first + second, np.random.default_rng(first))
        rng = np.random.default_rng(first)
        parts = np.concatenate([schedulers.slot_rates(config, first, rng),
                                schedulers.slot_rates(config, second, rng)])
        assert parts.tobytes() == whole.tobytes()


def _counted_slot_rates(monkeypatch):
    """Route every slot_rates call through a counter; returns the list of
    the counts drawn, in order."""
    counts, real = [], schedulers.slot_rates

    def counted(config, count, rng):
        counts.append(count)
        return real(config, count, rng)

    monkeypatch.setattr(schedulers, "slot_rates", counted)
    return counts


@pytest.mark.parametrize("config", [
    SimConfig(scheme="coop", n_users=2, iterations=400, seed=61),
    SimConfig(scheme="coop", n_users=8, iterations=400, seed=62, packet_nats=3.0),
    SimConfig(scheme="multigroup-coop", n_users=6, n_groups=3, iterations=400, seed=63),
], ids=lambda config: f"{config.scheme}-N{config.n_users}")
def test_coop_head_is_the_whole_first_round(config, monkeypatch):
    # the cooperative sampler is not chunk-invariant (its Beta, uniform and
    # Gamma draws interleave), so its head must be a whole round: one rate
    # per run, with nothing left for the round to draw
    whole = schedulers.slot_rates(config, 20, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    parts = np.concatenate([schedulers.slot_rates(config, 8, rng),
                            schedulers.slot_rates(config, 12, rng)])
    assert parts.tobytes() != whole.tobytes()
    counts = _counted_slot_rates(monkeypatch)
    simcore.estimate_delay(config)
    row = counts[:]
    assert row[0] == config.iterations
    # each later call is a round of the runs still short, never an empty one
    assert all(0 < later <= earlier for earlier, later in zip(row, row[1:]))
    # one queue per run, hit once in G slots: each run's K hits drew one
    # rate each, the first of them in the head (the engine alone, on a
    # fresh stream, draws the head's values as its first round)
    delays, _ = queueing.tagged_delay_coop(config, simcore._rng_for(config.seed))
    assert sum(row) == round(delays.sum() / config.n_groups)


_ROW_CONFIGS = [
    SimConfig(scheme="static", n_users=6, alpha=1, iterations=300, seed=71),
    SimConfig(scheme="static", n_users=6, alpha=2, iterations=300, seed=72),
    SimConfig(scheme="static", n_users=6, alpha=6, antennas=2, iterations=300, seed=73),
    SimConfig(scheme="multigroup-static", n_users=6, alpha=3, n_groups=2, antennas=2,
              iterations=300, seed=74),
    SimConfig(scheme="coop", n_users=6, iterations=300, seed=75),
    SimConfig(scheme="multigroup-coop", n_users=4, n_groups=3, iterations=300, seed=76),
    SimConfig(scheme="ir", n_users=4, rate_target=1.0, iterations=300, seed=77),
    SimConfig(scheme="ir", n_users=4, rate_target=1.0, attempt_cap=2, iterations=300, seed=78),
]


def _row_id(config):
    return f"{config.scheme}-a{config.alpha}-L{config.antennas}-cap{config.attempt_cap}"


@pytest.mark.parametrize("config", _ROW_CONFIGS, ids=_row_id)
def test_row_creates_one_generator(config, monkeypatch):
    made, real = [], simcore._rng_for

    def counted(seed):
        made.append(seed)
        return real(seed)

    monkeypatch.setattr(simcore, "_rng_for", counted)
    simcore.run_config(config)
    assert made == [config.seed]


@pytest.mark.parametrize("config", [c for c in _ROW_CONFIGS if c.family != "ir"], ids=_row_id)
def test_queue_row_draws_each_slot_once(config, monkeypatch):
    counts = _counted_slot_rates(monkeypatch)
    record = simcore.run_config(config)
    # the engine without a head, on a fresh stream, draws the whole first
    # round in one call; by chunk invariance it reads the same values
    engine = queueing.tagged_delay_static if config.family == "static" else queueing.tagged_delay_coop
    row = counts[:]
    delays, control = engine(config, simcore._rng_for(config.seed))
    alone = counts[len(row):]
    width = config.alpha or 1
    assert alone[0] == width * config.iterations
    # the row: the throughput's slots, then the round's remaining (alpha - 1)
    # runs' worth (none at width 1), then the same later rounds
    head = [config.iterations] + ([(width - 1) * config.iterations] if width > 1 else [])
    assert row == head + alone[1:]
    assert (record.delay_mean, record.delay_se) == simcore._mean_se(delays, control)


@pytest.mark.parametrize("config", _ROW_CONFIGS, ids=_row_id)
def test_estimators_agree_with_run_config_on_shared_fields(config):
    row = vars(simcore.run_config(config))
    for estimate in (simcore.estimate_throughput, simcore.estimate_delay):
        fields = {key: value for key, value in vars(estimate(config)).items()
                  if value is not None}
        assert fields and all(row[key] == value for key, value in fields.items()), estimate
    # a queue row's delay record carries every estimate and reference but
    # the growth law, which only run_config attaches
    if config.family != "ir":
        delay = vars(simcore.estimate_delay(config))
        assert [key for key, value in delay.items() if value is None] == ["predicted_scaling_value"]


# ---------------------------------------------------------------------------
# the numpy reductions equal the loop formulas to rounding (O(eps log n))
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
    # short mixed-sign samples
    for hexes in (
        ["-0x1.513a0671d147bp-8", "0x1.2a3e6aa82e6a8p-12", "-0x1.69045ab18298bp-10"],
        ["0x1.3841813659215p+2", "-0x1.3db135ec8e311p+4", "0x1.94245e30d87adp+5",
         "-0x1.81e0fde687be3p+6", "0x1.1dbfe0bf9c796p+2"],
    ):
        samples.append(np.array([float.fromhex(h) for h in hexes]))
    # a control without spread leaves the plain mean
    for values in samples:
        assert simcore._mean_se(values, np.zeros(values.size)) == pytest.approx(
            _loop_mean_se(values), rel=1e-12)


@pytest.mark.parametrize("value", [146.4484126984127, 108.71428571428572, 0.1, 1e300])
@pytest.mark.parametrize("n", [2, 300, 5000])
def test_mean_se_of_identical_values_is_exact(value, n):
    # numpy's mean of n copies of a value can round off it, and a nonzero
    # SE would then come from that rounding alone, and so would a control's
    assert simcore._mean_se(np.full(n, value), np.arange(float(n))) == (value, 0.0)


def test_all_one_hit_row_reports_exact_coupon_mean():
    # a vanishing packet needs one hit per coupled queue in every run, so the
    # row's delay is the coupon mean G C(N, 1) H_N itself, with SE exactly 0
    n, groups = 10, 5
    config = SimConfig(scheme="multigroup-static", n_users=n, alpha=n, n_groups=groups,
                       packet_nats=1e-9, iterations=300)
    record = simcore.estimate_delay(config)
    assert record.delay_se == 0.0
    harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
    assert record.delay_mean == pytest.approx(groups * n * harmonic, rel=1e-12)


@pytest.mark.parametrize("n_users, runs", [(530, 500), (1024, 200)])
def test_delay_mean_and_se_stay_finite_at_large_queue_counts(n_users, runs):
    # static alpha = 2 runs report means of order C(N, N/2), 1.2e158 at
    # N = 530 and 4.5e306 at N = 1024: their sum or squared deviations overflow
    config = SimConfig(scheme="static", n_users=n_users, alpha=2, iterations=runs, seed=1)
    record = simcore.estimate_delay(config)
    assert math.isfinite(record.delay_mean) and math.isfinite(record.delay_se)
    # no run's mean lies below the coupon floor C(N, N/2) H_2
    assert record.delay_mean >= 1.5 * math.comb(n_users, n_users // 2)
    assert 0 < record.delay_se < record.delay_mean


def _loop_controlled_mean_se(values, controls):
    # the regression estimate on a control of exact mean 0, mean(v) - beta
    # mean(c), and the SD of its residuals (ddof 2) over sqrt(n)
    n = len(values)
    v_mean, c_mean = math.fsum(values) / n, math.fsum(controls) / n
    beta = math.fsum((v - v_mean) * (c - c_mean) for v, c in zip(values, controls)) / math.fsum(
        (c - c_mean) ** 2 for c in controls)
    var = math.fsum((v - v_mean - beta * (c - c_mean)) ** 2
                    for v, c in zip(values, controls)) / (n - 2)
    return v_mean - beta * c_mean, math.sqrt(var / n)


def test_controlled_mean_se_equals_loop_formula():
    rng = np.random.default_rng(32)
    controls = rng.standard_normal(600)
    for values in (3.0 * controls + rng.exponential(1.0, 600),
                   (1e300 + 1e298 * controls) * (1 + 1e-3 * rng.standard_normal(600))):
        scale = float(np.abs(values).max())
        mean, se = _loop_controlled_mean_se(values / scale, controls)
        assert simcore._mean_se(values, controls) == pytest.approx(
            (scale * mean, scale * se), rel=1e-12)
    # identical values stay exact; below 3 values or without spread in the
    # control it is the plain mean
    assert simcore._mean_se(np.full(300, 0.1), controls[:300]) == (0.1, 0.0)
    values = rng.exponential(1.0, 600)
    assert simcore._mean_se(values, np.zeros(600)) == pytest.approx(
        _loop_mean_se(values), rel=1e-12)
    assert simcore._mean_se(values[:2], controls[:2]) == pytest.approx(
        _loop_mean_se(values[:2]), rel=1e-12)


def test_capped_ir_throughput_se_equals_loop_formula():
    cfg = SimConfig(
        scheme="ir", n_users=3, rate_target=1.0, attempt_cap=2, iterations=3000, seed=2030
    )
    record = simcore.estimate_throughput(cfg)
    taus, decoded, control = queueing.ir_renewal_cycle(cfg, simcore._rng_for(cfg.seed))
    taus, decoded = taus.astype(float).tolist(), decoded.astype(float).tolist()
    control = control.tolist()
    # decoded and tau each take the same control; the ratio's SE is that
    # of the residual decoded - ratio * tau on it, over the mean of tau
    tau_mean, _ = _loop_controlled_mean_se(taus, control)
    ok_mean, _ = _loop_controlled_mean_se(decoded, control)
    ratio = ok_mean / tau_mean
    _, residual_se = _loop_controlled_mean_se(
        [ok - ratio * tau for ok, tau in zip(decoded, taus)], control)
    assert 0 < ok_mean < 1
    assert record.throughput_mean == pytest.approx(3 * 1.0 * ratio, rel=1e-12)
    assert record.throughput_se == pytest.approx(3 * 1.0 * residual_se / tau_mean, rel=1e-12)


# ---------------------------------------------------------------------------
# sweeps, as the command line expands them
# ---------------------------------------------------------------------------

def _sweep(base: SimConfig, axis: str, values) -> list[tuple[SimConfig, MetricsRecord]]:
    """`mcastsim run --sweep AXIS=values` with base's settings as flags:
    each config the command line expands, with its record."""
    flags = []
    for key in cli._SETTINGS.keys() - {"sweep", "out"}:
        value = getattr(base, cli._field(key))
        if isinstance(value, CoherencePolicy):
            value = f"{value.mode}:{value.value!r}"
        if value is not None:
            flags += [cli._flag(key), repr(value) if isinstance(value, float) else str(value)]
    sweep = f"{axis}={','.join(repr(value) for value in values)}"
    args = cli._build_parser().parse_args(["run", *flags, "--sweep", sweep])
    _, configs = cli._run_settings(args)
    return [(cfg, simcore.run_config(cfg)) for cfg in configs]


def test_sweep_reproducible_and_append_stable():
    base = SimConfig(scheme="static", n_users=2, alpha=2, iterations=500, seed=9)
    first = _sweep(base, "N", [2, 4, 8])
    again = _sweep(base, "N", [2, 4, 8])
    assert first == again
    assert len(first) == 3
    short = _sweep(base, "N", [2, 4])
    assert short == first[:2]
    seeds = [cfg.seed for cfg, _ in first]
    assert len(set(seeds)) == 3


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(base=_small_configs(), axis=st.sampled_from(["N", "P", "S"]), data=st.data())
def test_sweep_reproducible_and_append_stable_property(base, axis, data):
    # N is swept over multiples of the base N, which keep alpha a divisor
    # and cooperation's N even
    if axis == "N":
        value = st.integers(1, 3).map(lambda k: k * base.n_users)
    else:
        value = st.floats(0.1, 10.0) if axis == "P" else st.floats(0.01, 4.0)
    values = data.draw(st.lists(value, min_size=1, max_size=4))
    # a sweep holds at least one point
    kept = data.draw(st.integers(1, len(values)))
    full = _sweep(base, axis, values)
    assert _sweep(base, axis, values) == full
    assert _sweep(base, axis, values[:kept]) == full[:kept]
    assert len({cfg.seed for cfg, _ in full}) == len(values)
    # each point is the base with the swept field and the seed changed
    field = cli._field(cli.SWEEP_AXES[axis])
    assert all(replace(cfg, **{field: getattr(base, field)}, seed=base.seed) == base
               for cfg, _ in full)


def test_sweep_alpha_over_divisors():
    base = SimConfig(scheme="static", n_users=12, alpha=1, iterations=200, seed=10)
    results = _sweep(base, "alpha", [1, 2, 3, 4, 6, 12])
    assert len(results) == 6
    assert [cfg.alpha for cfg, _ in results] == [1, 2, 3, 4, 6, 12]


def test_sweep_antennas_improves_worst_user():
    base = SimConfig(scheme="static", n_users=8, alpha=1, iterations=20000, seed=11)
    results = _sweep(base, "L", [1, 2, 4])
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


@pytest.mark.parametrize("n, alpha, groups, antennas", [(8, 2, 3, 2), (6, 1, 5, 3), (10, 10, 5, 2)])
def test_multigroup_static_takes_antennas(n, alpha, groups, antennas):
    # antennas mean the same for both fixed-fraction schemes: the sampler,
    # the quadrature and the hit budget take G and L together
    pos = n - n // alpha + 1
    integral, _ = integrate.quad(
        lambda x: antenna_order_stat_sf_sum(n, pos, groups, antennas, x) / (1.0 + x),
        0, np.inf, epsabs=1e-15, epsrel=1e-12, limit=300,
    )
    exact = n / alpha * integral
    record = simcore.run_config(SimConfig(
        scheme="multigroup-static", n_users=n, alpha=alpha, n_groups=groups,
        antennas=antennas, iterations=20000, seed=460 + n + groups + antennas,
    ))
    assert record.analytic_throughput == pytest.approx(exact, rel=1e-9)
    assert abs(record.throughput_mean - exact) <= 4.5 * record.throughput_se
    assert math.isfinite(record.delay_mean) and record.delay_mean >= 1
    assert record.predicted_scaling_value is None


def test_sweep_rejects_bad_axis_and_value():
    base = SimConfig(scheme="static", n_users=12, alpha=1, iterations=100, seed=12)
    with pytest.raises(ValueError, match="Q"):
        _sweep(base, "Q", [1, 2])
    with pytest.raises(ValueError, match="5"):
        _sweep(base, "alpha", [5])


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

    ir_config = SimConfig(scheme="ir", n_users=4, rate_target=1.0, iterations=300, seed=14)
    ir_record = simcore.run_config(ir_config)
    assert ir_record.analytic_throughput is None
    assert ir_record.predicted_scaling_value == pytest.approx(
        analytic.throughput_growth_law(ir_config.family, ir_config.n_users)
    )

    coop_record = simcore.run_config(SimConfig(scheme="coop", n_users=4, iterations=300, seed=15))
    assert coop_record.predicted_scaling_value == 4.0
    assert coop_record.analytic_throughput == pytest.approx(coop_throughput(4, 1, 1.0), rel=1e-12)
    # the growth law reads the scheme family: multigroup-coop grows as coop
    multi_record = simcore.run_config(
        SimConfig(scheme="multigroup-coop", n_users=4, n_groups=2, iterations=30, seed=16))
    assert multi_record.predicted_scaling_value == 4.0
