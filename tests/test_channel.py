import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from mcastsim import channel
from mcastsim.channel import CoherencePolicy

from oracles import OrderStatSpec, ks_distance, order_stat_cdf, same_law_p_value

# the largest N/2 whose weakest relay gain is drawn from its ball count
_SWITCH = channel._BALL_COUNT_MAX_HALF


def test_rayleigh_reproducible_for_fixed_seed():
    a = channel.draw_gains(3, np.random.default_rng(7))
    b = channel.draw_gains(3, np.random.default_rng(7))
    assert a.shape == (3,)
    assert np.all(a >= 0)
    assert np.array_equal(a, b)


def test_rayleigh_unit_mean():
    draws = channel.draw_gains(10 ** 6, np.random.default_rng(11))
    assert abs(draws.mean() - 1.0) < 0.01
    # one user's scheduled gain is the user's gain: V ~ Beta(1, 1), -log V
    scheduled = channel.draw_scheduled_gains(1, 1, 10 ** 6, 1, np.random.default_rng(11))
    assert abs(scheduled.mean() - 1.0) < 0.01


def test_rayleigh_cdf_point():
    draws = channel.draw_gains(10 ** 6, np.random.default_rng(12))
    empirical = np.mean(draws <= 0.5)
    assert abs(empirical - (1 - math.exp(-0.5))) < 0.005


def test_rayleigh_ks_distance():
    draws = channel.draw_gains(10 ** 5, np.random.default_rng(13))
    assert ks_distance(draws, lambda x: 1 - math.exp(-x)) < 0.01
    scheduled = channel.draw_scheduled_gains(1, 1, 10 ** 5, 1, np.random.default_rng(13))
    assert ks_distance(scheduled, lambda x: 1 - math.exp(-x)) < 0.01


def test_chisquare_single_antenna_matches_rayleigh_stream():
    # one antenna: Q^-1(1, V) / 1 = -log V, on the same Beta variates
    a = channel.draw_scheduled_gains(5, 2, 1000, 1, np.random.default_rng(21))
    v = np.random.default_rng(21).beta(4, 2, 1000)
    assert np.array_equal(a, -np.log(v))
    assert np.allclose(a, special.gammainccinv(1, v), rtol=1e-12, atol=0)


@pytest.mark.parametrize("n, position, groups", [(4, 1, 1), (4, 4, 1), (6, 1, 5), (6, 6, 5)])
def test_stratified_gain_is_the_best_of_groups_law(n, position, groups):
    # the closed form is the law of the per-group draw followed by the
    # best of G, and the order-statistic CDF to the power G
    seed = 60 + n + position + groups
    drawn = channel.draw_extreme_gains(n, position, groups, 20000, np.random.default_rng(seed))
    reference = channel.draw_scheduled_gains(
        n, position, (20000, groups), 1, np.random.default_rng(seed + 1)).max(axis=-1)
    assert same_law_p_value(drawn, reference) >= 0.01
    spec = OrderStatSpec(n, position, groups)
    assert ks_distance(drawn, lambda x: order_stat_cdf(spec, x)) < 0.015


class _Uniforms:
    """A generator stand-in whose uniforms are the given values."""

    def __init__(self, values):
        self.values = np.array(values)

    def random(self, count):
        return self.values[:count]


@pytest.mark.parametrize("n, position, groups", [(4, 1, 1), (4, 1, 5), (4, 4, 1), (6, 6, 5)])
def test_stratified_gain_is_finite_at_both_ends_of_the_uniform(n, position, groups):
    # U = 0 is the least gain, 0, without a divide warning (which the test
    # settings turn into an error); the largest uniform below 1 gives a
    # finite gain
    drawn = channel.draw_extreme_gains(n, position, groups, 2, _Uniforms([0.0, 1 - 2 ** -53]))
    assert drawn[0] == 0.0 and 0 < drawn[1] < math.inf


def test_chisquare_two_antenna_cdf_point():
    draws = channel.draw_scheduled_gains(1, 1, 10 ** 6, 2, np.random.default_rng(22))
    empirical = np.mean(draws <= 1.0)
    assert abs(empirical - (1 - 3 * math.exp(-2))) < 0.005


def test_chisquare_four_antenna_unit_mean():
    draws = channel.draw_scheduled_gains(1, 1, 10 ** 6, 4, np.random.default_rng(23))
    assert abs(draws.mean() - 1.0) < 0.01
    # the best of three such gains: mean int_0^inf 1 - P(4, 4x)^3 dx
    best = channel.draw_scheduled_gains(3, 3, 10 ** 5, 4, np.random.default_rng(24))
    mean, _ = integrate.quad(lambda x: 1 - special.gammainc(4, 4 * x) ** 3, 0, np.inf)
    assert abs(best.mean() - mean) < 4 * best.std() / math.sqrt(best.size)


def test_interuser_shape_and_reproducibility():
    # one weakest relay gain per batch entry, reproducible from the seed
    gains = channel.draw_interuser_gains(2, (1,), np.random.default_rng(31))
    assert gains.shape == (1,)
    assert gains[0] > 0
    again = channel.draw_interuser_gains(2, (1,), np.random.default_rng(31))
    assert np.array_equal(gains, again)
    assert channel.draw_interuser_gains(6, (4, 3), np.random.default_rng(31)).shape == (4, 3)


def test_interuser_weakest_relay_law():
    # the least of 16 relay sums of 16 unit-mean pair gains: the minimum of
    # 16 Gamma(16, 1) variates, P(Y > y) = Q(16, y)^16
    relay = channel.draw_interuser_gains(32, (16000,), np.random.default_rng(32))
    reference = np.random.default_rng(132).gamma(16, 1.0, (16000, 16)).min(axis=1)
    assert stats.kstest(relay, lambda y: 1 - special.gammaincc(16, y) ** 16).pvalue > 0.001
    assert same_law_p_value(relay, reference) > 0.001
    # at N = 2 the one weak user hears one unit exponential
    single = channel.draw_interuser_gains(2, (16000,), np.random.default_rng(33))
    assert stats.kstest(single, stats.expon.cdf).pvalue > 0.001


@pytest.mark.parametrize("n, draws", [(64, 16000), (1000, 4000)])
def test_interuser_weakest_relay_law_above_the_gamma_minimum(n, draws):
    # from the ball count or by inversion, the relay gain has the law of the
    # least of N/2 Gamma(N/2, 1) sums, P(Y > y) = Q(N/2, y)^(N/2), and the
    # law of that minimum drawn directly
    half = n // 2
    relay = channel.draw_interuser_gains(n, (draws,), np.random.default_rng(n))
    reference = np.random.default_rng(n + 100).gamma(half, 1.0, (draws, half)).min(axis=1)
    assert stats.kstest(relay, lambda y: 1 - special.gammaincc(half, y) ** half).pvalue > 0.001
    assert same_law_p_value(relay, reference) > 0.001


@pytest.mark.parametrize("half", [2, 3, _SWITCH, _SWITCH + 1])
def test_interuser_ball_count_draw_has_the_weakest_relay_law(half):
    # Gamma(T, 1)/m with T the balls thrown into m bins until one holds m, on
    # both sides of the switch to inversion: the least of m Gamma(m, 1) sums
    n, draws = 2 * half, 16000
    relay = channel.draw_interuser_gains(n, (draws,), np.random.default_rng(500 + half))
    reference = np.random.default_rng(600 + half).gamma(half, 1.0, (draws, half)).min(axis=1)
    assert stats.kstest(relay, lambda y: 1 - special.gammaincc(half, y) ** half).pvalue > 0.001
    assert same_law_p_value(relay, reference) > 0.001


def test_interuser_groups_independent():
    # groups draw disjoint pair gains, so their relay gains are independent
    pairs = channel.draw_interuser_gains(4, (4000, 2), np.random.default_rng(33))
    corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
    assert abs(corr) < 0.05
    assert not np.allclose(pairs[:, 0], pairs[:, 1])


def test_coherence_fixed_is_verbatim():
    policy = CoherencePolicy("fixed", 1.0)
    for population in (1, 10, 1000 * 50):
        assert policy.interval(population) == 1.0


def test_coherence_scaled_values():
    policy = CoherencePolicy("scaled", 1.0)
    assert policy.interval(16) == pytest.approx(1.0 / math.log(math.log(16)), abs=1e-15)
    assert policy.interval(10 ** 6) == pytest.approx(
        1.0 / math.log(math.log(10 ** 6)), abs=1e-15
    )
    # populations below N * G = 16 are floored rather than blowing up
    for population in (1, 2, 15):
        assert policy.interval(population) == policy.interval(16)


def test_coherence_scaled_nonincreasing():
    policy = CoherencePolicy("scaled", 2.0)
    values = [policy.interval(n) for n in (16, 32, 128, 4096, 10 ** 6)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


@pytest.mark.parametrize("mode", ["fixed", "scaled"])
def test_coherence_interval_rejects_empty_population(mode):
    with pytest.raises(ValueError, match="population must be at least 1"):
        CoherencePolicy(mode, 1.0).interval(0)


def test_coherence_rejects_nonpositive():
    with pytest.raises(ValueError):
        CoherencePolicy("fixed", 0.0)
    with pytest.raises(ValueError):
        CoherencePolicy("scaled", -1.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_coherence_rejects_non_finite(value):
    with pytest.raises(ValueError, match="finite"):
        CoherencePolicy("fixed", value)
    with pytest.raises(ValueError, match="finite"):
        CoherencePolicy("scaled", value)


def test_draw_gains_batch_shapes():
    # a batch of slots consumes the generator like one draw per slot
    batch = channel.draw_gains((5, 2, 4), np.random.default_rng(41))
    rng = np.random.default_rng(41)
    per_slot = [channel.draw_gains((2, 4), rng) for _ in range(5)]
    assert batch.shape == (5, 2, 4)
    assert np.array_equal(batch, np.stack(per_slot))

    scheduled = channel.draw_scheduled_gains(6, 4, (5, 2), 3, np.random.default_rng(43))
    rng = np.random.default_rng(43)
    per_slot = [channel.draw_scheduled_gains(6, 4, 2, 3, rng) for _ in range(5)]
    assert scheduled.shape == (5, 2)
    assert np.array_equal(scheduled, np.stack(per_slot))

    # a relay batch draws every ball count before any Gamma variate, so it
    # is reproducible from its seed and has the law of per-slot calls, but
    # not their values
    inter = channel.draw_interuser_gains(4, (2000, 2), np.random.default_rng(42))
    assert inter.shape == (2000, 2)
    assert np.array_equal(inter, channel.draw_interuser_gains(4, (2000, 2), np.random.default_rng(42)))
    rng = np.random.default_rng(142)
    per_slot = [[channel.draw_interuser_gains(4, (1,), rng)[0] for _ in range(2)] for _ in range(2000)]
    assert same_law_p_value(inter.ravel(), np.ravel(per_slot)) >= 0.01
