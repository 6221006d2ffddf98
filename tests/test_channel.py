import math

import numpy as np
import pytest

from mcastsim import channel
from mcastsim.channel import CoherencePolicy

from oracles import ks_distance


def test_rayleigh_reproducible_for_fixed_seed():
    a = channel.draw_gains(3, 1, np.random.default_rng(7))
    b = channel.draw_gains(3, 1, np.random.default_rng(7))
    assert a.shape == (3,)
    assert np.all(a >= 0)
    assert np.array_equal(a, b)


def test_rayleigh_unit_mean():
    draws = channel.draw_gains(10 ** 6, 1, np.random.default_rng(11))
    assert abs(draws.mean() - 1.0) < 0.01


def test_rayleigh_cdf_point():
    draws = channel.draw_gains(10 ** 6, 1, np.random.default_rng(12))
    empirical = np.mean(draws <= 0.5)
    assert abs(empirical - (1 - math.exp(-0.5))) < 0.005


def test_rayleigh_ks_distance():
    draws = channel.draw_gains(10 ** 5, 1, np.random.default_rng(13))
    assert ks_distance(draws, lambda x: 1 - math.exp(-x)) < 0.01


def test_rayleigh_rejects_empty():
    with pytest.raises(ValueError):
        channel.draw_gains(0, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        channel.draw_gains((3, 0), 2, np.random.default_rng(0))


def test_chisquare_single_antenna_matches_rayleigh_stream():
    # one antenna: the antenna mean of a single exponential, same stream
    a = channel.draw_gains(1000, 1, np.random.default_rng(21))
    b = np.random.default_rng(21).exponential(1.0, (1000, 1)).mean(axis=1)
    assert np.array_equal(a, b)


def test_chisquare_two_antenna_cdf_point():
    draws = channel.draw_gains(10 ** 6, 2, np.random.default_rng(22))
    empirical = np.mean(draws <= 1.0)
    assert abs(empirical - (1 - 3 * math.exp(-2))) < 0.005


def test_chisquare_four_antenna_unit_mean():
    draws = channel.draw_gains(10 ** 6, 4, np.random.default_rng(23))
    assert abs(draws.mean() - 1.0) < 0.01


def test_chisquare_rejects_zero_antennas():
    with pytest.raises(ValueError):
        channel.draw_gains(10, 0, np.random.default_rng(0))


def test_interuser_shape_and_diagonal():
    gains = channel.draw_interuser_gains(2, np.random.default_rng(31))
    assert gains.shape == (2, 2)
    assert gains[0, 0] == 0.0 and gains[1, 1] == 0.0
    assert gains[0, 1] > 0 and gains[1, 0] > 0
    again = channel.draw_interuser_gains(2, np.random.default_rng(31))
    assert np.array_equal(gains, again)


def test_interuser_offdiagonal_unit_mean():
    rng = np.random.default_rng(32)
    total, count = 0.0, 0
    for _ in range(1000):
        m = channel.draw_interuser_gains(32, rng)
        off = m[~np.eye(32, dtype=bool)]
        total += off.sum()
        count += off.size
    assert abs(total / count - 1.0) < 0.01


def test_interuser_directions_independent():
    rng = np.random.default_rng(33)
    fwd = np.empty(4000)
    back = np.empty(4000)
    for i in range(4000):
        m = channel.draw_interuser_gains(3, rng)
        fwd[i], back[i] = m[0, 1], m[1, 0]
    corr = np.corrcoef(fwd, back)[0, 1]
    assert abs(corr) < 0.05
    assert not np.allclose(fwd, back)


def test_interuser_rejects_single_user():
    with pytest.raises(ValueError):
        channel.draw_interuser_gains(1, np.random.default_rng(0))


def test_coherence_fixed_is_verbatim():
    policy = CoherencePolicy.fixed(1.0)
    for n, g in ((1, 1), (10, 1), (1000, 50)):
        assert channel.coherence_interval(policy, n, g) == 1.0


def test_coherence_scaled_values():
    policy = CoherencePolicy.scaled(1.0)
    assert channel.coherence_interval(policy, 16, 1) == pytest.approx(
        1.0 / math.log(math.log(16)), abs=1e-15
    )
    assert channel.coherence_interval(policy, 10 ** 6, 1) == pytest.approx(
        1.0 / math.log(math.log(10 ** 6)), abs=1e-15
    )
    # small populations are floored rather than blowing up
    assert channel.coherence_interval(policy, 2, 1) == channel.coherence_interval(policy, 16, 1)


def test_coherence_scaled_nonincreasing():
    policy = CoherencePolicy.scaled(2.0)
    values = [channel.coherence_interval(policy, n, 1) for n in (16, 32, 128, 4096, 10 ** 6)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


def test_coherence_rejects_nonpositive():
    with pytest.raises(ValueError):
        CoherencePolicy.fixed(0.0)
    with pytest.raises(ValueError):
        CoherencePolicy.scaled(-1.0)


def test_draw_gains_batch_shapes():
    # a batch of slots consumes the generator like one draw per slot
    batch = channel.draw_gains((5, 2, 4), 3, np.random.default_rng(41))
    rng = np.random.default_rng(41)
    per_slot = [channel.draw_gains((2, 4), 3, rng) for _ in range(5)]
    assert batch.shape == (5, 2, 4)
    assert np.array_equal(batch, np.stack(per_slot))

    inter = channel.draw_interuser_gains(4, np.random.default_rng(42), (5, 2))
    rng = np.random.default_rng(42)
    per_slot = [[channel.draw_interuser_gains(4, rng) for _ in range(2)] for _ in range(5)]
    assert inter.shape == (5, 2, 4, 4)
    assert np.array_equal(inter, np.array(per_slot))
    assert np.all(np.diagonal(inter, axis1=-2, axis2=-1) == 0.0)
