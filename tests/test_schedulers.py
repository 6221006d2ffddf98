import math

import numpy as np
import pytest
from scipy import integrate

from mcastsim import channel, queueing, schedulers
from mcastsim.simcore import SimConfig

from oracles import (
    OrderStatSpec,
    cooperative_rate_from_matrix,
    coop_throughput,
    full_vector_static_rates,
    ks_distance,
    matrix_coop_rates,
    order_stat_cdf,
    same_law_p_value,
)


def _config(scheme, n_users, n_groups=1, **settings):
    """A SimConfig of the scheme's single- or multigroup form."""
    return SimConfig(scheme=scheme if n_groups == 1 else f"multigroup-{scheme}",
                     n_users=n_users, n_groups=n_groups, **settings)


def _ir_config(n_users, rate_target, attempt_cap=None, power=1.0):
    return SimConfig(scheme="ir", n_users=n_users, rate_target=rate_target,
                     attempt_cap=attempt_cap, iterations=1, power=power)


class FixedGains:
    """Stand-in generator whose exponential draws replay the given rows,
    so a renewal cycle can be run on hand-picked gains."""

    def __init__(self, rows):
        self._rows = iter(rows)

    def exponential(self, scale, size):
        return np.asarray(next(self._rows), dtype=float).reshape(size)


# ---------------------------------------------------------------------------
# fixed-fraction scheduler: the kernel rates the scheduled gain; the
# full-vector model (tests/oracles.py) picks it from the N gains
# ---------------------------------------------------------------------------

def test_static_schedule_hand_example():
    # ascending position 3 of (0.1, 0.9, 0.4, 2.0) holds 0.9
    assert full_vector_static_rates([0.1, 0.9, 0.4, 2.0], 2, 1.0) == pytest.approx(math.log(1.9))
    assert schedulers.static_schedule([0.9], 1.0) == pytest.approx([math.log(1.9)], abs=1e-12)
    assert schedulers.static_schedule([0.9, 0.0], 3.0) == pytest.approx([math.log(3.7), 0.0])


def test_static_schedule_worst_and_best_reductions():
    gains = [0.5, 2.0, 0.1, 1.3]
    assert full_vector_static_rates(gains, 1, 1.0) == pytest.approx(math.log1p(0.1))
    assert full_vector_static_rates(gains, 4, 1.0) == pytest.approx(math.log1p(2.0))


def test_static_schedule_breaks_ties_toward_low_index():
    # tied gains rate the slot at the tied value
    tied = pytest.approx(math.log1p(1.0))
    assert full_vector_static_rates([1.0, 1.0, 1.0, 1.0], 2, 1.0) == tied
    assert full_vector_static_rates([0.5, 1.0, 1.0, 0.2], 4, 1.0) == tied
    # the matrix model of cooperation: of two tied users the lower index
    # relays (u[0, 1], not u[1, 0])
    inter = np.array([[0.0, 0.25], [4.0, 0.0]])
    rate = cooperative_rate_from_matrix([1.0, 1.0], inter, 1.0)
    assert rate == pytest.approx(math.log1p(0.25))
    # the kernel orders no users: a tied median still rates stage 1 at the tied value
    assert schedulers.cooperative_schedule([1.0], [0.25], 2, 1.0) == pytest.approx([math.log1p(0.25)])
    assert schedulers.cooperative_schedule([1.0], [4.0], 2, 1.0) == tied


def test_static_schedule_validates_input():
    with pytest.raises(ValueError):
        full_vector_static_rates([1.0, 2.0, 3.0], 2, 1.0)
    with pytest.raises(ValueError):
        full_vector_static_rates([1.0, 2.0], 1, 0.0)
    with pytest.raises(ValueError):
        schedulers.static_schedule([1.0, -2.0], 1.0)
    with pytest.raises(ValueError):
        schedulers.static_schedule([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        schedulers.static_schedule([1.0, np.inf], 1.0)
    with pytest.raises(ValueError):
        schedulers.static_schedule([[1.0, np.nan], [1.0, 2.0]], 1.0)
    with pytest.raises(ValueError):
        schedulers.static_schedule(1.0, 1.0)
    with pytest.raises(ValueError):
        schedulers.multigroup_static_schedule(np.zeros((2, 0)), 1.0)
    with pytest.raises(ValueError, match="divide"):
        _config("static", 6, alpha=4)


@pytest.mark.parametrize("shape", [(1,), (7,), (5, 3), (2, 3, 4)])
@pytest.mark.parametrize("n", [2, 6, 64])
def test_every_rate_is_static_schedule_of_a_gain(shape, n):
    # one rate law: the retransmission step and both cooperative stages are
    # static_schedule of a gain, bit for bit
    rng = np.random.default_rng(40 + n + len(shape))
    gains, relay, acc = (rng.exponential(1.0, shape) for _ in range(3))
    power = 1.7
    # an attempt's gains are (cycles, N): one row per unfinished cycle
    cycles, cycle_acc = gains.reshape(-1, shape[-1]), acc.reshape(-1, shape[-1])
    config = _ir_config(shape[-1], 1.0, power=power)
    assert np.array_equal(schedulers.ir_advance(cycle_acc, config, FixedGains([cycles])),
                          cycle_acc + schedulers.static_schedule(cycles, power))
    assert np.array_equal(
        schedulers.cooperative_schedule(gains, relay, n, power),
        np.minimum(schedulers.static_schedule(gains, power),
                   schedulers.static_schedule(relay, power / (n // 2))),
    )


@pytest.mark.parametrize("power", [0.0, -1.0, math.nan, math.inf])
def test_rate_kernels_reject_power_outside_0_inf(power):
    # an infinite power rates every slot inf; the rule is SimConfig's, so
    # no config that reaches slot_rates carries such a power
    match = "power must be positive and finite"
    with pytest.raises(ValueError, match=match):
        schedulers.static_schedule([1.0], power)
    with pytest.raises(ValueError, match=match):
        schedulers.cooperative_schedule([1.0], [1.0], 2, power)
    for scheme, settings in (("static", {"alpha": 1}), ("coop", {}), ("ir", {"rate_target": 1.0})):
        with pytest.raises(ValueError, match=match):
            _config(scheme, 4, power=power, **settings)


def test_static_rate_distribution_matches_order_statistic():
    n, alpha, power = 6, 3, 1.0
    spec = OrderStatSpec(n_users=n, position=n - n // alpha + 1)
    rates = schedulers.slot_rates(
        _config("static", n, alpha=alpha, power=power), 10 ** 5, np.random.default_rng(515))

    def rate_cdf(r):
        return order_stat_cdf(spec, math.expm1(r) / power)

    assert ks_distance(rates, rate_cdf) < 0.01


def test_static_schedule_scale_invariance():
    gains = np.random.default_rng(99).exponential(1.0, (200, 8))
    base = full_vector_static_rates(gains, 2, 1.0)
    scheduled = channel.draw_scheduled_gains(8, 5, 200, 1, np.random.default_rng(98))
    kernel = schedulers.static_schedule(scheduled, 1.0)
    for lam in (1.5, 3.0, 10.0):
        assert np.all(full_vector_static_rates(lam * gains, 2, 1.0) >= base)
        assert np.all(schedulers.static_schedule(lam * scheduled, 1.0) >= kernel)


def test_static_alpha_two_targets_median_position():
    for n in (2, 4, 8, 12):
        # gains 1..n: ascending position n/2 + 1 holds the gain n/2 + 1
        rate = full_vector_static_rates(np.arange(1.0, n + 1.0), 2, 1.0)
        assert rate == pytest.approx(math.log1p(n // 2 + 1))


@pytest.mark.parametrize("n,alpha,groups,antennas", [
    (1, 1, 1, 1), (2, 1, 1, 1), (6, 3, 1, 1), (10, 2, 5, 1), (10, 10, 5, 1), (8, 2, 1, 3),
    (1000, 2, 1, 1), (12, 1, 1, 2), (12, 12, 5, 2),
])
def test_static_rates_have_the_full_vector_law(n, alpha, groups, antennas):
    # one Beta variate per group in place of N gains and a partition; the
    # quadrature rests on the same identity, so this is the independent check
    count = 10000 if n < 1000 else 4000
    seed = 520 + n + 10 * alpha + groups + antennas
    rates = schedulers.slot_rates(
        _config("static", n, groups, alpha=alpha, antennas=antennas), count,
        np.random.default_rng(seed),
    )
    rng = np.random.default_rng(seed + 1000)
    block = max(1, 2 ** 20 // (groups * n * antennas))
    reference = np.concatenate([
        full_vector_static_rates(
            rng.exponential(1.0, (min(block, count - start), groups, n, antennas)).mean(axis=-1),
            alpha, 1.0,
        ).max(axis=-1)
        for start in range(0, count, block)
    ])
    assert same_law_p_value(rates, reference) >= 0.01


@pytest.mark.parametrize("groups", [1, 5])
@pytest.mark.parametrize("alpha", [1, 12])
def test_extreme_static_rates_are_one_stratum_of_the_best_gain_draw(alpha, groups):
    # at alpha in {1, N} and one antenna the throughput's and the delay
    # engine's rates come from one closed-form draw of the best gain
    n, count, seed = 12, 500, 530 + alpha + groups
    config = _config("static", n, groups, alpha=alpha, power=2.0)
    rates = schedulers.slot_rates(config, count, np.random.default_rng(seed))
    gains = channel.draw_extreme_gains(
        n, 1 if alpha == 1 else n, groups, count, np.random.default_rng(seed))
    assert rates.shape == (count,)
    assert np.array_equal(rates, schedulers.static_schedule(gains, 2.0))


# ---------------------------------------------------------------------------
# multigroup fixed-fraction
# ---------------------------------------------------------------------------

def test_multigroup_reduces_to_single_group():
    gains = [0.3, 1.2, 0.8, 0.5]
    single = schedulers.static_schedule(gains, 1.0)
    multi = schedulers.multigroup_static_schedule(np.reshape(gains, (4, 1)), 1.0)
    assert np.array_equal(multi, single)


def test_multigroup_picks_best_group_minimum():
    groups = [[0.2, 0.7], [0.5, 0.6]]
    assert full_vector_static_rates(groups, 1, 1.0).max() == pytest.approx(math.log1p(0.5))
    rate = schedulers.multigroup_static_schedule([0.2, 0.5], 1.0)
    assert rate == pytest.approx(math.log1p(0.5))


def test_multigroup_argmax_contract():
    rng = np.random.default_rng(7)
    for _ in range(100):
        groups = channel.draw_scheduled_gains(6, 4, 3, 1, rng)
        rate = schedulers.multigroup_static_schedule(groups, 1.0)
        per_group = [schedulers.static_schedule([g], 1.0)[0] for g in groups]
        assert rate == max(per_group)


# ---------------------------------------------------------------------------
# mutual-information accumulation and the renewal cycle's stopping rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("count, n, power, seed", [
    (1, 1, 1.0, 60), (7, 5, 0.3, 61), (300, 64, 10.0, 62),
])
def test_ir_attempts_are_static_rates_of_fresh_exponentials(count, n, power, seed):
    # an attempt's fading comes from the one sampler: every user's unit
    # exponential gain, rated by the one rate law, bit for bit
    config = _ir_config(n, 1.0, power=power)
    rates = schedulers.slot_rates(config, count, np.random.default_rng(seed))
    assert rates.shape == (count, n)
    reference = np.random.default_rng(seed).exponential(1.0, (count, n))
    assert np.array_equal(rates, schedulers.static_schedule(reference, power))
    acc = np.random.default_rng(seed + 100).exponential(2.0, (count, n))
    assert np.array_equal(schedulers.ir_advance(acc, config, np.random.default_rng(seed)),
                          acc + rates)


def test_ir_single_user_success():
    acc = schedulers.ir_advance(np.zeros((1, 1)), _ir_config(1, 0.5), FixedGains([[1.0]]))
    assert acc[0, 0] == pytest.approx(math.log(2.0))
    assert queueing.ir_renewal_cycle(_ir_config(1, 0.5), FixedGains([[1.0]]))[:2] == (1, True)
    # a user done on reaching the target: log 2 nats of log 2 decode at the cap
    config = _ir_config(1, math.log1p(1.0), 1)
    assert queueing.ir_renewal_cycle(config, FixedGains([[1.0]]))[:2] == (1, True)


def test_ir_tiny_target_succeeds_first_attempt():
    rows = [[0.4, 0.1, 2.0, 0.9, 0.3]]
    config = _ir_config(5, 1e-12)
    assert queueing.ir_renewal_cycle(config, FixedGains(rows))[:2] == (1, True)
    assert queueing.ir_renewal_cycle(config, np.random.default_rng(1))[:2] == (1, True)


def test_ir_two_users_continue():
    acc = schedulers.ir_advance(np.zeros((1, 2)), _ir_config(2, 1.0), FixedGains([[1.0, 0.1]]))
    assert acc.min() == pytest.approx(math.log(1.1))
    # log 1.1 < 1 after one attempt, so the cycle continues to the second
    rows = [[1.0, 0.1], [1.0, 0.1]]
    assert queueing.ir_renewal_cycle(_ir_config(2, 1.0, 2), FixedGains(rows))[:2] == (2, False)
    rows = [[1.0, 0.1], [1.0, 5.0]]
    assert queueing.ir_renewal_cycle(_ir_config(2, 1.0), FixedGains(rows))[:2] == (2, True)
    # a cycle that finishes at its last allowed attempt decodes
    assert queueing.ir_renewal_cycle(_ir_config(2, 1.0, 2), FixedGains(rows))[:2] == (2, True)


def test_ir_accumulation_is_monotone():
    rng = np.random.default_rng(3)
    config = _ir_config(3, 50.0)
    acc = np.zeros((1, 3))
    for _ in range(10):
        grown = schedulers.ir_advance(acc, config, rng)
        assert np.all(grown >= acc)
        acc = grown
        assert acc.min() <= 50.0          # a target of 50 is not yet reached


def test_ir_cap_and_stopped_state():
    rng = np.random.default_rng(4)
    config = _ir_config(2, 100.0, 1)
    assert queueing.ir_renewal_cycle(config, rng)[:2] == (1, False)
    rows = [[0.5, 0.5]]
    assert queueing.ir_renewal_cycle(config, FixedGains(rows))[:2] == (1, False)
    # a cycle with no attempt or no target is not a config
    with pytest.raises(ValueError):
        _ir_config(2, 100.0, 0)
    with pytest.raises(ValueError):
        _ir_config(2, 0.0)


def test_ir_failure_probability_structure():
    # a cycle capped at 2 attempts fails for N users with probability
    # 1 - (1 - p1)^N, p1 = P(log1p(E1) + log1p(E2) < R) for one user, by
    # independence across users; p1 by quadrature over E1
    target, runs = 1.5, 20000
    p1, _ = integrate.quad(
        lambda x: math.exp(-x) * -math.expm1(1 - math.exp(target) / (1 + x)),
        0.0, math.expm1(target), epsabs=1e-14, epsrel=1e-13)
    assert p1 == pytest.approx(0.71214467619, abs=1e-11)
    for n, seed in ((1, 2024), (4, 2025)):
        expected = 1 - (1 - p1) ** n
        config = SimConfig(scheme="ir", n_users=n, rate_target=target, attempt_cap=2,
                           iterations=runs)
        attempts, decoded, _ = queueing.ir_renewal_cycle(config, np.random.default_rng(seed))
        assert np.all(attempts <= 2)
        failed = 1.0 - decoded.mean()
        assert abs(failed - expected) <= 4.5 * math.sqrt(expected * (1 - expected) / runs)


# ---------------------------------------------------------------------------
# cooperation
# ---------------------------------------------------------------------------

def _relay_gains(bs, inter):
    """Each weak user's relay gain, one user at a time: the sum of the gains
    from the N/2 users of largest base-station gain (ties to the lower
    index) to each of the others, in descending base-station order."""
    n = len(bs)
    order = sorted(range(n), key=lambda i: (-bs[i], i))
    return [sum(inter[i][j] for i in order[: n // 2]) for j in order[n // 2:]]


def test_coop_hand_example():
    # stage 1 at log 3; user 0 relays to user 1 at log 2.5, which binds
    assert schedulers.cooperative_schedule([2.0], [1.5], 2, 1.0) == pytest.approx([math.log(2.5)])
    assert schedulers.cooperative_schedule([2.0], [1e12], 2, 1.0) == pytest.approx([math.log(3.0)])
    # N = 4: stage 1 rates the second-largest gain, log 1.8; the two strong
    # users relay at P/2 each, so a weakest relay gain of 3 gives stage 2
    # log 2.5, and 1 gives log 1.5, which binds
    assert schedulers.cooperative_schedule([0.8], [3.0], 4, 1.0) == pytest.approx([math.log(1.8)])
    assert schedulers.cooperative_schedule([0.8], [1.0], 4, 1.0) == pytest.approx([math.log(1.5)])


def test_coop_strong_relays_never_bind():
    rng = np.random.default_rng(5)
    median = channel.draw_scheduled_gains(6, 4, 50, 1, rng)
    rate = schedulers.cooperative_schedule(median, np.full(50, 1e12), 6, 1.0)
    assert np.array_equal(rate, np.log1p(median))      # the stage-1 (median) rate


def test_coop_effective_rate_is_min_and_half_split():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = 8
        bs = rng.exponential(1.0, n)
        inter = rng.exponential(1.0, (n, n))
        relay = _relay_gains(bs.tolist(), inter.tolist())
        median = np.sort(bs)[n // 2]                  # the median position gain
        rate = schedulers.cooperative_schedule([median], [min(relay)], n, 1.0)[0]
        stage1 = math.log1p(median)
        stage2 = math.log1p(min(relay) / (n // 2))
        assert rate == pytest.approx(min(stage1, stage2), rel=1e-14)
        # the matrix model reads nothing of the pair gains but these gains
        assert rate == pytest.approx(cooperative_rate_from_matrix(bs, inter, 1.0), rel=1e-14)


def test_coop_rejects_odd_user_count():
    with pytest.raises(ValueError, match="even"):
        _config("coop", 3)
    with pytest.raises(ValueError, match="nonnegative"):
        schedulers.cooperative_schedule([1.0], [-1.0], 2, 1.0)


def test_multigroup_coop_reduction_and_argmax():
    # the sampler draws a slot's median gain, then its relay gain
    rng = np.random.default_rng(8)
    median = channel.draw_scheduled_gains(4, 3, 1, 1, rng)
    relay = channel.draw_interuser_gains(4, (1,), rng)
    single = schedulers.cooperative_schedule(median, relay, 4, 1.0)
    one_group = schedulers.slot_rates(_config("coop", 4), 1, np.random.default_rng(8))
    assert np.array_equal(one_group, single)

    # a stronger group wins: each slot rates at its best group
    rng = np.random.default_rng(18)
    median = channel.draw_scheduled_gains(4, 3, (200, 2), 1, rng)
    relay = channel.draw_interuser_gains(4, (200, 2), rng)
    rates = schedulers.slot_rates(_config("coop", 4, 2), 200, np.random.default_rng(18))
    per_group = schedulers.cooperative_schedule(median, relay, 4, 1.0)
    assert np.all(rates >= per_group[:, 0]) and np.all(rates >= per_group[:, 1])
    assert np.any(rates > per_group[:, 0]) and np.any(rates > per_group[:, 1])


def test_multigroup_coop_argmax_contract():
    rng = np.random.default_rng(9)
    median = channel.draw_scheduled_gains(4, 3, (50, 3), 1, rng)
    relay = channel.draw_interuser_gains(4, (50, 3), rng)
    rates = schedulers.slot_rates(_config("coop", 4, 3), 50, np.random.default_rng(9))
    for rate, per_group in zip(rates, schedulers.cooperative_schedule(median, relay, 4, 1.0)):
        assert 2 * rate == max(2 * r for r in per_group)


@pytest.mark.parametrize("n,groups", [
    (2, 1), (4, 1), (10, 1), (2, 5), (4, 5), (10, 5), (48, 1), (50, 1), (64, 1),
])
def test_coop_rates_have_the_matrix_model_law(n, groups):
    # one median and one weakest-relay variate per group in place of N gains
    # and an N x N pair-gain matrix; the matrix is drawn in blocks of at
    # most 2**22 pair gains.  N = 48, 50 and 64 all draw the relay gain from
    # its ball count; test_channel's [1000-4000] and _SWITCH + 1 cases hold
    # the inversion side.
    count, seed = 10000, 190 + 10 * groups + n
    rates = schedulers.slot_rates(_config("coop", n, groups), count, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 100)
    block = max(1, 2 ** 22 // (groups * n * n))
    reference = np.concatenate([
        matrix_coop_rates(n, groups, 1.0, min(block, count - start), rng)
        for start in range(0, count, block)
    ])
    assert same_law_p_value(rates, reference) >= 0.01


@pytest.mark.parametrize("n,groups,power", [
    (2, 1, 1.0), (4, 1, 0.1), (10, 1, 1.0), (10, 5, 1.0), (4, 5, 10.0), (32, 1, 1.0), (64, 1, 1.0),
    (2 * channel._BALL_COUNT_MAX_HALF + 2, 1, 1.0),
])
def test_coop_throughput_matches_exact_quadrature(n, groups, power):
    rng = np.random.default_rng(300 + 10 * groups + n)
    served = n // 2 * schedulers.slot_rates(_config("coop", n, groups, power=power), 40000, rng)
    se = served.std(ddof=1) / math.sqrt(served.size)
    assert abs(served.mean() - coop_throughput(n, groups, power)) <= 4 * se


# ---------------------------------------------------------------------------
# batch contract: one call on B slots equals B single-slot calls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", [
    "static", "multigroup-static", "coop", "multigroup-coop", "ir",
])
def test_batch_call_equals_single_slot_calls(kernel):
    rng = np.random.default_rng(10)
    batch, groups, n = 64, 3, 6
    if kernel == "static":
        args = (channel.draw_scheduled_gains(n, 4, (batch, 1), 1, rng),)
        call = lambda g: schedulers.static_schedule(g, 1.5)
    elif kernel == "multigroup-static":
        args = (channel.draw_scheduled_gains(n, 5, (batch, groups), 1, rng),)
        call = lambda g: schedulers.multigroup_static_schedule(g, 1.5)
    elif kernel == "coop":
        args = (channel.draw_scheduled_gains(n, 4, (batch, 1), 1, rng),
                channel.draw_interuser_gains(n, (batch, 1), rng))
        call = lambda g, u: schedulers.cooperative_schedule(g, u, n, 1.5)
    elif kernel == "multigroup-coop":
        args = (channel.draw_scheduled_gains(n, 4, (batch, groups), 1, rng),
                channel.draw_interuser_gains(n, (batch, groups), rng))
        call = lambda g, u: schedulers.cooperative_schedule(g, u, n, 1.5).max(axis=-1)
    else:
        args = (rng.exponential(2.0, (batch, n)), rng.exponential(1.0, (batch, n)))
        config = _ir_config(n, 1.0, power=1.5)
        call = lambda acc, g: schedulers.ir_advance(
            acc.reshape(-1, n), config, FixedGains([g])).reshape(acc.shape)
    batched = call(*args)
    single = np.array([call(*slot) for slot in zip(*args)])
    assert batched.shape == single.shape
    assert np.array_equal(batched, single)
