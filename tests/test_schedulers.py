import math

import numpy as np
import pytest

from mcastsim import analytic, channel, queueing, schedulers
from mcastsim.analytic import OrderStatSpec

from oracles import ks_distance


class FixedGains:
    """Stand-in generator whose exponential draws replay the given rows,
    so a renewal cycle can be run on hand-picked gains."""

    def __init__(self, rows):
        self._rows = iter(rows)

    def exponential(self, scale, size):
        return np.asarray(next(self._rows), dtype=float).reshape(size)


# ---------------------------------------------------------------------------
# fixed-fraction scheduler
# ---------------------------------------------------------------------------

def test_static_schedule_hand_example():
    rate = schedulers.static_schedule([0.1, 0.9, 0.4, 2.0], 2, 1.0)
    assert rate == pytest.approx(math.log(1.9), abs=1e-12)


def test_static_schedule_worst_and_best_reductions():
    gains = [0.5, 2.0, 0.1, 1.3]
    assert schedulers.static_schedule(gains, 1, 1.0) == pytest.approx(math.log1p(0.1))
    assert schedulers.static_schedule(gains, 4, 1.0) == pytest.approx(math.log1p(2.0))


def test_static_schedule_breaks_ties_toward_low_index():
    # tied gains rate the slot at the tied value
    tied = pytest.approx(math.log1p(1.0))
    assert schedulers.static_schedule([1.0, 1.0, 1.0, 1.0], 2, 1.0) == tied
    assert schedulers.static_schedule([0.5, 1.0, 1.0, 0.2], 4, 1.0) == tied
    # cooperation: of two tied users the lower index relays (u[0, 1], not u[1, 0])
    inter = np.array([[0.0, 0.25], [4.0, 0.0]])
    rate = schedulers.cooperative_schedule([1.0, 1.0], inter, 1.0)
    assert rate == pytest.approx(math.log1p(0.25))


def test_static_schedule_validates_input():
    with pytest.raises(ValueError):
        schedulers.static_schedule([1.0, 2.0, 3.0], 2, 1.0)
    with pytest.raises(ValueError):
        schedulers.static_schedule([1.0, -2.0], 1, 1.0)
    with pytest.raises(ValueError):
        schedulers.static_schedule([1.0, 2.0], 1, 0.0)
    with pytest.raises(ValueError):
        schedulers.static_schedule([1.0, np.inf], 1, 1.0)
    with pytest.raises(ValueError):
        schedulers.static_schedule([[1.0, np.nan], [1.0, 2.0]], 1, 1.0)
    with pytest.raises(ValueError):
        schedulers.multigroup_static_schedule([1.0, 2.0], 1, 1.0)


def test_static_rate_distribution_matches_order_statistic():
    n, alpha, power = 6, 3, 1.0
    spec = OrderStatSpec(n_users=n, position=n - n // alpha + 1)
    rng = np.random.default_rng(515)
    rates = schedulers.static_schedule(rng.exponential(1.0, (10 ** 5, n)), alpha, power)

    def rate_cdf(r):
        return analytic.order_stat_cdf(spec, math.expm1(r) / power)

    assert ks_distance(rates, rate_cdf) < 0.01


def test_static_schedule_scale_invariance():
    gains = np.random.default_rng(99).exponential(1.0, (200, 8))
    base = schedulers.static_schedule(gains, 2, 1.0)
    for lam in (1.5, 3.0, 10.0):
        assert np.all(schedulers.static_schedule(lam * gains, 2, 1.0) >= base)


def test_static_alpha_two_targets_median_position():
    for n in (2, 4, 8, 12):
        # gains 1..n: ascending position n/2 + 1 holds the gain n/2 + 1
        rate = schedulers.static_schedule(np.arange(1.0, n + 1.0), 2, 1.0)
        assert rate == pytest.approx(math.log1p(n // 2 + 1))


# ---------------------------------------------------------------------------
# multigroup fixed-fraction
# ---------------------------------------------------------------------------

def test_multigroup_reduces_to_single_group():
    gains = [0.3, 1.2, 0.8, 0.5]
    single = schedulers.static_schedule(gains, 2, 1.0)
    multi = schedulers.multigroup_static_schedule([gains], 2, 1.0)
    assert multi == single


def test_multigroup_picks_best_group_minimum():
    groups = [[0.2, 0.7], [0.5, 0.6]]
    rate = schedulers.multigroup_static_schedule(groups, 1, 1.0)
    assert rate == pytest.approx(math.log1p(0.5))


def test_multigroup_argmax_contract():
    rng = np.random.default_rng(7)
    for _ in range(100):
        groups = rng.exponential(1.0, (3, 6))
        rate = schedulers.multigroup_static_schedule(groups, 2, 1.0)
        per_group = [schedulers.static_schedule(g, 2, 1.0) for g in groups]
        assert rate == max(per_group)


# ---------------------------------------------------------------------------
# mutual-information accumulation and the renewal cycle's stopping rule
# ---------------------------------------------------------------------------

def test_ir_single_user_success():
    acc = schedulers.ir_advance(np.zeros(1), [1.0], 1.0)
    assert acc[0] == pytest.approx(math.log(2.0))
    assert queueing.ir_renewal_cycle(1, 1.0, 0.5, None, FixedGains([[1.0]])) == (1, True)


def test_ir_tiny_target_succeeds_first_attempt():
    rows = [[0.4, 0.1, 2.0, 0.9, 0.3]]
    assert queueing.ir_renewal_cycle(5, 1.0, 1e-12, None, FixedGains(rows)) == (1, True)
    assert queueing.ir_renewal_cycle(5, 1.0, 1e-12, None, np.random.default_rng(1)) == (1, True)


def test_ir_two_users_continue():
    acc = schedulers.ir_advance(np.zeros(2), [1.0, 0.1], 1.0)
    assert acc.min() == pytest.approx(math.log(1.1))
    # log 1.1 < 1 after one attempt, so the cycle continues to the second
    rows = [[1.0, 0.1], [1.0, 0.1]]
    assert queueing.ir_renewal_cycle(2, 1.0, 1.0, 2, FixedGains(rows)) == (2, False)
    rows = [[1.0, 0.1], [1.0, 5.0]]
    assert queueing.ir_renewal_cycle(2, 1.0, 1.0, None, FixedGains(rows)) == (2, True)


def test_ir_accumulation_is_monotone():
    rng = np.random.default_rng(3)
    acc = np.zeros(3)
    for _ in range(10):
        grown = schedulers.ir_advance(acc, rng.exponential(1.0, 3), 1.0)
        assert np.all(grown >= acc)
        acc = grown
        assert acc.min() <= 50.0          # a target of 50 is not yet reached


def test_ir_cap_and_stopped_state():
    rng = np.random.default_rng(4)
    assert queueing.ir_renewal_cycle(2, 1.0, 100.0, 1, rng) == (1, False)
    rows = [[0.5, 0.5]]
    assert queueing.ir_renewal_cycle(2, 1.0, 100.0, 1, FixedGains(rows)) == (1, False)
    with pytest.raises(ValueError):
        schedulers.ir_advance(np.zeros(2), [0.5, 0.5, 0.5], 1.0)
    with pytest.raises(ValueError):
        queueing.ir_renewal_cycle(2, 1.0, 100.0, 0, rng)
    with pytest.raises(ValueError):
        queueing.ir_renewal_cycle(2, 1.0, 0.0, None, rng)


def test_ir_failure_probability_structure():
    # failure after m attempts for N users = 1 - (1 - p1(m))^N with p1 the
    # single-user failure probability, by independence across users
    rng = np.random.default_rng(2024)
    target, attempts, runs, n = 1.5, 2, 20000, 4

    def failure_fraction(users, generator):
        fails = 0
        for _ in range(runs):
            acc = np.zeros(users)
            for _ in range(attempts):
                acc += np.log1p(generator.exponential(1.0, users))
            fails += acc.min() <= target
        return fails / runs

    p1 = failure_fraction(1, rng)
    pn = failure_fraction(n, np.random.default_rng(2025))
    predicted = 1 - (1 - p1) ** n
    se1 = math.sqrt(p1 * (1 - p1) / runs) * n * (1 - p1) ** (n - 1)
    sen = math.sqrt(pn * (1 - pn) / runs)
    assert abs(pn - predicted) <= 2 * math.hypot(se1, sen)


# ---------------------------------------------------------------------------
# cooperation
# ---------------------------------------------------------------------------

def _coop_reference(bs, inter, power):
    """Stage rates by the definition, one user at a time."""
    n = len(bs)
    half = n // 2
    order = sorted(range(n), key=lambda i: (-bs[i], i))
    stage1 = math.log1p(power * bs[order[half - 1]])
    received = [sum(inter[i][j] for i in order[:half]) / half for j in order[half:]]
    stage2 = math.log1p(power * min(received))
    return stage1, stage2


def test_coop_hand_example():
    inter = np.array([[0.0, 1.5], [0.7, 0.0]])
    # stage 1 at log 3; user 0 relays to user 1 at log 2.5, which binds
    assert schedulers.cooperative_schedule([2.0, 0.3], inter, 1.0) == pytest.approx(math.log(2.5))
    strong = np.array([[0.0, 1e12], [0.7, 0.0]])
    assert schedulers.cooperative_schedule([2.0, 0.3], strong, 1.0) == pytest.approx(math.log(3.0))


def test_coop_strong_relays_never_bind():
    rng = np.random.default_rng(5)
    bs = rng.exponential(1.0, 6)
    inter = np.full((6, 6), 1e12)
    np.fill_diagonal(inter, 0.0)
    rate = schedulers.cooperative_schedule(bs, inter, 1.0)
    assert rate == pytest.approx(math.log1p(np.sort(bs)[3]))      # the stage-1 (median) rate


def test_coop_effective_rate_is_min_and_half_split():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = 8
        bs = rng.exponential(1.0, n)
        inter = channel.draw_interuser_gains(n, rng)
        rate = schedulers.cooperative_schedule(bs, inter, 1.0)
        stage1, stage2 = _coop_reference(bs.tolist(), inter.tolist(), 1.0)
        assert rate == pytest.approx(min(stage1, stage2), rel=1e-14)
        # stage 1 rates the median position gain
        assert stage1 == pytest.approx(math.log1p(np.sort(bs)[n // 2]))


def test_coop_rejects_odd_user_count():
    inter = np.zeros((3, 3))
    with pytest.raises(ValueError):
        schedulers.cooperative_schedule([1.0, 2.0, 3.0], inter, 1.0)
    with pytest.raises(ValueError):
        schedulers.cooperative_schedule([1.0, 2.0], np.zeros((3, 3)), 1.0)
    with pytest.raises(ValueError):
        schedulers.cooperative_schedule([1.0, 2.0], [[0.0, -1.0], [1.0, 0.0]], 1.0)


def test_multigroup_coop_reduction_and_argmax():
    rng = np.random.default_rng(8)
    bs = rng.exponential(1.0, 4)
    inter = channel.draw_interuser_gains(4, rng)
    single = schedulers.cooperative_schedule(bs, inter, 1.0)
    assert schedulers.multigroup_cooperative_schedule([bs], [inter], 1.0) == single

    # second group has uniformly stronger channels, so it must win
    strong_bs = bs + 5.0
    strong_inter = inter + 5.0
    np.fill_diagonal(strong_inter, 0.0)
    rate = schedulers.multigroup_cooperative_schedule(
        [bs, strong_bs], [inter, strong_inter], 1.0
    )
    assert rate == schedulers.cooperative_schedule(strong_bs, strong_inter, 1.0)
    assert rate >= single


def test_multigroup_coop_argmax_contract():
    rng = np.random.default_rng(9)
    for _ in range(50):
        bs_groups = rng.exponential(1.0, (3, 4))
        inter_groups = channel.draw_interuser_gains(4, rng, (3,))
        rate = schedulers.multigroup_cooperative_schedule(bs_groups, inter_groups, 1.0)
        rates = [
            schedulers.cooperative_schedule(b, u, 1.0)
            for b, u in zip(bs_groups, inter_groups)
        ]
        assert 2 * rate == max(2 * r for r in rates)


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
        args = (rng.exponential(1.0, (batch, n)),)
        call = lambda g: schedulers.static_schedule(g, 2, 1.5)
    elif kernel == "multigroup-static":
        args = (rng.exponential(1.0, (batch, groups, n)),)
        call = lambda g: schedulers.multigroup_static_schedule(g, 3, 1.5)
    elif kernel == "coop":
        args = (rng.exponential(1.0, (batch, n)), channel.draw_interuser_gains(n, rng, (batch,)))
        call = lambda g, u: schedulers.cooperative_schedule(g, u, 1.5)
    elif kernel == "multigroup-coop":
        inter = channel.draw_interuser_gains(n, rng, (batch, groups))
        args = (rng.exponential(1.0, (batch, groups, n)), inter)
        call = lambda g, u: schedulers.multigroup_cooperative_schedule(g, u, 1.5)
    else:
        args = (rng.exponential(2.0, (batch, n)), rng.exponential(1.0, (batch, n)))
        call = lambda acc, g: schedulers.ir_advance(acc, g, 1.5)
    batched = call(*args)
    single = np.array([call(*slot) for slot in zip(*args)])
    assert batched.shape == single.shape
    assert np.array_equal(batched, single)
