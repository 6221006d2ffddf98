import math

import numpy as np
import pytest
from scipy import stats

from mcastsim import analytic, queueing, schedulers
from mcastsim.analytic import ServiceLaw
from mcastsim.queueing import RateModel

from oracles import ir_expected_attempts, slot_by_slot_delays, throughput_reference


def _static_delays(runs, seed, **kwargs):
    return queueing.tagged_delay_static(rng=np.random.default_rng(seed), runs=runs, **kwargs)


# ---------------------------------------------------------------------------
# single queue, memoryless server: the shifted-Poisson service law
# ---------------------------------------------------------------------------

def test_exponential_server_mean_is_one_plus_muc():
    delays = _static_delays(
        30000, 101, n_users=4, n_groups=1, alpha=1, power=1.0,
        packet_nats=1.0, coherence_interval=1.0, model=RateModel.exponential_server(1.0),
    )
    assert abs(delays.mean() - 2.0) <= 0.04


def test_exponential_server_distribution_fits_service_law():
    delays = _static_delays(
        20000, 102, n_users=4, n_groups=1, alpha=1, power=1.0,
        packet_nats=1.0, coherence_interval=1.0, model=RateModel.exponential_server(1.0),
    )
    law = ServiceLaw(1.0, 1.0)
    probs = [analytic.service_time_pmf(law, k) for k in range(1, 8)]
    expected = [p * delays.size for p in probs]
    expected.append(delays.size - sum(expected))
    observed = [np.sum(delays == k) for k in range(1, 8)]
    observed.append(np.sum(delays >= 8))
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 0.01


def test_exponential_server_respects_mu():
    # muC = 2.5 gives mean 3.5 slots
    delays = _static_delays(
        30000, 103, n_users=4, n_groups=1, alpha=1, power=1.0,
        packet_nats=2.5, coherence_interval=1.0, model=RateModel.exponential_server(1.0),
    )
    assert abs(delays.mean() - 3.5) <= 0.06


# ---------------------------------------------------------------------------
# vanishing packets: pure coupon collection
# ---------------------------------------------------------------------------

def test_two_coupled_queues_collect_in_three_slots():
    delays = _static_delays(
        20000, 111, n_users=2, n_groups=1, alpha=2, power=1.0,
        packet_nats=1e-12, coherence_interval=1.0, model=RateModel.empirical(),
    )
    assert abs(delays.mean() - 3.0) <= 0.06


@pytest.mark.parametrize("n,alpha,groups", [
    (4, 1, 1), (4, 2, 1), (4, 4, 1), (4, 2, 2), (6, 2, 2), (6, 6, 1),
])
def test_vanishing_packet_matches_coupon_formula(n, alpha, groups):
    q_total = groups * math.comb(n, n // alpha)
    expected = analytic.coupon_collector_expected_trials(q_total, alpha, 1)
    delays = _static_delays(
        8000, 113 + n + alpha + groups, n_users=n, n_groups=groups, alpha=alpha,
        power=1.0, packet_nats=1e-12, coherence_interval=1.0, model=RateModel.empirical(),
    )
    assert abs(delays.mean() - expected) <= 0.02 * expected


# ---------------------------------------------------------------------------
# the geometric-gap shortcut against slot-by-slot simulation
# ---------------------------------------------------------------------------

def _same_law_p_value(a, b):
    """Chi-square homogeneity p-value of two slot-count samples, binned at
    twenty pooled quantiles."""
    pooled = np.concatenate([a, b])
    edges = np.unique(np.quantile(pooled, np.linspace(0.0, 1.0, 21)))
    table = [np.histogram(x, edges)[0] for x in (a, b)]
    return stats.chi2_contingency(table)[1]


@pytest.mark.parametrize("p", [1.0, 0.5, 1 / 3, 0.05, 1e-12])
def test_gaps_equal_numpy_geometric_draws(p):
    gaps = queueing._gaps(p, 10000, np.random.default_rng(160))
    assert np.array_equal(gaps, np.random.default_rng(160).geometric(p, 10000))


@pytest.mark.parametrize("n,alpha,groups,seed", [(4, 2, 1, 161), (4, 2, 2, 162)])
def test_static_gaps_match_slot_by_slot_reference(n, alpha, groups, seed):
    queues = groups * math.comb(n, n // alpha)
    reference = slot_by_slot_delays(
        queues, alpha, 1.0, lambda rng, count: rng.exponential(1.0, count),
        np.random.default_rng(seed), 20000,
    )
    delays = queueing.tagged_delay_static(
        n, groups, alpha, 1.0, 1.0, 1.0, RateModel.exponential_server(1.0),
        np.random.default_rng(seed + 100), runs=20000,
    )
    assert _same_law_p_value(reference, delays) > 0.001


def test_coop_gaps_match_slot_by_slot_reference():
    n, power = 4, 1.0

    def coop_rates(rng, count):
        bs = rng.exponential(1.0, (count, n))
        inter = rng.exponential(1.0, (count, n, n))
        inter[:, np.arange(n), np.arange(n)] = 0.0
        return schedulers.cooperative_schedule(bs, inter, power)

    reference = slot_by_slot_delays(2, 1, 1.0, coop_rates, np.random.default_rng(163), 20000)
    delays = queueing.tagged_delay_coop(
        n, 2, power, 1.0, 1.0, np.random.default_rng(263), runs=20000
    )
    assert _same_law_p_value(reference, delays) > 0.001


def test_engines_are_deterministic():
    def runs(seed):
        rng = np.random.default_rng(seed)
        return (
            queueing.tagged_delay_static(
                6, 2, 2, 1.0, 1.0, 1.0, RateModel.empirical(), rng, runs=500
            ),
            queueing.tagged_delay_coop(6, 2, 1.0, 1.0, 1.0, rng, runs=500),
            *queueing.ir_renewal_cycle(6, 1.0, 1.0, 4, rng, runs=500),
        )

    for first, second in zip(runs(171), runs(171)):
        assert first.shape == (500,) and np.array_equal(first, second)


# ---------------------------------------------------------------------------
# the supported range: huge queue counts are simulated or rejected
# ---------------------------------------------------------------------------

def test_static_delay_clears_coupon_floor_at_n72():
    # C(72, 36) * H_2 = 6.6e20 slots; int64 geometric gaps saturated near 6e19
    delays = queueing.tagged_delay_static(
        72, 1, 2, 1.0, 1.0, 1.0, RateModel.empirical(), np.random.default_rng(181), runs=300
    )
    floor = math.comb(72, 36) * 1.5
    se = delays.std(ddof=1) / math.sqrt(delays.size)
    assert delays.mean() >= floor - 4.5 * se


def test_static_delay_rejects_unrepresentable_counts():
    rng = np.random.default_rng(182)
    with pytest.raises(ValueError, match="normal float"):
        queueing.tagged_delay_static(2000, 1, 2, 1.0, 1.0, 1.0, RateModel.empirical(), rng)
    # the hit probability 1.1e-307 is a normal float, but the sum of some
    # hundred gaps of about 1e307 slots each is not
    with pytest.raises(ValueError, match="float range"):
        queueing.tagged_delay_static(
            1026, 1, 2, 1.0, 50.0, 1.0, RateModel.exponential_server(1.0), rng, runs=2
        )


# ---------------------------------------------------------------------------
# empirical rates
# ---------------------------------------------------------------------------

def test_single_queue_delay_tracks_service_rate():
    # alpha=1: one queue, every slot serves it; delay * E[R] / S -> 1
    n, power = 4, 1.0
    mean_rate = throughput_reference(n, 1, power) / n
    packet = 40 * mean_rate
    delays = _static_delays(
        3000, 121, n_users=n, n_groups=1, alpha=1, power=power,
        packet_nats=packet, coherence_interval=1.0, model=RateModel.empirical(),
    )
    ratio = delays.mean() * mean_rate / packet
    assert abs(ratio - 1.0) < 0.05


def test_delay_monotone_in_power_and_packet_size():
    common = dict(n_users=4, n_groups=1, alpha=2, coherence_interval=1.0,
                  model=RateModel.empirical())
    for seed in range(200):
        low = queueing.tagged_delay_static(
            power=1.0, packet_nats=1.0, rng=np.random.default_rng(seed), **common)
        high = queueing.tagged_delay_static(
            power=2.0, packet_nats=1.0, rng=np.random.default_rng(seed), **common)
        small = queueing.tagged_delay_static(
            power=1.0, packet_nats=0.5, rng=np.random.default_rng(seed), **common)
        assert high <= low
        assert small <= low


def test_static_delay_validates_arguments():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        queueing.tagged_delay_static(6, 1, 4, 1.0, 1.0, 1.0, RateModel.empirical(), rng)
    with pytest.raises(ValueError):
        queueing.tagged_delay_static(4, 1, 2, 1.0, -1.0, 1.0, RateModel.empirical(), rng)
    with pytest.raises(ValueError):
        RateModel.exponential_server(0.0)


# ---------------------------------------------------------------------------
# retransmission renewals
# ---------------------------------------------------------------------------

def test_ir_delay_trivial_cases():
    attempts, _ = queueing.ir_renewal_cycle(
        3, 1.0, 1e-12, None, np.random.default_rng(131), runs=50
    )
    assert np.all(attempts == 1)
    attempts, decoded = queueing.ir_renewal_cycle(
        3, 1.0, 50.0, 1, np.random.default_rng(132), runs=50
    )
    assert np.all(attempts == 1) and not decoded.any()


def test_ir_mean_attempts_match_failure_sum():
    # E[tau] = 1 + sum_m P(accumulated information after m attempts <= target)
    target, runs = 0.5, 40000
    # one cycle per call, each drawing its attempts in sequence on the stream
    rng = np.random.default_rng(133)
    taus = np.concatenate([
        queueing.ir_renewal_cycle(1, 1.0, target, None, rng)[0] for _ in range(runs)
    ])

    est_rng = np.random.default_rng(134)
    increments = np.log1p(est_rng.exponential(1.0, (runs, 12)))
    sums = np.cumsum(increments, axis=1)
    p_hat = (sums <= target).mean(axis=0)
    predicted = 1 + p_hat.sum()
    se_tau = taus.std(ddof=1) / math.sqrt(runs)
    se_pred = math.sqrt(np.sum(p_hat * (1 - p_hat)) / runs)
    assert abs(taus.mean() - predicted) <= 2 * math.hypot(se_tau, se_pred)


@pytest.mark.parametrize("n_users, seed", [(1, 135), (4, 136)])
def test_ir_mean_attempts_match_exact_reference(n_users, seed):
    # E[tau] by grid convolution of the per-attempt information law
    target, runs = 0.5, 40000
    attempts, decoded = queueing.ir_renewal_cycle(
        n_users, 1.0, target, None, np.random.default_rng(seed), runs=runs
    )
    assert decoded.all()
    se = attempts.std(ddof=1) / math.sqrt(runs)
    assert abs(attempts.mean() - ir_expected_attempts(n_users, target, 1.0)) <= 3 * se


# ---------------------------------------------------------------------------
# cooperation
# ---------------------------------------------------------------------------

def test_coop_delay_single_slot_for_tiny_packet():
    delays = queueing.tagged_delay_coop(4, 1, 1.0, 1e-12, 1.0, np.random.default_rng(141), runs=50)
    assert np.all(delays == 1)


def test_coop_delay_follows_service_formula():
    # mean slots ~ (Tc + S/E[min rate])/Tc once several slots are needed
    n, power = 8, 1.0
    rng = np.random.default_rng(142)
    bs = rng.exponential(1.0, (20000, n))
    inter = rng.exponential(1.0, (20000, n, n))
    inter[:, np.arange(n), np.arange(n)] = 0.0
    mean_rate = schedulers.cooperative_schedule(bs, inter, power).mean()

    packet = 20 * mean_rate
    delays = queueing.tagged_delay_coop(
        n, 1, power, packet, 1.0, np.random.default_rng(143), runs=3000
    )
    predicted = 1.0 + packet / mean_rate
    assert abs(delays.mean() - predicted) <= 0.05 * predicted


def test_coop_delay_scales_with_group_count():
    kwargs = dict(n_users=4, power=1.0, packet_nats=2.0, coherence_interval=1.0)
    single = queueing.tagged_delay_coop(
        n_groups=1, rng=np.random.default_rng(144), runs=4000, **kwargs
    )
    multi = queueing.tagged_delay_coop(
        n_groups=4, rng=np.random.default_rng(145), runs=4000, **kwargs
    )
    assert abs(multi.mean() / single.mean() - 4.0) <= 0.4


def test_coop_delay_rejects_odd_users():
    with pytest.raises(ValueError):
        queueing.tagged_delay_coop(3, 1, 1.0, 1.0, 1.0, np.random.default_rng(0))
