import math

import numpy as np
import pytest
from scipy import stats

from mcastsim import analytic, queueing, schedulers
from mcastsim.analytic import ServiceLaw
from mcastsim.queueing import RateModel

from oracles import throughput_reference


def _static_delays(runs, seed, **kwargs):
    rng = np.random.default_rng(seed)
    return np.array([queueing.tagged_delay_static(rng=rng, **kwargs) for _ in range(runs)])


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
    rng = np.random.default_rng(131)
    for _ in range(50):
        assert queueing.tagged_delay_ir(3, 1.0, 1e-12, None, rng) == 1
    rng = np.random.default_rng(132)
    for _ in range(50):
        attempts, decoded = queueing.ir_renewal_cycle(3, 1.0, 50.0, 1, rng)
        assert attempts == 1 and not decoded


def test_ir_mean_attempts_match_failure_sum():
    # E[tau] = 1 + sum_m P(accumulated information after m attempts <= target)
    target, runs = 0.5, 40000
    rng = np.random.default_rng(133)
    taus = np.array([queueing.tagged_delay_ir(1, 1.0, target, None, rng) for _ in range(runs)])

    est_rng = np.random.default_rng(134)
    increments = np.log1p(est_rng.exponential(1.0, (runs, 12)))
    sums = np.cumsum(increments, axis=1)
    p_hat = (sums <= target).mean(axis=0)
    predicted = 1 + p_hat.sum()
    se_tau = taus.std(ddof=1) / math.sqrt(runs)
    se_pred = math.sqrt(np.sum(p_hat * (1 - p_hat)) / runs)
    assert abs(taus.mean() - predicted) <= 2 * math.hypot(se_tau, se_pred)


# ---------------------------------------------------------------------------
# cooperation
# ---------------------------------------------------------------------------

def test_coop_delay_single_slot_for_tiny_packet():
    rng = np.random.default_rng(141)
    for _ in range(50):
        assert queueing.tagged_delay_coop(4, 1, 1.0, 1e-12, 1.0, rng) == 1


def test_coop_delay_follows_service_formula():
    # mean slots ~ (Tc + S/E[min rate])/Tc once several slots are needed
    n, power = 8, 1.0
    rng = np.random.default_rng(142)
    rates = np.empty(20000)
    for i in range(rates.size):
        bs = rng.exponential(1.0, n)
        inter = rng.exponential(1.0, (n, n))
        np.fill_diagonal(inter, 0.0)
        rates[i] = schedulers.cooperative_schedule(bs, inter, power)
    mean_rate = rates.mean()

    packet = 20 * mean_rate
    run_rng = np.random.default_rng(143)
    delays = np.array([
        queueing.tagged_delay_coop(n, 1, power, packet, 1.0, run_rng) for _ in range(3000)
    ])
    predicted = 1.0 + packet / mean_rate
    assert abs(delays.mean() - predicted) <= 0.05 * predicted


def test_coop_delay_scales_with_group_count():
    kwargs = dict(n_users=4, power=1.0, packet_nats=2.0, coherence_interval=1.0)
    rng1 = np.random.default_rng(144)
    single = np.array([
        queueing.tagged_delay_coop(n_groups=1, rng=rng1, **kwargs) for _ in range(4000)
    ])
    rng4 = np.random.default_rng(145)
    multi = np.array([
        queueing.tagged_delay_coop(n_groups=4, rng=rng4, **kwargs) for _ in range(4000)
    ])
    assert abs(multi.mean() / single.mean() - 4.0) <= 0.4


def test_coop_delay_rejects_odd_users():
    with pytest.raises(ValueError):
        queueing.tagged_delay_coop(3, 1, 1.0, 1.0, 1.0, np.random.default_rng(0))
