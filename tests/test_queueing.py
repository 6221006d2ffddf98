import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from mcastsim import analytic, queueing, simcore
from mcastsim.channel import CoherencePolicy
from mcastsim.simcore import SimConfig

from oracles import (
    ServiceLaw,
    coop_rate_cdf,
    coop_throughput,
    coupon_reference,
    ir_expected_attempts,
    matrix_coop_rates,
    renewal_expected_hits,
    same_law_p_value,
    service_time_pmf,
    slot_by_slot_delays,
    throughput_reference,
)


def _config(scheme, n_users, n_groups=1, coherence_interval=1.0, iterations=1, **settings):
    """A SimConfig of the scheme's single- or multigroup form at a fixed
    coherence interval."""
    return SimConfig(
        scheme=scheme if n_groups == 1 else f"multigroup-{scheme}", n_users=n_users,
        n_groups=n_groups, coherence=CoherencePolicy("fixed", coherence_interval),
        iterations=iterations, **settings,
    )


def _static_delays(iterations, seed, **settings):
    return queueing.tagged_delay_static(
        _config("static", iterations=iterations, **settings), np.random.default_rng(seed)
    )[0]


def _exponential_server_delays(runs, seed, n_users, n_groups, alpha, packet_nats):
    """The engine on the fixed-fraction queue layout at Tc = 1, every hit
    served at a unit-mean exponential rate instead of a scheduled one."""
    rng = np.random.default_rng(seed)
    config = _config("static", n_users, n_groups, alpha=alpha, packet_nats=packet_nats,
                     iterations=runs)
    return queueing._coupled_queue_delay(config, lambda count: rng.exponential(1.0, count))[0]


# ---------------------------------------------------------------------------
# single queue, memoryless server: the shifted-Poisson service law
# ---------------------------------------------------------------------------

def test_exponential_server_mean_is_one_plus_muc():
    delays = _exponential_server_delays(
        30000, 101, n_users=4, n_groups=1, alpha=1, packet_nats=1.0
    )
    assert abs(delays.mean() - 2.0) <= 0.04


def test_exponential_server_distribution_fits_service_law():
    delays = _exponential_server_delays(
        20000, 102, n_users=4, n_groups=1, alpha=1, packet_nats=1.0
    )
    law = ServiceLaw(1.0, 1.0)
    probs = [service_time_pmf(law, k) for k in range(1, 8)]
    expected = [p * delays.size for p in probs]
    expected.append(delays.size - sum(expected))
    observed = [np.sum(delays == k) for k in range(1, 8)]
    observed.append(np.sum(delays >= 8))
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 0.01


def test_exponential_server_respects_mu():
    # muC = 2.5 gives mean 3.5 slots
    delays = _exponential_server_delays(
        30000, 103, n_users=4, n_groups=1, alpha=1, packet_nats=2.5
    )
    assert abs(delays.mean() - 3.5) <= 0.06


# ---------------------------------------------------------------------------
# vanishing packets: pure coupon collection
# ---------------------------------------------------------------------------

def test_two_coupled_queues_collect_in_three_slots():
    delays = _static_delays(
        20000, 111, n_users=2, n_groups=1, alpha=2, power=1.0,
        packet_nats=1e-12, coherence_interval=1.0,
    )
    assert abs(delays.mean() - 3.0) <= 0.06


@pytest.mark.parametrize("n,alpha,groups", [
    (4, 1, 1), (4, 2, 1), (4, 4, 1), (4, 2, 2), (6, 2, 2), (6, 6, 1),
])
def test_vanishing_packet_matches_coupon_formula(n, alpha, groups):
    q_total = groups * math.comb(n, n // alpha)
    expected = analytic.coupon_collector_expected_picks(q_total, [[1] * alpha])[0]
    # a vanishing packet needs one hit per queue, so every run reports the
    # coupon mean itself; criterion 5 holds the pick simulation to it
    delays = _static_delays(
        32000, 113 + n + alpha + groups, n_users=n, n_groups=groups, alpha=alpha,
        power=1.0, packet_nats=1e-12, coherence_interval=1.0,
    )
    assert abs(delays.mean() - expected) <= 0.02 * expected


# ---------------------------------------------------------------------------
# the conditional mean given the hit needs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("queues, needs", [
    (2, (1, 2)), (3, (2, 1, 3)), (6, (1, 2, 4)), (10, (3, 1)), (4, (2, 2, 2, 1)),
])
def test_conditional_mean_matches_exact_chain(queues, needs):
    # the absorbing chain over remaining-service vectors, with unequal needs
    exact = coupon_reference(queues, len(needs), needs)
    picks = analytic.coupon_collector_expected_picks(queues, [needs])
    assert picks.shape == (1,) and picks[0] == pytest.approx(exact, rel=1e-10)


def test_conditional_mean_is_taken_per_run_in_any_queue_order():
    needs = np.array([[1, 2, 4], [4, 1, 2], [1, 1, 1], [2, 4, 1], [1, 1, 1]])
    picks = analytic.coupon_collector_expected_picks(6, needs)
    exact = [coupon_reference(6, 3, tuple(row)) for row in needs]
    assert picks.shape == (5,) and picks == pytest.approx(exact, rel=1e-10)
    assert picks[0] == picks[1] == picks[3] and picks[2] == picks[4]


def test_engine_reports_conditional_mean_of_its_hit_needs():
    # N = alpha = 3 at G = 2: three coupled queues of six; at Tc = 1 the
    # rates 1, 1/2 and 1/4 drain a unit packet in exactly 1, 2 and 4 hits
    config = _config("static", 3, 2, alpha=3, iterations=7)

    def rates(count):
        return np.tile([1.0, 0.5, 0.25], count // 3)

    delays, _ = queueing._coupled_queue_delay(config, rates)
    assert delays == pytest.approx(np.full(7, coupon_reference(6, 3, (1, 2, 4))), rel=1e-10)


# ---------------------------------------------------------------------------
# the conditional mean against slot-by-slot simulation
# ---------------------------------------------------------------------------

def _assert_same_mean(reference, delays):
    se = math.hypot(*(x.std(ddof=1) / math.sqrt(x.size) for x in (reference, delays)))
    assert abs(delays.mean() - reference.mean()) <= 4 * se


@pytest.mark.parametrize("n,alpha,groups,seed", [(4, 2, 1, 161), (4, 2, 2, 162)])
def test_static_delay_matches_slot_by_slot_reference(n, alpha, groups, seed):
    queues = groups * math.comb(n, n // alpha)
    reference = slot_by_slot_delays(
        queues, alpha, 1.0, lambda rng, count: rng.exponential(1.0, count),
        np.random.default_rng(seed), 20000,
    )
    delays = _exponential_server_delays(20000, seed + 100, n, groups, alpha, 1.0)
    _assert_same_mean(reference, delays)


def test_coop_delay_matches_slot_by_slot_reference():
    # a hit on the tagged group draws the rate of the best of G = 2 groups
    n, power = 4, 1.0

    def coop_rates(rng, count):
        return matrix_coop_rates(n, 2, power, count, rng)

    reference = slot_by_slot_delays(2, 1, 1.0, coop_rates, np.random.default_rng(163), 20000)
    delays, _ = queueing.tagged_delay_coop(
        _config("coop", n, 2, power=power, iterations=20000), np.random.default_rng(263)
    )
    _assert_same_mean(reference, delays)


def test_engines_are_deterministic():
    def runs(seed):
        rng = np.random.default_rng(seed)
        return (
            *queueing.tagged_delay_static(_config("static", 6, 2, alpha=2, iterations=500), rng),
            *queueing.tagged_delay_coop(_config("coop", 6, 2, iterations=500), rng),
            *queueing.ir_renewal_cycle(
                _config("ir", 6, rate_target=1.0, attempt_cap=4, iterations=500), rng),
        )

    for first, second in zip(runs(171), runs(171)):
        assert first.shape == (500,) and np.array_equal(first, second)


# ---------------------------------------------------------------------------
# the supported range: huge queue counts are simulated or rejected
# ---------------------------------------------------------------------------

def test_static_delay_clears_coupon_floor_at_n72():
    # C(72, 36) * H_2 = 6.6e20 slots; int64 geometric gaps saturated near 6e19
    delays = _static_delays(300, 181, n_users=72, alpha=2)
    floor = math.comb(72, 36) * 1.5
    se = delays.std(ddof=1) / math.sqrt(delays.size)
    assert delays.mean() >= floor - 4.5 * se


def test_static_delay_rejects_unrepresentable_counts():
    # C(2000, 1000) queues are past the float range: rejected before any draw
    with pytest.raises(ValueError, match="is not a finite float"):
        queueing.tagged_delay_static(_config("static", 2000, alpha=2), _NoDraws())
    # 1.8e307 queues are a float, but their product with the some hundred
    # picks each run needs is not
    with pytest.raises(ValueError, match="is not a finite float"):
        _exponential_server_delays(2, 182, n_users=1026, n_groups=1, alpha=2, packet_nats=50.0)


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
        packet_nats=packet, coherence_interval=1.0,
    )
    ratio = delays.mean() * mean_rate / packet
    assert abs(ratio - 1.0) < 0.05


def test_delay_monotone_in_power_and_packet_size():
    engines = [
        (queueing.tagged_delay_static, _config("static", 4, alpha=alpha)) for alpha in (2, 1)
    ] + [(queueing.tagged_delay_coop, _config("coop", 4))]
    for engine, config in engines:
        for seed in range(200):
            low, _ = engine(config, np.random.default_rng(seed))
            high, _ = engine(replace(config, power=2.0), np.random.default_rng(seed))
            small, _ = engine(replace(config, packet_nats=0.5), np.random.default_rng(seed))
            assert high <= low
            assert small <= low


@st.composite
def _coupled_pairs(draw):
    """A small static or coop config at one iteration, a generator seed,
    and a power raised and a packet shrunk from the config's."""
    family = draw(st.sampled_from(["static", "coop"]))
    groups = draw(st.integers(1, 3))
    if family == "coop":
        n, settings = 2 * draw(st.integers(1, 4)), {}
    else:
        n = draw(st.integers(1, 8))
        settings = {"alpha": draw(st.sampled_from(sorted({1, n} | ({2} if n % 2 == 0 else set()))))}
    config = _config(family, n, groups, coherence_interval=draw(st.floats(0.5, 2.0)),
                     power=draw(st.floats(0.1, 10.0)), packet_nats=draw(st.floats(0.01, 4.0)),
                     **settings)
    return (config, draw(st.integers(0, 2 ** 32)), draw(st.floats(1.0, 4.0)),
            draw(st.floats(0.25, 1.0)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_coupled_pairs())
def test_paired_seeds_couple_monotonically(pair):
    # at one iteration a round draws one rate per coupled queue whatever
    # came before, so raising P or shrinking S only lowers each queue's
    # hit need, and the conditional mean grows with every need
    config, seed, power_factor, packet_factor = pair
    engine = queueing.tagged_delay_static if config.family == "static" else queueing.tagged_delay_coop
    low, _ = engine(config, np.random.default_rng(seed))
    high, _ = engine(replace(config, power=config.power * power_factor), np.random.default_rng(seed))
    small, _ = engine(replace(config, packet_nats=config.packet_nats * packet_factor),
                      np.random.default_rng(seed))
    assert high <= low and small <= low


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_coupled_pairs())
def test_paired_seeds_couple_monotonically_through_the_head(pair):
    # the estimator draws a run's throughput slot from the config seed and
    # hands it to the engine as the first of the first round's rates, so
    # the round still draws the same values whatever came before
    config, seed, power_factor, packet_factor = pair
    config = replace(config, seed=seed)
    low = simcore.estimate_delay(config).delay_mean
    high = simcore.estimate_delay(replace(config, power=config.power * power_factor)).delay_mean
    small = simcore.estimate_delay(
        replace(config, packet_nats=config.packet_nats * packet_factor)).delay_mean
    assert high <= low and small <= low


@pytest.mark.parametrize("packet_nats, coherence_interval", [
    (math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan),
])
def test_delay_engines_reject_non_finite_sizes(packet_nats, coherence_interval):
    # an infinite packet would never drain, so no config of either engine
    # may carry one: building it raises
    for scheme, settings in (("static", {"alpha": 1}), ("coop", {})):
        with pytest.raises(ValueError, match="finite"):
            _config(scheme, 2, coherence_interval=coherence_interval,
                    packet_nats=packet_nats, **settings)


@pytest.mark.parametrize("engine, power, packet_nats", [
    ("coop", 1e-300, 1.0), ("static", 1.0, 1e300), ("static", 1.0, 1e17),
])
def test_delay_engines_reject_packets_past_2_53_mean_hits(engine, power, packet_nats):
    # far past the 2**20 hit budget, and past 2**53 hits too, where float64
    # could not even register a hit's drain.  No generator: the check must
    # come before any draw.
    with pytest.raises(ValueError, match=r"hits on average, S / \(Tc log1p"):
        if engine == "coop":
            queueing.tagged_delay_coop(_config("coop", 2, power=power, packet_nats=packet_nats), None)
        else:
            queueing.tagged_delay_static(
                _config("static", 2, alpha=1, power=power, packet_nats=packet_nats), None)


def test_delay_bound_counts_antennas():
    # N G L = 6 * 1 * 4 at P = 1: 1.7e6 nats need at least
    # 1.7e6 / log1p(1 + log 24) = 1.03e6 hits, under the 2**20 budget;
    # with one antenna the bound is 1.7e6 / log1p(1 + log 6) = 1.28e6
    # a config under the budget goes on to draw, which the sentinel stops
    class FirstDraw(Exception):
        pass

    def first_draw(count):
        raise FirstDraw

    def budget(antennas, packet_nats, coherence_interval):
        with pytest.raises(FirstDraw):
            queueing._coupled_queue_delay(_config(
                "static", 6, coherence_interval=coherence_interval, alpha=1,
                antennas=antennas, packet_nats=packet_nats), first_draw)

    budget(4, 1.7e6, 1.0)
    with pytest.raises(ValueError, match=r"at least 1.28e\+06 hits .* budget of 2\*\*20"):
        budget(1, 1.7e6, 1.0)
    # the coherence interval scales the budget: half as long, twice the hits
    budget(4, 0.85e6, 0.5)
    with pytest.raises(ValueError, match="budget"):
        budget(4, 0.9e6, 0.5)


def test_delay_budget_holds_when_its_rate_bound_underflows():
    # Tc log1p(P (1 + log 2)) rounds to 0 at Tc = P = 1e-200: no bound on
    # the rate is no bound on the hits, and the budget rejects the packet
    config = _config("static", 2, coherence_interval=1e-200, alpha=1, power=1e-200)
    with pytest.raises(ValueError, match=r"at least inf hits on average"):
        queueing.tagged_delay_static(config, None)


@pytest.mark.parametrize("power, rate_target", [(1.0, 1e300), (1e-300, 1.0)])
def test_ir_rejects_targets_past_2_53_mean_attempts(power, rate_target):
    # uncapped, and no generator: the check must come before any draw
    config = _config("ir", 2, power=power, rate_target=rate_target)
    with pytest.raises(ValueError, match=r"attempts on average, R / log1p\(P\), over the budget"):
        queueing.ir_renewal_cycle(config, None)
    # a cap ends every cycle, so the same target runs
    attempts, decoded, _ = queueing.ir_renewal_cycle(
        replace(config, attempt_cap=3, iterations=4), np.random.default_rng(0))
    assert np.all(attempts == 3) and not decoded.any()


def test_ir_attempt_budget_is_2_20_lower_bound_attempts():
    # R / log1p(P) attempts at least: 2**20 log 2 nats at P = 1 sit at the
    # budget, and 1 % more is rejected
    budget = 2 ** 20 * math.log(2.0)
    with pytest.raises(ValueError, match=r"1.06e\+06 attempts"):
        queueing.ir_renewal_cycle(_config("ir", 2, rate_target=1.01 * budget), None)
    # a cap past the budget does not waive it
    capped = _config("ir", 2, rate_target=1e12, attempt_cap=2 ** 21)
    with pytest.raises(ValueError, match=r"2.1e\+06 attempts on average, min\(cap, R / log1p\(P\)\)"):
        queueing.ir_renewal_cycle(capped, None)
    # at P = 0 the bound would divide by zero: no config carries it
    with pytest.raises(ValueError, match="power"):
        _config("ir", 2, power=0.0, rate_target=1.0)
    attempts, *_ = queueing.ir_renewal_cycle(
        _config("ir", 2, rate_target=1.0, attempt_cap=1), np.random.default_rng(0))
    assert attempts.tolist() == [1]


# ---------------------------------------------------------------------------
# retransmission renewals
# ---------------------------------------------------------------------------

def test_ir_delay_trivial_cases():
    attempts, *_ = queueing.ir_renewal_cycle(
        _config("ir", 3, rate_target=1e-12, iterations=50), np.random.default_rng(131)
    )
    assert np.all(attempts == 1)
    attempts, decoded, _ = queueing.ir_renewal_cycle(
        _config("ir", 3, rate_target=50.0, attempt_cap=1, iterations=50),
        np.random.default_rng(132),
    )
    assert np.all(attempts == 1) and not decoded.any()


@pytest.mark.parametrize("n_users, seed", [(1, 135), (4, 136)])
def test_ir_mean_attempts_match_exact_reference(n_users, seed):
    # E[tau] = 1 + sum_m P(accumulated information after m attempts <= target),
    # the sum evaluated exactly by grid convolution of the per-attempt law
    target, runs = 0.5, 40000
    attempts, decoded, _ = queueing.ir_renewal_cycle(
        _config("ir", n_users, rate_target=target, iterations=runs), np.random.default_rng(seed)
    )
    assert decoded.all()
    se = attempts.std(ddof=1) / math.sqrt(runs)
    assert abs(attempts.mean() - ir_expected_attempts(n_users, target, 1.0)) <= 3 * se


# ---------------------------------------------------------------------------
# cooperation
# ---------------------------------------------------------------------------

def test_coop_delay_single_slot_for_tiny_packet():
    delays, _ = queueing.tagged_delay_coop(
        _config("coop", 4, packet_nats=1e-12, iterations=50), np.random.default_rng(141)
    )
    assert np.all(delays == 1)


def test_coop_delay_follows_service_formula():
    # mean slots ~ (Tc + S/E[min rate])/Tc once several slots are needed
    n, power = 8, 1.0
    mean_rate = coop_throughput(n, 1, power) / (n // 2)

    packet = 20 * mean_rate
    delays, _ = queueing.tagged_delay_coop(
        _config("coop", n, power=power, packet_nats=packet, iterations=3000),
        np.random.default_rng(143),
    )
    predicted = 1.0 + packet / mean_rate
    assert abs(delays.mean() - predicted) <= 0.05 * predicted


def test_coop_delay_scales_with_group_count():
    # E[T] = G E[K_G]: the tagged group is served one slot in G, at the rate
    # of the best of G groups, so it needs fewer hits than alone
    single, _ = queueing.tagged_delay_coop(
        _config("coop", 4, 1, packet_nats=2.0, iterations=4000), np.random.default_rng(144)
    )
    multi, _ = queueing.tagged_delay_coop(
        _config("coop", 4, 4, packet_nats=2.0, iterations=4000), np.random.default_rng(145)
    )
    expected = 4 * renewal_expected_hits(2.0, coop_rate_cdf(4, 4, 1.0)) / renewal_expected_hits(
        2.0, coop_rate_cdf(4, 1, 1.0))
    assert abs(multi.mean() / single.mean() - expected) <= 0.1 * expected


# ---------------------------------------------------------------------------
# each entry runs its own scheme family only
# ---------------------------------------------------------------------------

class _NoDraws:
    """Generator stand-in that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name})")


_FAMILY_CONFIGS = {
    "static": [_config("static", 4, alpha=2), _config("static", 4, 2, alpha=2)],
    "coop": [_config("coop", 4), _config("coop", 4, 2)],
    "ir": [_config("ir", 4, rate_target=1.0)],
}
_ENTRIES = {
    "static": "tagged_delay_static",
    "coop": "tagged_delay_coop",
    "ir": "ir_renewal_cycle",
}


@pytest.mark.parametrize("family, config", [
    (family, config) for family in ("static", "coop", "ir")
    for other, configs in _FAMILY_CONFIGS.items() if other != family for config in configs
], ids=lambda value: getattr(value, "scheme", value))
def test_estimators_never_run_an_entry_on_another_family(family, config, monkeypatch):
    # the entries trust SimConfig and check no family; the estimators'
    # dispatch on config.family is what keeps each to its own
    def refuse(*args):
        raise AssertionError(f"{_ENTRIES[family]} ran a {config.scheme} config")

    monkeypatch.setattr(queueing, _ENTRIES[family], refuse)
    simcore.estimate_throughput(config)
    simcore.estimate_delay(config)
