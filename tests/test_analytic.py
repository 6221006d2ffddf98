import math

import numpy as np
import pytest
from scipy import special

from mcastsim import analytic
from mcastsim.analytic import (
    OrderStatSpec,
    ServiceLaw,
    UnsupportedScalingError,
    UnsupportedSizeError,
)

from oracles import (
    antenna_order_stat_sf_sum,
    chisquare_cdf_sum,
    coupon_reference,
    ei_reference,
    order_stat_sf_sum,
    throughput_reference,
)


# ---------------------------------------------------------------------------
# exponential integral
# ---------------------------------------------------------------------------

def test_ei_against_quadrature():
    for x in (0.1, 1.0, 2.5, 5.0, 5.9, 6.0, 6.1, 20.0, 50.0):
        assert abs(analytic.expint_ei(-x) - ei_reference(-x)) <= 1e-10


def test_ei_minus_one_value():
    # frozen from the quadrature reference
    assert analytic.expint_ei(-1.0) == pytest.approx(-0.21938393439552026, abs=1e-10)


def test_ei_large_argument_asymptote():
    # Ei(-x) ~ -e^{-x}/x (1 + eps) with eps vanishing
    ratio = analytic.expint_ei(-50.0) / (-math.exp(-50.0) / 50.0)
    assert abs(ratio - 1.0) < 0.03


def test_ei_monotone_toward_zero():
    xs = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0)
    values = [analytic.expint_ei(-x) for x in xs]
    assert all(v < 0 for v in values)
    assert all(a < b for a, b in zip(values, values[1:]))


def test_ei_rejects_nonnegative():
    for x in (0.0, 1.0):
        with pytest.raises(ValueError):
            analytic.expint_ei(x)


# ---------------------------------------------------------------------------
# order statistics and chi-square CDFs
# ---------------------------------------------------------------------------

def test_order_stat_min_of_two():
    spec = OrderStatSpec(n_users=2, position=1)
    assert analytic.order_stat_cdf(spec, 0.5) == pytest.approx(1 - math.exp(-1), abs=1e-12)


def test_order_stat_single_user_is_exponential():
    spec = OrderStatSpec(n_users=1, position=1)
    for x in (0.0, 0.3, 1.0, 4.0):
        assert analytic.order_stat_cdf(spec, x) == pytest.approx(1 - math.exp(-x), abs=1e-12)


def test_order_stat_max_of_four():
    spec = OrderStatSpec(n_users=4, position=4)
    assert analytic.order_stat_cdf(spec, 1.0) == pytest.approx(0.15966130015118526, abs=1e-12)


def test_order_stat_is_valid_cdf():
    for spec in (
        OrderStatSpec(5, 3),
        OrderStatSpec(8, 1, 2),
        OrderStatSpec(6, 6, 3),
        OrderStatSpec(9, 7),
    ):
        xs = np.linspace(0.0, 25.0, 300)
        vals = [analytic.order_stat_cdf(spec, x) for x in xs]
        assert vals[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)


def test_order_stat_rejects_bad_spec():
    with pytest.raises(ValueError):
        OrderStatSpec(4, 5)
    with pytest.raises(ValueError):
        OrderStatSpec(4, 0)
    with pytest.raises(ValueError):
        analytic.order_stat_cdf(OrderStatSpec(4, 2), -0.1)


@pytest.mark.parametrize("n", [2, 32, 200, 1000])
def test_order_stat_sf_matches_binomial_sums(n):
    # the incomplete-beta survival against the exact-integer binomial sums
    xs = np.concatenate(([0.0], np.geomspace(1e-5, 30.0, 60)))
    for pos in sorted({1, n // 2 + 1, n}):
        for groups in (1, 5):
            for x in xs:
                sf = analytic._order_stat_sf(n, pos, groups, math.exp(-x))
                assert abs(sf - order_stat_sf_sum(n, pos, groups, x)) <= 1e-12
                sf = analytic._order_stat_sf(n, pos, groups, special.gammaincc(3, 3 * x))
                assert abs(sf - antenna_order_stat_sf_sum(n, pos, groups, 3, x)) <= 1e-12
                cdf = analytic.order_stat_cdf(OrderStatSpec(n, pos, groups), x)
                assert abs(cdf - (1.0 - order_stat_sf_sum(n, pos, groups, x))) <= 1e-12


def test_chisquare_cdf_matches_log_space_sum():
    for antennas in (1, 2, 3, 8, 40):
        for x in np.geomspace(1e-4, 20.0, 50):
            assert abs(analytic.chisquare_cdf(antennas, x) - chisquare_cdf_sum(antennas, x)) <= 1e-14


def test_chisquare_cdf_points():
    assert analytic.chisquare_cdf(1, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert analytic.chisquare_cdf(2, 1.0) == pytest.approx(1 - 3 * math.exp(-2), abs=1e-12)
    assert analytic.chisquare_cdf(8, 0.0) == 0.0
    with pytest.raises(ValueError):
        analytic.chisquare_cdf(0, 1.0)


# ---------------------------------------------------------------------------
# closed-form throughputs
# ---------------------------------------------------------------------------

def test_single_user_throughput():
    assert analytic.static_throughput_closed_form(1, 1, 1.0) == pytest.approx(
        0.5963473623231941, rel=1e-9
    )


def test_worst_user_two_users_matches_scaled_ei():
    # N=2, alpha=1 collapses to -2 e^2 Ei(-2)
    expected = -2 * math.exp(2) * analytic.expint_ei(-2.0)
    assert analytic.static_throughput_closed_form(2, 1, 1.0) == pytest.approx(expected, rel=1e-10)


def test_closed_form_monotone_in_power():
    values = [analytic.static_throughput_closed_form(6, 2, p) for p in (0.1, 0.5, 1.0, 5.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 12, 16])
def test_closed_form_matches_density_quadrature(n):
    divisors = [a for a in range(1, n + 1) if n % a == 0]
    for alpha in divisors:
        for power in (0.1, 1.0, 10.0):
            closed = analytic.static_throughput_closed_form(n, alpha, power)
            reference = throughput_reference(n, alpha, power)
            assert abs(closed - reference) <= 1e-6 * abs(reference)


@pytest.mark.parametrize("n", [64, 128])
def test_quadrature_matches_closed_form_at_large_n(n):
    for alpha in (1, 2, n):
        assert analytic.throughput_quadrature(n, alpha, 1.0) == pytest.approx(
            analytic.static_throughput_closed_form(n, alpha, 1.0), rel=1e-9
        )


def test_closed_form_rejects_bad_alpha():
    with pytest.raises(ValueError):
        analytic.static_throughput_closed_form(10, 3, 1.0)


def test_quadrature_evaluator_handles_groups_and_antennas():
    # G > 1 against the density-based reference
    for groups in (1, 2, 3):
        val = analytic.throughput_quadrature(4, 2, 1.0, n_groups=groups)
        ref = throughput_reference(4, 2, 1.0, groups=groups)
        assert val == pytest.approx(ref, rel=1e-7)
    # L > 1, N = 1: plain single-user mean over the averaged-gain law
    from oracles import expected_log1p_reference

    val = analytic.throughput_quadrature(1, 1, 1.0, antennas=2)
    ref = expected_log1p_reference(1.0, lambda x: analytic.chisquare_cdf(2, x))
    assert val == pytest.approx(ref, rel=1e-7)


def test_multigroup_worst_reduces_to_single_group():
    for n in (1, 2, 5):
        assert analytic.multigroup_worst_throughput(n, 1, 1.0) == pytest.approx(
            analytic.static_throughput_closed_form(n, 1, 1.0), rel=1e-10
        )


def test_multigroup_worst_harmonic_limit():
    # large N, P=1, G=4: approaches P * (1 + 1/2 + 1/3 + 1/4)
    value = analytic.multigroup_worst_throughput(256, 4, 1.0)
    assert value == pytest.approx(25.0 / 12.0, rel=0.01)


def test_multigroup_worst_increasing_in_groups():
    values = [analytic.multigroup_worst_throughput(8, g, 1.0) for g in (1, 2, 4, 8)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_multigroup_best_values():
    assert analytic.multigroup_best_throughput(1, 1, 1.0) == pytest.approx(
        0.5963473623231941, rel=1e-9
    )
    # frozen from the density quadrature of the max of two gains
    assert analytic.multigroup_best_throughput(2, 1, 1.0) == pytest.approx(
        0.8313661077581654, rel=1e-9
    )
    assert analytic.multigroup_best_throughput(2, 1, 1.0) == pytest.approx(
        throughput_reference(2, 2, 1.0), rel=1e-9
    )


def test_multigroup_best_increasing_and_capped():
    values = [analytic.multigroup_best_throughput(n, g, 1.0) for n, g in ((1, 1), (2, 1), (2, 2), (4, 2))]
    assert all(a < b for a, b in zip(values, values[1:]))
    with pytest.raises(UnsupportedSizeError):
        analytic.multigroup_best_throughput(1001, 1, 1.0)
    # the quadrature path keeps working beyond the cap
    assert analytic.throughput_quadrature(1024, 1024, 1.0, n_groups=2) > 0


# ---------------------------------------------------------------------------
# service law
# ---------------------------------------------------------------------------

def test_service_pmf_values():
    assert analytic.service_time_pmf(ServiceLaw(1.0, 1.0), 1) == pytest.approx(
        math.exp(-1), abs=1e-12
    )
    # mu*C -> 0 limit: the first slot almost surely finishes the packet
    assert analytic.service_time_pmf(ServiceLaw(1e-12, 1.0), 1) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        analytic.service_time_pmf(ServiceLaw(1.0, 1.0), 0)
    with pytest.raises(ValueError):
        ServiceLaw(0.0, 1.0)


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5, 7.0])
def test_service_pmf_normalizes(lam):
    law = ServiceLaw(lam, 1.0)
    cutoff = math.ceil(lam) + int(40 * math.sqrt(lam)) + 40
    total = math.fsum(analytic.service_time_pmf(law, k) for k in range(1, cutoff + 1))
    assert abs(total - 1.0) < 1e-12


def test_service_pmf_mean_identity():
    law = ServiceLaw(2.5, 1.0)
    cutoff = 140
    mean = math.fsum(k * analytic.service_time_pmf(law, k) for k in range(1, cutoff + 1))
    assert mean == pytest.approx(3.5, abs=1e-9)


# ---------------------------------------------------------------------------
# coupon collector
# ---------------------------------------------------------------------------

def test_coupon_degenerate_and_classic_cases():
    assert analytic.coupon_collector_expected_trials(5, 1, 3) == 15.0
    assert analytic.coupon_collector_expected_trials(2, 2, 1) == pytest.approx(3.0, abs=1e-9)
    assert analytic.coupon_collector_expected_trials(3, 3, 1) == pytest.approx(5.5, abs=1e-9)


def test_coupon_matches_markov_oracle():
    for q in (2, 3, 5, 10):
        for coupled in (1, 2, 3):
            if coupled > q:
                continue
            for m in (1, 2, 3):
                integral = analytic.coupon_collector_expected_trials(q, coupled, m)
                markov = analytic.coupon_collector_markov(q, coupled, m)
                linear = coupon_reference(q, coupled, m)
                assert abs(integral - markov) <= 1e-4 * markov
                assert markov == pytest.approx(linear, rel=1e-10)


def test_coupon_rejects_bad_instances():
    with pytest.raises(ValueError):
        analytic.coupon_collector_expected_trials(2, 3, 1)
    with pytest.raises(ValueError):
        analytic.coupon_collector_expected_trials(2, 2, 0)
    with pytest.raises(ValueError):
        analytic.coupon_collector_markov(2, 3, 1)


# ---------------------------------------------------------------------------
# binomials and growth laws
# ---------------------------------------------------------------------------

def test_binomial_exact_region_and_boundary():
    assert analytic.binomial(10, 5) == 252.0
    assert analytic.binomial(5, 7) == 0.0
    exact = float(math.comb(60, 30))
    assert analytic.binomial(60, 30) == exact
    via_lgamma = math.exp(math.lgamma(61) - 2 * math.lgamma(31))
    assert abs(via_lgamma - exact) <= 1e-12 * exact
    assert analytic.binomial(61, 30) == pytest.approx(float(math.comb(61, 30)), rel=1e-12)


def test_predicted_scaling_pinned_values():
    assert analytic.predicted_scaling("median", "delay", 10) == 252.0
    assert analytic.predicted_scaling("worst", "delay", 40) == 40.0
    assert analytic.predicted_scaling("ir", "delay", math.e ** math.e) == pytest.approx(
        1.0, abs=1e-12
    )


def test_predicted_scaling_directions():
    assert analytic.predicted_scaling("worst", "throughput", 50) == 1.0
    assert analytic.predicted_scaling("worst", "throughput", 50, n_groups=4) == pytest.approx(
        25.0 / 12.0
    )
    assert analytic.predicted_scaling("best", "throughput", 100) == pytest.approx(
        math.log(math.log(100))
    )
    assert analytic.predicted_scaling("coop", "delay", 16) == 1.0
    assert analytic.predicted_scaling("coop", "delay", 16, n_groups=5) == 5.0
    # multi-antenna worst user grows as N^((L-1)/L)
    v16 = analytic.predicted_scaling("worst", "throughput", 16, antennas=2)
    v64 = analytic.predicted_scaling("worst", "throughput", 64, antennas=2)
    assert v64 / v16 == pytest.approx(2.0)


def test_predicted_scaling_unsupported_pairs():
    with pytest.raises(UnsupportedScalingError):
        analytic.predicted_scaling("worst", "delay", 16, antennas=2)
    with pytest.raises(UnsupportedScalingError):
        analytic.predicted_scaling("ir", "delay", 16, n_groups=2)
    with pytest.raises(UnsupportedScalingError):
        analytic.predicted_scaling("median", "delay", 9)
    with pytest.raises(UnsupportedScalingError):
        analytic.predicted_scaling("superposition", "delay", 16)
    with pytest.raises(UnsupportedScalingError):
        analytic.predicted_scaling("worst", "latency", 16)
