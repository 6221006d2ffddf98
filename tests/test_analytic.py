import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from mcastsim import analytic
from mcastsim.analytic import UnsupportedSizeError

from oracles import (
    OrderStatSpec,
    ServiceLaw,
    antenna_order_stat_sf_sum,
    assert_close_to_exact,
    ball_count_sequences,
    chisquare_cdf,
    chisquare_cdf_sum,
    closed_form_reference,
    coop_throughput,
    coupon_reference,
    ei_reference,
    exact_binomial_tail,
    exact_poisson_tails,
    expected_log1p_reference,
    fixed_fraction_quad_throughput,
    multigroup_best_throughput,
    multigroup_worst_throughput,
    order_stat_cdf,
    order_stat_sf_sum,
    scipy_quadrature_throughput,
    service_time_pmf,
    throughput_reference,
)


# ---------------------------------------------------------------------------
# order statistics and chi-square CDFs
# ---------------------------------------------------------------------------

def test_order_stat_min_of_two():
    spec = OrderStatSpec(n_users=2, position=1)
    assert order_stat_cdf(spec, 0.5) == pytest.approx(1 - math.exp(-1), abs=1e-12)


def test_order_stat_single_user_is_exponential():
    spec = OrderStatSpec(n_users=1, position=1)
    for x in (0.0, 0.3, 1.0, 4.0):
        assert order_stat_cdf(spec, x) == pytest.approx(1 - math.exp(-x), abs=1e-12)


def test_order_stat_max_of_four():
    spec = OrderStatSpec(n_users=4, position=4)
    assert order_stat_cdf(spec, 1.0) == pytest.approx(0.15966130015118526, abs=1e-12)


def test_order_stat_is_valid_cdf():
    for spec in (
        OrderStatSpec(5, 3),
        OrderStatSpec(8, 1, 2),
        OrderStatSpec(6, 6, 3),
        OrderStatSpec(9, 7),
    ):
        xs = np.linspace(0.0, 25.0, 300)
        vals = [order_stat_cdf(spec, x) for x in xs]
        assert vals[0] == 0.0
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)


def test_order_stat_rejects_bad_spec():
    with pytest.raises(ValueError):
        OrderStatSpec(4, 5)
    with pytest.raises(ValueError):
        OrderStatSpec(4, 0)
    with pytest.raises(ValueError):
        order_stat_cdf(OrderStatSpec(4, 2), -0.1)


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
                cdf = order_stat_cdf(OrderStatSpec(n, pos, groups), x)
                assert abs(cdf - (1.0 - order_stat_sf_sum(n, pos, groups, x))) <= 1e-12


def test_order_stat_sf_on_arrays_equals_scalar_calls():
    xs = np.concatenate(([0.0], np.geomspace(1e-5, 30.0, 40)))
    for n, pos in ((1, 1), (10, 6), (200, 1), (200, 101), (1000, 1000)):
        for groups in (1, 5):
            for user_sf in (np.exp(-xs), special.gammaincc(3, 3 * xs)):
                sf = analytic._order_stat_sf(n, pos, groups, user_sf)
                assert sf.shape == xs.shape
                assert np.array_equal(
                    sf, [analytic._order_stat_sf(n, pos, groups, float(u)) for u in user_sf]
                )


def test_order_stat_sf_saturates_without_warnings():
    # the best of 5 groups' maxima of 1000 gains: sf is exactly 1 below
    # x of about 3, where log1p(-sf) is -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sf = analytic._order_stat_sf(1000, 1000, 5, np.exp(-np.linspace(0.0, 40.0, 81)))
        assert sf[0] == 1.0 and np.sum(sf == 1.0) > 1 and np.all(sf[1:] <= sf[:-1])
        assert analytic._order_stat_sf(1000, 1000, 5, 1.0) == 1.0
        value = analytic.throughput_quadrature(1000, 1000, 1.0, n_groups=5)
    assert value == pytest.approx(fixed_fraction_quad_throughput(1000, 1000, 1.0, 5), rel=1e-10)


def test_chisquare_cdf_matches_log_space_sum():
    for antennas in (1, 2, 3, 8, 40):
        for x in np.geomspace(1e-4, 20.0, 50):
            assert abs(chisquare_cdf(antennas, x) - chisquare_cdf_sum(antennas, x)) <= 1e-14


def test_chisquare_cdf_points():
    assert chisquare_cdf(1, 1.0) == pytest.approx(1 - math.exp(-1), abs=1e-12)
    assert chisquare_cdf(2, 1.0) == pytest.approx(1 - 3 * math.exp(-2), abs=1e-12)
    assert chisquare_cdf(8, 0.0) == 0.0
    with pytest.raises(ValueError):
        chisquare_cdf(0, 1.0)


# ---------------------------------------------------------------------------
# integer-parameter binomial, Poisson and Gamma laws
# ---------------------------------------------------------------------------

# user survival values from 0 through the subnormals, the deep tails and the
# bulk to 1
_SURVIVALS = np.concatenate((
    [0.0, 5e-324, 1e-300], np.exp(-np.geomspace(1e-9, 700.0, 70)),
    np.linspace(0.01, 0.99, 50), [1 - 2 ** -52, 1.0]))


@pytest.mark.parametrize("n", [2, 3, 5, 12, 32, 48, 49, 64, 200, 1000])
def test_order_stat_sf_is_the_binomial_tail_at_every_position(n):
    # P(pos-th smallest > x) = P(Bin(n, s) >= n - pos + 1), to 1e-12 relative
    # where it is at least 1e-290 and absolute below
    for pos in range(1, n + 1):
        a = n - pos + 1
        assert_close_to_exact(
            analytic._order_stat_sf(n, pos, 1, _SURVIVALS), special.betainc(a, pos, _SURVIVALS),
            lambda i: exact_binomial_tail(n, a, _SURVIVALS[i]), rtol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 16, 31, 32, 33, 100, 1000, 10 ** 4, 10 ** 5])
def test_poisson_tails_are_the_incomplete_gamma_functions(k):
    # P(X >= k) = P(k, t) and P(X < k) = Q(k, t), each to 1e-12 relative,
    # from the deep lower tail through the mean to the deep upper tail
    t = np.concatenate((np.geomspace(1e-6, 50.0 * k, 120),
                        k + math.sqrt(k) * np.linspace(-8.0, 8.0, 33)))
    t = t[t > 0]
    log_p, log_q, log_pmf = analytic._poisson_log_tails(k, t)
    assert_close_to_exact(np.exp(log_p), special.gammainc(k, t),
                          lambda i: exact_poisson_tails(k, t[i])[0], rtol=1e-12)
    assert_close_to_exact(np.exp(log_q), special.gammaincc(k, t),
                          lambda i: exact_poisson_tails(k, t[i])[1], rtol=1e-12)
    # P(X = k) from its log, where it does not underflow
    pmf = np.exp(-t + k * np.log(t) - math.lgamma(k + 1)) if k <= 100 else None
    if pmf is not None:
        keep = pmf > 1e-250
        assert np.allclose(np.exp(log_pmf[keep]), pmf[keep], rtol=1e-12, atol=0)


def test_poisson_tails_broadcast_over_needs():
    ks = np.array([1, 3, 40, 700])[:, None]
    t = np.geomspace(0.01, 5000.0, 30)
    log_p, log_q, _ = analytic._poisson_log_tails(ks, t)
    assert log_p.shape == log_q.shape == (4, 30)
    for row, k in enumerate(ks[:, 0]):
        alone = analytic._poisson_log_tails(int(k), t)
        assert np.array_equal(log_p[row], alone[0]) and np.array_equal(log_q[row], alone[1])


def _gamma_tails(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.concatenate((rng.random(400), 10.0 ** -rng.uniform(1, 300, 100),
                           1 - 10.0 ** -rng.uniform(1, 15, 50)))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 25, 32, 64, 100, 512])
def test_gamma_inverses_match_scipy(k):
    # Q(L, y) = v for L <= 8 antennas and P(N/2, y) = p for relays up to
    # N/2 = 512, each both ways, to 1e-13 relative
    tail = _gamma_tails(k)
    for upper, inverse in ((True, special.gammainccinv), (False, special.gammaincinv)):
        got = analytic._gamma_inverse(k, tail, upper)
        want = inverse(k, tail)
        assert np.all(abs(got - want) <= 1e-13 * want), (upper, np.max(abs(got / want - 1)))
        assert analytic._gamma_inverse(k, np.array([0.0, 1.0]), upper).tolist() == (
            [math.inf, 0.0] if upper else [0.0, math.inf])


def test_gamma_inverse_is_elementwise():
    # a value's inverse does not depend on the batch it is drawn in
    tail = _gamma_tails(3)[::11]
    for k, upper in ((3, True), (32, False), (512, False)):
        whole = analytic._gamma_inverse(k, tail.reshape(-1, 2), upper)
        assert whole.shape == (tail.size // 2, 2)
        alone = [analytic._gamma_inverse(k, np.array([v]), upper)[0] for v in tail]
        assert np.array_equal(whole.ravel(), alone)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_ball_count_table_is_the_exact_count(m):
    # P(T > t) is the share of the m^t ball sequences that leave every bin
    # below m, for t = 0..m(m - 1); one more ball always fills a bin
    counts = ball_count_sequences(m)
    assert counts[-1] == 0
    sf = analytic._ball_count_sf(m)
    assert sf.shape == (m * (m - 1) + 1,)
    exact = np.array([c / m ** t for t, c in enumerate(counts[:-1])])
    assert np.all(abs(sf - exact) <= 1e-14 * exact), np.max(abs(sf / exact - 1))


@pytest.mark.parametrize("m", [2, 3, 6, 16, 52])
def test_ball_count_inverse_counts_the_table_entries_above_the_uniform(m):
    # T = #{t : P(T > t) > u} through the guide, at every table value (some
    # on a cell edge, as 1/2 at m = 2), its neighbours and random uniforms
    sf = analytic._ball_count_sf(m)
    assert np.all(np.diff(sf) <= 0)
    u = np.concatenate([sf, np.nextafter(sf, 0), np.nextafter(sf, 2), [0.0],
                        np.random.default_rng(m).random(20000)])
    u = u[u < 1].reshape(-1, 1)
    want = (sf[None, :] > u).sum(axis=1).reshape(-1, 1)
    assert np.array_equal(analytic._ball_count_inverse(m, u), want)


@pytest.mark.parametrize("m", [2, 3, 6, 16, 24, 32])
def test_ball_count_moments_are_the_weakest_relay_moments(m):
    # Y = Gamma(T, 1)/m is the least of m Gamma(m, 1) sums: E[Y] = E[T]/m
    # and E[Y^2] = E[T (T + 1)]/m^2 match the integrals of P(Y > y) =
    # Q(m, y)^m and of 2 y Q(m, y)^m
    sf = analytic._ball_count_sf(m)
    t = np.arange(sf.size)
    mean = math.fsum(sf) / m
    second = math.fsum(2 * (t + 1) * sf) / m ** 2

    def moment(weight):
        return sum(integrate.quad(lambda y: weight(y) * special.gammaincc(m, y) ** m, lo, hi,
                                  epsabs=0, epsrel=1e-13, limit=200)[0]
                   for lo, hi in ((0, m), (m, np.inf)))

    assert mean == pytest.approx(moment(lambda y: 1.0), rel=1e-12)
    assert second == pytest.approx(moment(lambda y: 2 * y), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 10, 16, 32, 64, 128, 500, 1000])
def test_quadrature_matches_the_scipy_integrand(n):
    # the numpy evaluators move no throughput by more than 1e-13 from the
    # same rule on scipy.special's incomplete beta and gamma functions
    for alpha in sorted(a for a in {1, 2, n} if n % a == 0):
        for groups in (1, 5):
            for antennas in (1, 3):
                for power in (0.1, 1.0, 10.0):
                    value = analytic.throughput_quadrature(n, alpha, power, groups, antennas)
                    reference = scipy_quadrature_throughput(n, alpha, power, groups, antennas)
                    assert value == pytest.approx(reference, rel=1e-13, abs=0)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 32, 64, 104, 200])
def test_coop_quadrature_matches_scipy(n):
    # the cooperative rated gain min(X, Y/m), best of G groups, against
    # scipy's adaptive quadrature over scipy.special's incomplete beta and
    # gamma functions
    for groups in (1, 5):
        for power in (0.1, 1.0, 10.0):
            value = analytic.throughput_quadrature(n, None, power, groups)
            assert value == pytest.approx(coop_throughput(n, groups, power), rel=1e-12, abs=0)


@pytest.mark.parametrize("ks", [[1, 2, 3], [1, 5, 32], [1, 33, 1000], [40, 10 ** 4, 10 ** 5]])
def test_coupon_poisson_logs_hold_their_absolute_precision(ks):
    # the coupon integrand reads P(X >= k) to an absolute 1e-14: one minus
    # the finite sum where the largest need is at most 400
    # (_FINITE_SUM_MAX_K), as in the first two cases; above it, as in the
    # last two, the exact tails in the bulk, and 0 or 1 where the tail
    # underflows or its complement is below e^-60
    ks = np.array(ks)
    t = np.geomspace(1e-4, 1e7, 500)
    got = np.exp(analytic._poisson_log_sf(ks, t))
    want = np.exp(analytic._poisson_log_tails(ks[:, None], t)[0])
    assert np.all(abs(got - want) <= 1e-14)


def test_coupon_memory_is_bounded_in_the_pattern_count():
    # 1446 patterns of two needs up to 199 are integrated a few hundred nodes
    # at a time, in a few arrays of 2^18 floats (2 MB); evaluated a whole
    # level at a time, this case peaks at 20 MB
    needs = np.random.default_rng(5).integers(1, 200, (1500, 2))
    tracemalloc.start()
    try:
        analytic.coupon_collector_expected_picks(6, needs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak


# ---------------------------------------------------------------------------
# closed-form throughputs
# ---------------------------------------------------------------------------

def test_single_user_throughput():
    assert analytic.static_throughput_closed_form(1, 1, 1.0) == pytest.approx(
        0.5963473623231941, rel=1e-9
    )


def test_worst_user_two_users_matches_scaled_ei():
    # N=2, alpha=1 collapses to -2 e^2 Ei(-2)
    expected = -2 * math.exp(2) * ei_reference(-2.0)
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


@pytest.mark.parametrize("power", [1e20, 1e40, 1e60])
@pytest.mark.parametrize("n, alpha", [(2, 1), (10, 2), (10, 10), (32, 2)])
def test_quadrature_settles_at_high_power(n, alpha, power):
    # the lower end of the window must sit below where P/(1 + P x) sf(x)
    # still carries weight, about x = 1/P
    assert analytic.throughput_quadrature(n, alpha, power) == pytest.approx(
        analytic.static_throughput_closed_form(n, alpha, power), rel=1e-10
    )


_CLOSED_FORM_CASES = {
    # the grid of `mcastsim verify`
    "verify": [(n, alpha, power) for n in (2, 4, 8, 16, 32) for alpha in sorted({1, 2, n})
               for power in (0.1, 1.0, 10.0)],
    **{f"N={n}": [(n, alpha, power) for alpha in (1, 2, 4, n) for power in (0.1, 1.0, 10.0)]
       for n in (64, 128, 200, 256)},
    # x = a/P from 1e-60 to 3e-19, far below the crossover
    "high-power": [(n, alpha, power) for n in (2, 8, 10, 32) for alpha in sorted({1, 2, n})
                   for power in (1e20, 1e60)],
    # throughputs of the order of P, which the scale's bits of 1 + N/P resolve
    "low-power": [(n, alpha, power) for n in (2, 8, 10, 32) for alpha in sorted({1, 2, n})
                  for power in (1e-6, 1e-20)],
}


@pytest.mark.parametrize("cases", _CLOSED_FORM_CASES.values(), ids=_CLOSED_FORM_CASES)
def test_closed_form_is_the_mpmath_sum(cases):
    # the fixed-point sum is within a few 2^-64 of its value, so it rounds
    # as the all-mpmath sum does unless the two straddle a rounding boundary
    for n, alpha, power in cases:
        reference = closed_form_reference(n, alpha, power)
        assert abs(analytic.static_throughput_closed_form(n, alpha, power) - reference) <= (
            math.ulp(reference)), (n, alpha, power)


@pytest.mark.parametrize("bits", [66, 200, 470, 1100])
def test_scaled_exp_e1_holds_to_a_unit_from_the_crossover_up(bits):
    # the scales the closed form uses run from 66 bits (alpha = 1) to about
    # 470 at the cap, and past 1000 at P below 1e-300.  From the crossover,
    # x = bits/16, the depth must hold both where it is large against x and
    # where x reaches or passes it (4 sqrt(n x) = bits log 2 stops short
    # there); den = 3602879701896397 makes x = a/P at P = 0.1
    for den in (1, 3602879701896397):
        for x in np.geomspace(bits / 16, 2e4, 40):
            num = math.ceil(x * den)
            value = analytic._scaled_exp_e1(num, den, bits, analytic._exp_e1_depth(num / den, bits))
            with mpmath.workdps(40 + math.ceil(bits * math.log10(2))):
                z = mpmath.mpf(num) / den
                exact = mpmath.ldexp(mpmath.exp(z) * mpmath.e1(z), bits)
            assert abs(value - exact) < 2, (den, num / den)


def test_closed_form_takes_the_continued_fraction_at_n_200(monkeypatch):
    # at N = 200, alpha = 2, P = 1, x = a/P runs from 100 to 200, all above
    # the crossover, so no term reaches mpmath's exponential integrals
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath's exponential integral was called")

    monkeypatch.setattr(mpmath, "ei", refuse)
    monkeypatch.setattr(mpmath, "e1", refuse)
    assert analytic.static_throughput_closed_form(200, 2, 1.0) == 53.0140179546242


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 10, 16, 32, 64, 128, 500, 1000])
def test_quadrature_matches_adaptive_quadrature(n):
    # the double-exponential rule against scipy's adaptive quadrature
    for alpha in sorted(a for a in {1, 2, n} if n % a == 0):
        for groups in (1, 5):
            for antennas in (1, 3):
                for power in (0.1, 1.0, 10.0):
                    value = analytic.throughput_quadrature(n, alpha, power, groups, antennas)
                    assert value == pytest.approx(
                        fixed_fraction_quad_throughput(n, alpha, power, groups, antennas),
                        rel=1e-10,
                    )


def test_double_exponential_rule_integrals():
    integrate = analytic._integrate_0_inf
    assert integrate(lambda x: np.exp(-x)) == pytest.approx(1.0, rel=1e-14)
    assert integrate(lambda x: np.exp(-1e4 * x)) == pytest.approx(1e-4, rel=1e-14)
    assert integrate(lambda x: x ** 2 * np.exp(-x / 50)) == pytest.approx(2 * 50 ** 3, rel=1e-13)
    assert integrate(lambda x: np.exp(-x) / np.sqrt(x)) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert integrate(lambda x: (1 + x) ** -3.0) == pytest.approx(0.5, rel=1e-13)
    assert integrate(np.zeros_like) == 0.0


def test_double_exponential_rule_is_the_same_in_any_block():
    # levels 0 to 2 come from one integrand call when they fit one block,
    # and a node at a time when each call may hold one node per row; only
    # the order of the sums differs
    def integrand(x):
        return np.stack([np.exp(-x), x * np.exp(-x / 3)])

    joint = analytic._integrate_0_inf(integrand, 2)
    one_node = analytic._integrate_0_inf(integrand, analytic._DE_BLOCK)
    assert joint == pytest.approx(one_node, rel=1e-15, abs=0)
    assert joint == pytest.approx([1.0, 9.0], rel=1e-13, abs=0)


def test_double_exponential_rule_fails_loudly():
    # a 1/x^2 tail is still 1e-11 of the integral at the window's right end
    with pytest.raises(ArithmeticError, match="ends"):
        analytic._integrate_0_inf(lambda x: (1 + x) ** -2.0)
    # an integrand that never settles
    rng = np.random.default_rng(5)
    with pytest.raises(ArithmeticError, match="settle"):
        analytic._integrate_0_inf(lambda x: np.exp(-x) * (1 + 1e-6 * rng.random(x.shape)))
    with pytest.raises(ArithmeticError, match="settle"):
        analytic._integrate_0_inf(lambda x: np.full_like(x, np.nan))


@pytest.mark.parametrize("alpha", [2, 4, 256])
def test_closed_form_holds_its_precision_at_the_cap(alpha):
    # alpha = 4 has the largest coefficients at N = 256 (sum |c_a| has 395
    # bits), so the fixed-point scale derived from them is tested where it
    # matters most
    assert analytic.static_throughput_closed_form(256, alpha, 1.0) == pytest.approx(
        analytic.throughput_quadrature(256, alpha, 1.0), rel=1e-10
    )


def test_closed_form_rejects_sizes_past_its_cap():
    # the alternating sum would take about 0.8 s at N = 1000, alpha = 2
    # (1.4 s at alpha = 4), against a few ms for the quadrature; past the cap
    # the call raises before any work
    with pytest.raises(UnsupportedSizeError):
        analytic.static_throughput_closed_form(258, 2, 1.0)


def test_closed_form_rejects_bad_alpha():
    with pytest.raises(ValueError):
        analytic.static_throughput_closed_form(10, 3, 1.0)


@pytest.mark.parametrize("power", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "evaluator", [analytic.static_throughput_closed_form, analytic.throughput_quadrature]
)
def test_evaluators_reject_power_that_is_not_positive_and_finite(evaluator, power):
    with pytest.raises(ValueError, match="power must be positive and finite"):
        evaluator(4, 2, power)


def test_quadrature_evaluator_handles_groups_and_antennas():
    # G > 1 against the density-based reference
    for groups in (1, 2, 3):
        val = analytic.throughput_quadrature(4, 2, 1.0, n_groups=groups)
        ref = throughput_reference(4, 2, 1.0, groups=groups)
        assert val == pytest.approx(ref, rel=1e-7)
    # L > 1, N = 1: plain single-user mean over the averaged-gain law

    val = analytic.throughput_quadrature(1, 1, 1.0, antennas=2)
    ref = expected_log1p_reference(1.0, lambda x: chisquare_cdf(2, x))
    assert val == pytest.approx(ref, rel=1e-7)


def test_multigroup_worst_reduces_to_single_group():
    for n in (1, 2, 5):
        assert multigroup_worst_throughput(n, 1, 1.0) == pytest.approx(
            analytic.static_throughput_closed_form(n, 1, 1.0), rel=1e-10
        )


def test_multigroup_worst_harmonic_limit():
    # large N, P=1, G=4: approaches P * (1 + 1/2 + 1/3 + 1/4)
    value = multigroup_worst_throughput(256, 4, 1.0)
    assert value == pytest.approx(25.0 / 12.0, rel=0.01)


def test_multigroup_worst_increasing_in_groups():
    values = [multigroup_worst_throughput(8, g, 1.0) for g in (1, 2, 4, 8)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_multigroup_best_values():
    assert multigroup_best_throughput(1, 1, 1.0) == pytest.approx(
        0.5963473623231941, rel=1e-9
    )
    # frozen from the density quadrature of the max of two gains
    assert multigroup_best_throughput(2, 1, 1.0) == pytest.approx(
        0.8313661077581654, rel=1e-9
    )
    assert multigroup_best_throughput(2, 1, 1.0) == pytest.approx(
        throughput_reference(2, 2, 1.0), rel=1e-9
    )


def test_multigroup_best_increasing_and_capped():
    values = [multigroup_best_throughput(n, g, 1.0) for n, g in ((1, 1), (2, 1), (2, 2), (4, 2))]
    assert all(a < b for a, b in zip(values, values[1:]))
    with pytest.raises(UnsupportedSizeError):
        multigroup_best_throughput(1001, 1, 1.0)
    # the quadrature path keeps working beyond the cap
    assert analytic.throughput_quadrature(1024, 1024, 1.0, n_groups=2) > 0


# ---------------------------------------------------------------------------
# service law
# ---------------------------------------------------------------------------

def test_service_pmf_values():
    assert service_time_pmf(ServiceLaw(1.0, 1.0), 1) == pytest.approx(
        math.exp(-1), abs=1e-12
    )
    # mu*C -> 0 limit: the first slot almost surely finishes the packet
    assert service_time_pmf(ServiceLaw(1e-12, 1.0), 1) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        service_time_pmf(ServiceLaw(1.0, 1.0), 0)
    with pytest.raises(ValueError):
        ServiceLaw(0.0, 1.0)


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5, 7.0])
def test_service_pmf_normalizes(lam):
    law = ServiceLaw(lam, 1.0)
    cutoff = math.ceil(lam) + int(40 * math.sqrt(lam)) + 40
    total = math.fsum(service_time_pmf(law, k) for k in range(1, cutoff + 1))
    assert abs(total - 1.0) < 1e-12


def test_service_pmf_mean_identity():
    law = ServiceLaw(2.5, 1.0)
    cutoff = 140
    mean = math.fsum(k * service_time_pmf(law, k) for k in range(1, cutoff + 1))
    assert mean == pytest.approx(3.5, abs=1e-9)


# ---------------------------------------------------------------------------
# coupon collector
# ---------------------------------------------------------------------------

def test_coupon_degenerate_and_classic_cases():
    picks = analytic.coupon_collector_expected_picks
    assert picks(5, [[3]])[0] == 15.0
    assert picks(2, [[1, 1]])[0] == pytest.approx(3.0, abs=1e-9)
    assert picks(3, [[1, 1, 1]])[0] == pytest.approx(5.5, abs=1e-9)


def test_coupon_matches_markov_oracle():
    for q in (2, 3, 5, 10, 40):
        for coupled in (1, 2, 3):
            if coupled > q:
                continue
            for m in (1, 2, 3, 4):
                integral = analytic.coupon_collector_expected_picks(q, [[m] * coupled])[0]
                markov = analytic.coupon_collector_markov(q, (m,) * coupled)
                linear = coupon_reference(q, coupled, m)
                assert integral == pytest.approx(markov, rel=1e-10)
                assert markov == pytest.approx(linear, rel=1e-10)


def test_coupon_rejects_bad_instances():
    with pytest.raises(ValueError):
        analytic.coupon_collector_expected_picks(2, [[1, 1, 1]])
    with pytest.raises(ValueError):
        analytic.coupon_collector_expected_picks(2, [[0, 0]])
    for needs in ((1, 1, 1), (), (2, 0)):
        with pytest.raises(ValueError):
            analytic.coupon_collector_markov(2, needs)


# ---------------------------------------------------------------------------
# throughput growth laws
# ---------------------------------------------------------------------------

def test_predicted_scaling_pinned_values():
    law = analytic.throughput_growth_law
    assert law("static", 10, alpha=2) == 10.0
    # the retransmission law is normalized to equal N where log log N = 1
    assert law("ir", math.e ** math.e) == pytest.approx(math.e ** math.e, rel=1e-12)


def test_predicted_scaling_directions():
    law = analytic.throughput_growth_law
    assert law("static", 50, alpha=1) == 1.0
    assert law("static", 50, alpha=1, n_groups=4) == pytest.approx(25.0 / 12.0)
    assert law("static", 100, alpha=100) == pytest.approx(math.log(math.log(100)))
    assert law("coop", 16) == 16.0
    assert law("coop", 16, n_groups=5) == 16.0
    # multi-antenna worst user grows as N^((L-1)/L)
    v16 = law("static", 16, alpha=1, antennas=2)
    v64 = law("static", 64, alpha=1, antennas=2)
    assert v64 / v16 == pytest.approx(2.0)


@pytest.mark.parametrize("family, n_users, alpha, n_groups, antennas", [
    ("static", 2, 2, 1, 1),                 # best: N G <= e
    ("static", 1, 1, 2, 1),                 # best: N G <= e
    ("static", 2, 2, 1, 3),                 # best, L > 1: N <= e
    ("static", 8, 1, 3, 2),                 # worst with L > 1 and G > 1
    ("static", 8, 8, 3, 2),                 # best with L > 1 and G > 1
    ("static", 8, 2, 1, 2),                 # median with L > 1
    ("static", 12, 3, 1, 1),                # alpha not in {1, 2, N}
    ("static", 12, 4, 5, 1),                # alpha not in {1, 2, N}
    ("ir", 2, None, 1, 1),                  # ir: N <= e
    ("ir", 1, None, 1, 1),
], ids=["best-n2", "best-n1g2", "best-l3-n2", "worst-l2-g3", "best-l2-g3", "median-l2",
        "alpha3", "alpha4-g5", "ir-n2", "ir-n1"])
def test_predicted_scaling_none_without_a_law(family, n_users, alpha, n_groups, antennas):
    assert analytic.throughput_growth_law(family, n_users, alpha, n_groups, antennas) is None
