"""Independent reference computations for the test suite.

These deliberately avoid the package's own evaluation paths: the
exponential integral is integrated directly, throughputs come from the
order-statistic density or from alternating sums over groups, the
static closed form is its alternating sum in mpmath's Ei,
order-statistic survival functions are exact integer binomial sums, the
order-statistic CDF is the lower binomial tail, the coupon-collector
reference solves the absorbing chain as a linear system, for equal or
unequal needs, the memoryless server's service law is a shifted Poisson
law, the coupled-queue delay is simulated slot by slot or pick by pick,
the retransmission reference and the expected hit count of a queue come
from the package's renewal kernel on a grid eight times finer than its
own (the kernel itself is held to a closed form), and the cooperative rates
come from the full N x N pair-gain model or, for the throughput and the
rate law, from the effective-gain survival function; the ball count
behind the weakest relay gain is counted from the multinomial
coefficients in exact integers.
Integrals over [0, inf) use scipy's adaptive quadrature, which the package
does not import, as the reference for its double-exponential rule.  The
package's integer-parameter binomial, Poisson and Gamma evaluators are
checked against scipy.special, and against mpmath at 40 digits where
scipy's own value strays.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, exp, log1p

import mpmath
import numpy as np
from scipy import integrate, special, stats

from mcastsim import analytic
from mcastsim.analytic import UnsupportedSizeError

# The multigroup alternating sums are evaluated up to this many terms.
_ALTERNATING_SUM_CAP = 1000


def ei_reference(x: float) -> float:
    """Ei(x) for x < 0 by adaptive quadrature of the defining integral,
    shifted to [0, inf) so that the tolerance is relative at every x:
    Ei(x) = -e^x int_0^inf e^-s / (s - x) ds."""
    assert x < 0
    val, _ = integrate.quad(
        lambda s: math.exp(-s) / (s - x), 0, np.inf, epsabs=0, epsrel=1e-13, limit=300
    )
    return -math.exp(x) * val


def throughput_reference(n: int, alpha: int, power: float, groups: int = 1) -> float:
    """(N/alpha) * E[log(1 + gain * P)] via the order-statistic density."""
    pos = n - n // alpha + 1

    def f_single(x):
        return n * comb(n - 1, pos - 1) * (1 - exp(-x)) ** (pos - 1) * exp(-(n - pos + 1) * x)

    def cdf_single(x):
        return sum(comb(n, k) * (1 - exp(-x)) ** k * exp(-(n - k) * x) for k in range(pos, n + 1))

    def density(x):
        if groups == 1:
            return f_single(x)
        return groups * cdf_single(x) ** (groups - 1) * f_single(x)

    val, _ = integrate.quad(
        lambda x: log1p(power * x) * density(x), 0, np.inf,
        epsabs=1e-13, epsrel=1e-11, limit=300,
    )
    return (n / alpha) * val


def closed_form_reference(n_users: int, alpha: int, power: float) -> float:
    """The fixed-fraction throughput's alternating sum, (N/alpha) times
    sum_a c_a e^{a/P} Ei(-a/P) with c_a = (-1)^(a+r) C(N, a) C(a-1, r) and
    r = N/alpha - 1, every term in mpmath at 30 digits beyond the largest
    |c_a|; the package sums the same terms in fixed-point integers."""
    above = n_users // alpha - 1
    terms = [(a, (-1) ** (a + above) * comb(n_users, a) * comb(a - 1, above))
             for a in range(above + 1, n_users + 1)]
    with mpmath.workdps(30 + len(str(max(abs(c) for _, c in terms)))):
        total = mpmath.fsum(
            c * mpmath.exp(mpmath.mpf(a) / power) * mpmath.ei(-mpmath.mpf(a) / power)
            for a, c in terms
        )
        return float(total * n_users / alpha)


def fixed_fraction_quad_throughput(
    n: int, alpha: int, power: float, groups: int = 1, antennas: int = 1
) -> float:
    """(N/alpha) int P/(1+Px) P(gain > x) dx by scipy's adaptive quadrature,
    one scalar node at a time.  The scheduled gain's survival function is
    the complement of the lower binomial tail, betaincc(pos, n-pos+1, F),
    at the per-user Chi-square CDF F (the package uses the upper tail)."""
    sf = _fixed_fraction_sf(n, alpha, groups, antennas)
    val, _ = integrate.quad(
        lambda x: power / (1.0 + power * x) * sf(x), 0, np.inf,
        epsabs=1e-15, epsrel=1e-11, limit=300,
    )
    return (n / alpha) * val


def fixed_fraction_iid_se(
    n: int, alpha: int, power: float, groups: int = 1, slots: int = 1
) -> float:
    """Exact SE of the mean delivered nats over ``slots`` i.i.d. slots,
    sqrt(Var(L) / slots) for L = (N/alpha) log(1 + P X): E[L] as in
    fixed_fraction_quad_throughput and
    E[L^2] = (N/alpha)^2 int 2 log1p(Px) P/(1+Px) P(gain > x) dx, both by
    scipy's adaptive quadrature."""
    sf = _fixed_fraction_sf(n, alpha, groups, 1)
    second, _ = integrate.quad(
        lambda x: 2.0 * log1p(power * x) * power / (1.0 + power * x) * sf(x), 0, np.inf,
        epsabs=1e-15, epsrel=1e-11, limit=300,
    )
    mean = fixed_fraction_quad_throughput(n, alpha, power, groups)
    return math.sqrt(((n / alpha) ** 2 * second - mean ** 2) / slots)


def _fixed_fraction_sf(n: int, alpha: int, groups: int, antennas: int):
    """P(scheduled gain > x): the complement of the lower binomial tail,
    betaincc(pos, n-pos+1, F), at the per-user Chi-square CDF F, for the
    best of ``groups`` groups."""
    pos = n - n // alpha + 1

    def sf(x):
        cdf = special.gammainc(antennas, antennas * x)
        return _best_of_groups(float(special.betaincc(pos, n - pos + 1, cdf)), groups)

    return sf


def _best_of_groups(comp: float, groups: int) -> float:
    comp = min(max(comp, 0.0), 1.0)
    if groups == 1:
        return comp
    if comp >= 1.0:
        return 1.0
    return -math.expm1(groups * math.log1p(-comp))


@functools.lru_cache(maxsize=None)
def _binomial_row(n: int) -> tuple:
    """C(n, k) for k = 0..n, each exact integer rounded once to a float."""
    return tuple(float(comb(n, k)) for k in range(n + 1))


def order_stat_sf_sum(n: int, pos: int, groups: int, x: float) -> float:
    """P(pos-th smallest of n unit exponentials, maximized over groups, > x)
    as the exact-integer sum sum_{k<pos} C(n, k) p^k e^{-(n-k)x}, p = 1 - e^{-x}.
    Valid while C(n, n/2) fits a float (n <= 1000)."""
    p = -math.expm1(-x)
    row = _binomial_row(n)
    comp = math.fsum(row[k] * p ** k * math.exp(-(n - k) * x) for k in range(pos))
    return _best_of_groups(comp, groups)


def assert_close_to_exact(got, reference, exact, rtol: float, floor: float = 1e-290) -> None:
    """|got - ref| <= rtol max(|ref|, floor) elementwise, where ref is
    ``reference`` (an array) or, at the elements it misses, ``exact(i)``."""
    got, reference = np.asarray(got, dtype=float), np.asarray(reference, dtype=float)
    bound = rtol * np.maximum(abs(reference), floor)
    for i in np.flatnonzero(~(abs(got - reference) <= bound)):
        ref = exact(i)
        assert abs(got.flat[i] - ref) <= rtol * max(abs(ref), floor), (i, got.flat[i], ref)


def exact_binomial_tail(n: int, a: int, s: float) -> float:
    """P(Bin(n, s) >= a) at 40 digits."""
    with mpmath.workdps(40):
        return float(mpmath.betainc(a, n - a + 1, 0, mpmath.mpf(s), regularized=True))


def exact_poisson_tails(k: int, t: float) -> tuple[float, float]:
    """(P(X >= k), P(X < k)) for X ~ Poisson(t) at 40 digits."""
    with mpmath.workdps(40):
        lower = mpmath.gammainc(k, 0, mpmath.mpf(t), regularized=True)
        upper = mpmath.gammainc(k, mpmath.mpf(t), mpmath.inf, regularized=True)
        return float(lower), float(upper)


def scipy_quadrature_throughput(n: int, alpha: int, power: float, groups: int = 1,
                                antennas: int = 1) -> float:
    """analytic.throughput_quadrature with its survival function from
    scipy.special: the binomial tail as I_s(N - pos + 1, pos) and the
    antenna law as Q(L, L x), on the package's own double-exponential rule."""
    pos = n - n // alpha + 1

    def integrand(x):
        user_sf = np.exp(-x) if antennas == 1 else special.gammaincc(antennas, antennas * x)
        sf = special.betainc(float(n - pos + 1), float(pos), user_sf)
        with np.errstate(divide="ignore"):
            return -np.expm1(groups * np.log1p(-sf)) * power / (1.0 + power * x)

    return analytic._integrate_0_inf(integrand) * n / alpha


def chisquare_cdf_sum(antennas: int, x: float) -> float:
    """CDF of the mean of `antennas` unit exponentials,
    1 - e^{-Lx} sum_{k<L} (Lx)^k / k!, with the sum taken in log space."""
    t = antennas * x
    if t == 0.0:
        return 0.0
    logs = [k * math.log(t) - math.lgamma(k + 1) for k in range(antennas)]
    m = max(logs)
    log_s = m + math.log(math.fsum(math.exp(v - m) for v in logs))
    return -math.expm1(log_s - t)


def antenna_order_stat_sf_sum(n: int, pos: int, groups: int, antennas: int, x: float) -> float:
    """order_stat_sf_sum for gains that are means of `antennas` unit
    exponentials: sum_{k<pos} C(n, k) F^k (1 - F)^(n-k), F the Chi-square CDF."""
    fc = chisquare_cdf_sum(antennas, x)
    row = _binomial_row(n)
    comp = math.fsum(row[k] * fc ** k * (1.0 - fc) ** (n - k) for k in range(pos))
    return _best_of_groups(comp, groups)


@dataclass(frozen=True)
class OrderStatSpec:
    """Position-th smallest of n_users unit-exponential gains, maximized
    over n_groups independent groups when n_groups > 1."""

    n_users: int
    position: int
    n_groups: int = 1

    def __post_init__(self):
        if self.n_users < 1:
            raise ValueError("n_users must be at least 1")
        if not 1 <= self.position <= self.n_users:
            raise ValueError("position must lie in [1, n_users]")
        if self.n_groups < 1:
            raise ValueError("n_groups must be at least 1")


def order_stat_cdf(spec: OrderStatSpec, x: float) -> float:
    """CDF of the selected order statistic at x >= 0: the lower binomial
    tail I_F(pos, n - pos + 1) at F = 1 - e^{-x}, to the power G (the
    package evaluates the upper tail instead)."""
    if x < 0:
        raise ValueError("gains are nonnegative")
    n, pos = spec.n_users, spec.position
    return float(special.betainc(pos, n - pos + 1, -math.expm1(-x))) ** spec.n_groups


def chisquare_cdf(antennas: int, x: float) -> float:
    """CDF of the mean of ``antennas`` unit exponentials: P(L, L x)."""
    if antennas < 1:
        raise ValueError("need at least one antenna")
    if x < 0:
        raise ValueError("gains are nonnegative")
    return float(special.gammainc(antennas, antennas * x))


def _check_multigroup(n_users: int, n_groups: int, power: float, terms: int) -> None:
    if n_users < 1 or n_groups < 1:
        raise ValueError("n_users and n_groups must be at least 1")
    if not power > 0:
        raise ValueError("power must be positive")
    if terms > _ALTERNATING_SUM_CAP:
        raise UnsupportedSizeError(
            f"{terms} terms exceed the alternating-sum cap {_ALTERNATING_SUM_CAP}"
        )


def multigroup_worst_throughput(n_users: int, n_groups: int, power: float) -> float:
    """Scheduling the best group's worst user: an alternating sum over
    groups of scaled exponential-integral terms, in mpmath."""
    _check_multigroup(n_users, n_groups, power, n_groups)
    with mpmath.workdps(30 + int(0.31 * n_groups)):
        total = mpmath.mpf(0)
        for k in range(1, n_groups + 1):
            arg = mpmath.mpf(n_users) * k / power
            total += comb(n_groups, k) * (-1) ** k * mpmath.exp(arg) * mpmath.ei(-arg)
        return float(n_users * total)


def multigroup_best_throughput(n_users: int, n_groups: int, power: float) -> float:
    """Scheduling the overall best user among all N*G: the alternating sum
    over N*G scaled exponential-integral terms, in mpmath."""
    total_users = n_users * n_groups
    _check_multigroup(n_users, n_groups, power, total_users)
    with mpmath.workdps(30 + int(0.31 * total_users)):
        total = mpmath.mpf(0)
        for k in range(1, total_users + 1):
            arg = mpmath.mpf(k) / power
            total += comb(total_users, k) * (-1) ** k * mpmath.exp(arg) * mpmath.ei(-arg)
        return float(total)


@dataclass(frozen=True)
class ServiceLaw:
    """Memoryless per-slot service: rate exponential with mean 1/mu, and
    nats_per_interval = S/Tc nats needed per coherence interval."""

    mu: float
    nats_per_interval: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not self.nats_per_interval > 0:
            raise ValueError("nats_per_interval must be positive")


def service_time_pmf(law: ServiceLaw, k: int) -> float:
    """P(service takes exactly k slots) = e^{-muC} (muC)^{k-1} / (k-1)!,
    the count of exponential-rate slots needed to accumulate C nats."""
    if k < 1:
        raise ValueError("a service takes at least one slot")
    lam = law.mu * law.nats_per_interval
    return math.exp(-lam + (k - 1) * math.log(lam) - math.lgamma(k))


def expected_log1p_reference(power: float, cdf, upper: float = np.inf) -> float:
    """E[log(1 + P X)] = int P/(1+Px) (1 - F(x)) dx for X >= 0."""
    val, _ = integrate.quad(
        lambda x: (1.0 - cdf(x)) * power / (1.0 + power * x), 0, upper,
        epsabs=1e-13, epsrel=1e-10, limit=300,
    )
    return val


def coupon_reference(total_queues: int, coupled: int, needed) -> float:
    """Expected trials until each coupled queue is hit as often as it needs,
    `needed` times each or `needed[j]` times queue j, solved exactly as a
    linear system over all remaining-service vectors."""
    needs = (needed,) * coupled if isinstance(needed, int) else tuple(needed)
    assert len(needs) == coupled
    states = list(itertools.product(*(range(k + 1) for k in needs)))
    index = {s: i for i, s in enumerate(states)}
    size = len(states)
    a = np.zeros((size, size))
    b = np.zeros(size)
    for s, i in index.items():
        if all(r == 0 for r in s):
            a[i, i] = 1.0
            continue
        a[i, i] = 1.0
        b[i] = 1.0
        stay = 1.0 - coupled / total_queues
        for j in range(coupled):
            nxt = s if s[j] == 0 else s[:j] + (s[j] - 1,) + s[j + 1:]
            if nxt == s:
                stay += 1.0 / total_queues
            else:
                a[i, index[nxt]] -= 1.0 / total_queues
        a[i, i] -= stay
    return float(np.linalg.solve(a, b)[index[needs]])


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance of an empirical sample against a CDF."""
    xs = np.sort(np.asarray(samples))
    n = xs.size
    f = np.array([cdf(x) for x in xs])
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return max(upper, lower)


def ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    xc = x - x.mean()
    return float((xc * (y - y.mean())).sum() / (xc * xc).sum())


def slot_by_slot_delays(
    queues: int, coupled: int, packet: float, rates, rng, runs: int
) -> np.ndarray:
    """Slots until each of the first `coupled` of `queues` queues has
    drained `packet`, simulated one slot at a time with no gap shortcut:
    every slot of every unfinished run picks one queue uniformly and
    serves it at a rate from ``rates(rng, count)``."""
    residual = np.full((runs, coupled), float(packet))
    slots = np.zeros(runs, dtype=np.int64)
    active = np.arange(runs)
    while active.size:
        slots[active] += 1
        pick = rng.integers(queues, size=active.size)
        rate = rates(rng, active.size)
        hit = pick < coupled
        residual[active[hit], pick[hit]] -= rate[hit]
        active = active[(residual[active] > 0.0).any(axis=1)]
    return slots


def pick_simulation_delays(
    queues: int, coupled: int, packet: float, rates, rng, runs: int
) -> np.ndarray:
    """Slots until each of the first `coupled` of `queues` queues has
    drained `packet`, the uniform picks simulated hit by hit: each round
    draws, for every unfinished run, a geometric gap of slots up to its
    next hit on a coupled queue (unless every slot hits), then which
    coupled queue it hits (when there are several), then a rate from
    ``rates(rng, count)``.  The slot counts have the slot-by-slot law at
    O(hits) cost; float gaps never saturate."""
    p_hit = coupled / queues
    residual = np.full((runs, coupled), float(packet))
    slots = np.zeros(runs)
    active = np.arange(runs)
    while active.size:
        if p_hit == 1.0:
            slots[active] += 1.0
        else:
            # Geometric(p) on 1, 2, ... by inversion: ceil(-E / log(1 - p))
            slots[active] += np.maximum(
                np.ceil(-rng.standard_exponential(active.size) / math.log1p(-p_hit)), 1.0)
        queue = rng.integers(coupled, size=active.size) if coupled > 1 else 0
        residual[active, queue] -= rates(rng, active.size)
        active = active[(residual[active] > 0.0).any(axis=1)]
    return slots


def ir_expected_attempts(n: int, target: float, power: float, cells: int = 2048) -> float:
    """Exact mean attempts of a retransmission cycle without a cap, from the
    package's renewal kernel on a grid eight times finer than its own."""
    return analytic.ir_expected_attempts(n, target, power, cells)


def renewal_expected_hits(target: float, cdf, cells: int = 2048) -> float:
    """Exact mean count of i.i.d. increments of CDF `cdf` whose sum first
    reaches `target`: the renewal function E[K] = sum_{m>=0} P(R_1 + ... + R_m < target),
    from the package's renewal kernel."""
    return 1.0 + math.fsum(analytic._extrapolated_renewal_cdfs(target, cdf, cells).tolist())


def renewal_hit_pmf(target: float, cdf, cells: int = 2048) -> np.ndarray:
    """P(K = k) for k = 1, 2, ..., K the count of i.i.d. increments of CDF
    `cdf` whose sum first reaches `target`: P(K > k) = P(R_1 + ... + R_k < target)."""
    survival = np.concatenate(
        ([1.0], analytic._extrapolated_renewal_cdfs(target, cdf, cells), [0.0]))
    return survival[:-1] - survival[1:]


def same_law_p_value(a, b):
    """Chi-square homogeneity p-value of two samples, binned at twenty
    pooled quantiles."""
    pooled = np.concatenate([a, b])
    edges = np.unique(np.quantile(pooled, np.linspace(0.0, 1.0, 21)))
    table = [np.histogram(x, edges)[0] for x in (a, b)]
    return stats.chi2_contingency(table)[1]


def full_vector_static_rates(gains, alpha: int, power: float) -> np.ndarray:
    """Fixed-fraction rates by the full-vector model, over any leading batch
    dimensions of ``gains`` (``[..., N]``): each slot is rated for the gain
    at ascending position N - N/alpha + 1 of its N gains, so everyone at or
    above that gain decodes; tied gains rate the slot at the tied value."""
    g = np.asarray(gains, dtype=float)
    n = g.shape[-1]
    if alpha < 1 or n % alpha != 0:
        raise ValueError(f"alpha={alpha} must divide the user count {n}")
    if not power > 0:
        raise ValueError("power must be positive")
    pos = n - n // alpha          # 0-based ascending index of the rated gain
    return np.log1p(power * np.partition(g, pos, axis=-1)[..., pos])


def cooperative_rate_from_matrix(bs, inter, power: float) -> np.ndarray:
    """Two-stage cooperative rates by the N x N pair-gain model, over any
    leading batch dimensions of ``bs`` (``[..., N]``) and ``inter``
    (``[..., N, N]``, entry (i, j) the gain from user i to user j).

    Users are ordered by descending base-station gain, ties to the lower
    index.  Stage 1 runs at the rate of the (N/2)-th strongest user; in
    stage 2 each of the N/2 strongest relays at power P/(N/2), and the
    weakest sum it delivers to a remaining user sets the rate.  The packet
    moves at the lesser stage rate."""
    bs = np.asarray(bs, dtype=float)
    inter = np.asarray(inter, dtype=float)
    half = bs.shape[-1] // 2
    order = np.argsort(-bs, axis=-1, kind="stable")
    stage1 = np.log1p(power * np.take_along_axis(bs, order[..., half - 1:half], axis=-1)[..., 0])
    relayed = np.take_along_axis(inter, order[..., :half, None], axis=-2).sum(axis=-2)
    received = np.take_along_axis(relayed, order[..., half:], axis=-1) / half
    return np.minimum(stage1, np.log1p(power * received.min(axis=-1)))


def matrix_coop_rates(n: int, groups: int, power: float, count: int, rng) -> np.ndarray:
    """``count`` slot rates of the matrix model on fresh Rayleigh fading:
    base-station gains and an N x N pair-gain matrix (zero diagonal) per
    group, the best of ``groups`` groups served."""
    bs = rng.exponential(1.0, (count, groups, n))
    inter = rng.exponential(1.0, (count, groups, n, n))
    inter[..., np.arange(n), np.arange(n)] = 0.0
    return cooperative_rate_from_matrix(bs, inter, power).max(axis=-1)


def _coop_gain_sf(n: int, y):
    """P(one group's effective cooperative gain > y): the (N/2)-th strongest
    base-station gain exceeds y with probability I_{e^-y}(N/2, N/2+1), and
    each of the N/2 weak users' Gamma(N/2, 1) relay sums exceeds (N/2) y
    with probability Q(N/2, N y/2)."""
    half = n // 2
    return special.betainc(half, half + 1, np.exp(-y)) * special.gammaincc(half, half * y) ** half


def coop_rate_cdf(n: int, groups: int, power: float):
    """CDF of the cooperative slot rate log1p(P Y), best of ``groups``
    groups: (1 - sf((e^u - 1)/P))^G, sf the effective-gain survival function."""
    return lambda u: (1.0 - _coop_gain_sf(n, np.expm1(u) / power)) ** groups


def coop_throughput(n: int, groups: int, power: float) -> float:
    """Exact cooperative throughput (N/2) E[rate], best of ``groups`` groups:
    (N/2) int P/(1+Py) sf(y) dy over the survival function of the best
    group's effective gain."""
    val, _ = integrate.quad(
        lambda y: power / (1.0 + power * y) * _best_of_groups(_coop_gain_sf(n, y), groups),
        0, np.inf, epsabs=1e-13, epsrel=1e-11, limit=300,
    )
    return n // 2 * val


def ball_count_sequences(m: int) -> list[int]:
    """For t = 0..m(m - 1) + 1, how many of the m^t sequences of t balls
    thrown into m bins leave every bin below m balls: t! [x^t] e(x)^m, with
    e(x) = sum_{k<m} x^k / k! (the multinomial counts), in exact rationals
    and then Python integers."""
    top = m * (m - 1) + 1
    power = [Fraction(1)] + [Fraction(0)] * top
    for _ in range(m):
        power = [sum(power[t - k] / math.factorial(k) for k in range(min(m - 1, t) + 1))
                 for t in range(top + 1)]
    counts = [coef * math.factorial(t) for t, coef in enumerate(power)]
    assert all(c.denominator == 1 for c in counts)
    return [int(c) for c in counts]
