"""Exact analytics for the scheduling schemes.

Closed-form throughputs built from the exponential integral, order
statistics of exponential and Chi-square fading, the shifted-Poisson
service law, the coupon-collector waiting time of coupled queues, and
growth-law predictors used by the regression checks.

The evaluators rest on scipy.special: Ei is ``expi``, the order-statistic
survival function is a binomial tail, i.e. a regularized incomplete beta
function, and the Chi-square and Gamma laws are regularized incomplete
gamma functions.  The closed forms are alternating binomial sums that
cancel catastrophically in double precision once systems get moderately
large, so they are assembled with exact integer binomials and mpmath
scalars at a working precision scaled to the cancellation; they serve as
oracles for the quadrature evaluator.  Everything returned is an ordinary
float.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np
from scipy import integrate, special

__all__ = [
    "EULER_GAMMA",
    "OrderStatSpec",
    "ServiceLaw",
    "UnsupportedScalingError",
    "UnsupportedSizeError",
    "binomial",
    "chisquare_cdf",
    "coupon_collector_expected_trials",
    "coupon_collector_markov",
    "expint_ei",
    "harmonic_number",
    "multigroup_best_throughput",
    "multigroup_worst_throughput",
    "order_stat_cdf",
    "predicted_scaling",
    "service_time_pmf",
    "static_throughput_closed_form",
    "throughput_quadrature",
]

EULER_GAMMA = 0.5772156649015328606

# Direct evaluation of the alternating sums is capped here; larger systems
# must use throughput_quadrature.
_ALTERNATING_SUM_CAP = 1000

_EXACT_BINOMIAL_LIMIT = 60


class UnsupportedSizeError(ValueError):
    """The requested size exceeds the range a closed form is evaluated over."""


class UnsupportedScalingError(ValueError):
    """No growth law is available for the requested scheme/metric pair."""


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def expint_ei(x: float) -> float:
    """Exponential integral Ei(x) for strictly negative arguments."""
    if not x < 0:
        raise ValueError(f"expint_ei requires x < 0, got {x}")
    return float(special.expi(x))


def binomial(n: int, k: int) -> float:
    """C(n, k) as a float: exact up to n = 60, log-gamma beyond."""
    if k < 0 or k > n:
        return 0.0
    if n <= _EXACT_BINOMIAL_LIMIT:
        return float(math.comb(n, k))
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1))


def harmonic_number(n: int) -> float:
    if n < 1:
        raise ValueError("harmonic_number needs n >= 1")
    return math.fsum(1.0 / k for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# fading order statistics
# ---------------------------------------------------------------------------

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
    """CDF of the selected order statistic at x >= 0."""
    if x < 0:
        raise ValueError("gains are nonnegative")
    return 1.0 - _order_stat_sf(spec.n_users, spec.position, spec.n_groups, math.exp(-x))


def _order_stat_sf(n: int, pos: int, n_groups: int, user_sf: float) -> float:
    """P(order statistic > x) from user_sf = P(one gain > x).

    The pos-th smallest of n gains exceeds x iff fewer than pos gains lie
    below x, a binomial tail: I_{user_sf}(n - pos + 1, pos).  The best of
    n_groups groups exceeds x unless every group's statistic lies below.
    """
    # float parameters spare the ufunc a mixed-type dispatch on every call
    sf = float(special.betainc(float(n - pos + 1), float(pos), user_sf))
    if n_groups == 1 or sf == 1.0:
        return sf
    return -math.expm1(n_groups * math.log1p(-sf))


def chisquare_cdf(antennas: int, x: float) -> float:
    """CDF of the mean of ``antennas`` unit exponentials: P(L, L x)."""
    if antennas < 1:
        raise ValueError("need at least one antenna")
    if x < 0:
        raise ValueError("gains are nonnegative")
    return float(special.gammainc(antennas, antennas * x))


# ---------------------------------------------------------------------------
# closed-form throughputs
# ---------------------------------------------------------------------------

def _check_alpha(n_users: int, alpha: int) -> None:
    if n_users < 1:
        raise ValueError("n_users must be at least 1")
    if alpha < 1 or alpha > n_users or n_users % alpha != 0:
        raise ValueError(f"alpha={alpha} must divide n_users={n_users}")


def _scaled_ei_table(count: int, power: float, dps: int) -> list:
    """e^{a/P} Ei(-a/P) for a = 1..count at dps working digits."""
    with mpmath.workdps(dps):
        return [None] + [
            mpmath.exp(mpmath.mpf(a) / power) * mpmath.ei(-mpmath.mpf(a) / power)
            for a in range(1, count + 1)
        ]


def static_throughput_closed_form(n_users: int, alpha: int, power: float) -> float:
    """Mean delivered nats per slot of the fixed-fraction scheduler: the
    targeted order statistic's expected log(1 + gain * P), times the N/alpha
    users decoding each slot."""
    _check_alpha(n_users, alpha)
    if not power > 0:
        raise ValueError("power must be positive")
    if n_users > _ALTERNATING_SUM_CAP:
        raise UnsupportedSizeError(
            f"n_users={n_users} exceeds the alternating-sum cap "
            f"{_ALTERNATING_SUM_CAP}; use throughput_quadrature"
        )
    pos = n_users - n_users // alpha + 1
    dps = 30 + int(0.49 * n_users)
    fvals = _scaled_ei_table(n_users, power, dps)
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for i in range(1, n_users + 1):
            total += math.comb(n_users, i) * (-1) ** i * fvals[i]
        for k in range(pos, n_users):
            inner = mpmath.mpf(0)
            for i in range(0, k + 1):
                inner += math.comb(k, i) * (-1) ** i * fvals[n_users - k + i]
            total += math.comb(n_users, k) * inner
        return float(total * n_users / alpha)


def multigroup_worst_throughput(n_users: int, n_groups: int, power: float) -> float:
    """Closed form for scheduling the best group's worst user: an
    alternating sum over groups of scaled exponential-integral terms."""
    if n_users < 1 or n_groups < 1:
        raise ValueError("n_users and n_groups must be at least 1")
    if not power > 0:
        raise ValueError("power must be positive")
    if n_groups > _ALTERNATING_SUM_CAP:
        raise UnsupportedSizeError(
            f"n_groups={n_groups} exceeds the alternating-sum cap; "
            "use throughput_quadrature"
        )
    dps = 30 + int(0.31 * n_groups)
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for k in range(1, n_groups + 1):
            arg = mpmath.mpf(n_users) * k / power
            total += math.comb(n_groups, k) * (-1) ** k * mpmath.exp(arg) * mpmath.ei(-arg)
        return float(n_users * total)


def multigroup_best_throughput(n_users: int, n_groups: int, power: float) -> float:
    """Closed form for scheduling the overall best user among all N*G:
    the alternating sum over N*G scaled exponential-integral terms."""
    if n_users < 1 or n_groups < 1:
        raise ValueError("n_users and n_groups must be at least 1")
    if not power > 0:
        raise ValueError("power must be positive")
    total_users = n_users * n_groups
    if total_users > _ALTERNATING_SUM_CAP:
        raise UnsupportedSizeError(
            f"N*G={total_users} exceeds the alternating-sum cap "
            f"{_ALTERNATING_SUM_CAP}; use throughput_quadrature"
        )
    dps = 30 + int(0.31 * total_users)
    fvals = _scaled_ei_table(total_users, power, dps)
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for k in range(1, total_users + 1):
            total += math.comb(total_users, k) * (-1) ** k * fvals[k]
        return float(total)


def throughput_quadrature(
    n_users: int, alpha: int, power: float, n_groups: int = 1, antennas: int = 1
) -> float:
    """General throughput evaluator: (N/alpha) * int log(1 + x P) dF(x) by
    adaptive quadrature over the scheduled gain's survival function.  Works
    at any size, including beyond the alternating-sum cap."""
    _check_alpha(n_users, alpha)
    if not power > 0:
        raise ValueError("power must be positive")
    if n_groups < 1 or antennas < 1:
        raise ValueError("n_groups and antennas must be at least 1")
    pos = n_users - n_users // alpha + 1

    def integrand(x):
        user_sf = math.exp(-x) if antennas == 1 else special.gammaincc(antennas, antennas * x)
        return _order_stat_sf(n_users, pos, n_groups, user_sf) * power / (1.0 + power * x)

    val, _ = integrate.quad(
        integrand,
        0.0,
        np.inf,
        epsabs=1e-12,
        epsrel=1e-10,
        limit=300,
    )
    return val * n_users / alpha


# ---------------------------------------------------------------------------
# service law and coupled-queue waiting times
# ---------------------------------------------------------------------------

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


def coupon_collector_expected_trials(total_queues: int, coupled: int, services_needed: int) -> float:
    """Expected uniform server picks over ``total_queues`` queues until each
    of ``coupled`` designated queues has been picked ``services_needed``
    times: Q * int_0^inf [1 - (1 - S_m(t) e^{-t})^alpha] dt."""
    if coupled < 1:
        raise ValueError("need at least one coupled queue")
    if total_queues < coupled:
        raise ValueError(
            f"coupled queues ({coupled}) cannot exceed total queues ({total_queues})"
        )
    if services_needed < 1:
        raise ValueError("each queue needs at least one service")
    if coupled == 1:
        return float(total_queues * services_needed)

    def integrand(t):
        sf = float(special.gammaincc(services_needed, t))  # S_m(t) e^{-t}
        if sf >= 1.0:
            return 1.0
        return -math.expm1(coupled * math.log1p(-sf))

    val, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-9, limit=300)
    return total_queues * val


def coupon_collector_markov(total_queues: int, coupled: int, services_needed: int) -> float:
    """Exact expected trials from the absorbing chain over per-queue
    remaining-service vectors.  State count is (m+1)^alpha, so this is a
    cross-check for small instances, not a production path."""
    if coupled < 1 or total_queues < coupled or services_needed < 1:
        raise ValueError("invalid coupon-collector instance")

    @lru_cache(maxsize=None)
    def expected(state: tuple) -> float:
        active = [i for i, r in enumerate(state) if r > 0]
        if not active:
            return 0.0
        hit_sum = sum(
            expected(state[:i] + (state[i] - 1,) + state[i + 1:]) for i in active
        )
        # E = 1 + (1/Q) sum_active E(next) + (1 - |active|/Q) E, solved for E
        return (1.0 + hit_sum / total_queues) / (len(active) / total_queues)

    try:
        return expected(tuple(sorted((services_needed,) * coupled)))
    finally:
        expected.cache_clear()


# ---------------------------------------------------------------------------
# growth-law predictors
# ---------------------------------------------------------------------------

_METRICS = ("throughput", "delay")
_E = math.e


def _loglog(v: float) -> float:
    if v <= _E:
        raise UnsupportedScalingError(
            f"growth law needs log log to be positive; population {v} is too small"
        )
    return math.log(math.log(v))


def predicted_scaling(
    scheme: str, metric: str, n_users: float, n_groups: int = 1, antennas: int = 1
) -> float:
    """Growth-law value with unit constants for ratio/regression tests.

    The absolute magnitude carries no meaning; only how the value moves
    with N, G and L does.  Retransmission-scheme expressions are scaled so
    the delay equals 1 where log log N = 1.
    """
    if metric not in _METRICS:
        raise UnsupportedScalingError(f"unknown metric {metric!r}")
    if n_users < 1 or n_groups < 1 or antennas < 1:
        raise ValueError("n_users, n_groups and antennas must be at least 1")
    n, g, ell = n_users, n_groups, antennas

    if scheme == "worst":
        if metric == "throughput":
            if ell == 1:
                return harmonic_number(g)
            if g == 1:
                return n ** ((ell - 1) / ell)
        elif ell == 1:
            return n * g / harmonic_number(g)
    elif scheme == "best":
        if metric == "throughput":
            if ell == 1:
                return _loglog(n * g)
            if g == 1:
                return math.log1p((math.log(n) + (ell - 1) * _loglog(n)) / ell)
        elif ell == 1:
            if n < 2:
                raise UnsupportedScalingError("best-user delay law needs n >= 2")
            return n * g * math.log(n) / _loglog(n * g)
    elif scheme == "median":
        if ell == 1 and n == int(n) and int(n) % 2 == 0:
            if metric == "throughput":
                return float(n)
            return g * binomial(int(n), int(n) // 2)
    elif scheme == "ir":
        if ell == 1 and g == 1:
            delay = math.log(n) / (_E * _loglog(n))
            return n / delay if metric == "throughput" else delay
    elif scheme == "coop":
        if ell == 1 and n == int(n) and int(n) % 2 == 0:
            return float(n) if metric == "throughput" else float(g)
    else:
        raise UnsupportedScalingError(f"unknown scheme {scheme!r}")
    raise UnsupportedScalingError(
        f"no growth law for scheme={scheme!r}, metric={metric!r}, "
        f"n_groups={n_groups}, antennas={antennas}"
    )
