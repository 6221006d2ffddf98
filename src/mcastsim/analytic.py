"""Exact analytics for the scheduling schemes.

Closed-form throughputs built from the exponential integral, order
statistics of exponential and Chi-square fading, the coupon-collector
waiting time of coupled queues with equal or unequal needs, and each
scheme's throughput growth law, which run rows carry as their
``predicted_scaling`` reference.

The evaluators rest on scipy.special: the order-statistic survival
function is a binomial tail, i.e. a regularized incomplete beta
function, and the Chi-square and Gamma laws are regularized incomplete
gamma functions.  Integrals over [0, inf) use one double-exponential
(exp-sinh) rule whose integrands take the whole node array, so each
refinement is one ufunc call, for one integrand or a row per integrand.
The static-throughput closed form is one alternating binomial sum,
which cancels catastrophically in double precision once systems get
moderately large; it is taken over exact integer coefficients in
mpmath, at a precision read from the largest of them, and serves as the
oracle for the quadrature evaluator.  Everything returned is an
ordinary float, except the per-run coupon-collector means, a float
array.
"""
from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np
from scipy import special

__all__ = [
    "UnsupportedSizeError",
    "coupon_collector_expected_picks",
    "coupon_collector_markov",
    "static_throughput_closed_form",
    "throughput_growth_law",
    "throughput_quadrature",
]

# The exp-sinh rule of _integrate_0_inf: x = exp(pi/2 sinh t) on this t-window,
# the trapezoid step halved from the first step until the estimate moves by at
# most the relative tolerance.  Level 0 has 73 nodes, twelve halvings 9 * 2^15 + 1;
# the lower end, x = 3.5e-84, keeps static rows settled up to P of about 1e72.
_DE_WINDOW = (-5.5, 3.5)
_DE_FIRST_STEP = 1 / 8
_DE_MAX_HALVINGS = 12
_DE_RTOL = 1e-12

# Direct evaluation of the alternating sum is capped here, at about 0.3 s
# a call (21 s at N = 1000, alpha = 2); larger systems use throughput_quadrature.
_ALTERNATING_SUM_CAP = 256


class UnsupportedSizeError(ValueError):
    """The requested size exceeds the range a closed form is evaluated over."""


# ---------------------------------------------------------------------------
# fading order statistics
# ---------------------------------------------------------------------------

def _order_stat_sf(n: int, pos: int, n_groups: int, user_sf):
    """P(order statistic > x) from user_sf = P(one gain > x), elementwise
    over an array of user_sf values or for one value.

    The pos-th smallest of n gains exceeds x iff fewer than pos gains lie
    below x, a binomial tail: I_{user_sf}(n - pos + 1, pos).  The best of
    n_groups groups exceeds x unless all lie below: 1 - (1 - sf)^G, sf at G = 1.
    ``channel.draw_scheduled_gains`` samples by the same identity.
    """
    # float parameters spare the ufunc a mixed-type dispatch on every call
    sf = special.betainc(float(n - pos + 1), float(pos), user_sf)
    # sf = 1 gives log1p(-1) = -inf and so exactly 1 again
    with np.errstate(divide="ignore"):
        return -np.expm1(n_groups * np.log1p(-sf))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _de_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights dx/dt that trapezoid level ``level`` adds: the
    whole t-window at level 0, the odd multiples of the halved step after."""
    lo, hi = _DE_WINDOW
    step = _DE_FIRST_STEP / 2 ** level
    count = round((hi - lo) / step)
    k = np.arange(count + 1) if level == 0 else np.arange(1, count, 2)
    t = lo + step * k
    x = np.exp(0.5 * math.pi * np.sinh(t))
    weight = 0.5 * math.pi * np.cosh(t) * x
    x.flags.writeable = weight.flags.writeable = False
    return x, weight


def _integrate_0_inf(f):
    """int_0^inf f(x) dx for f decaying at both ends, by the exp-sinh
    double-exponential rule (Takahasi & Mori, 1974): the trapezoid rule in t
    for x = exp(pi/2 sinh t), the step halved until the estimate moves by
    at most a relative 1e-12.  ``f`` maps a node array to a value array,
    or to one row of values per integrand, whose integrals come back as an
    array.  Raises ArithmeticError if an estimate does not settle or an
    integrand is not negligible at the window's ends."""
    total = 0.0
    previous = None
    for level in range(_DE_MAX_HALVINGS + 1):
        x, weight = _de_nodes(level)
        terms = f(x) * weight
        if level == 0:
            ends = _DE_FIRST_STEP * np.maximum(abs(terms[..., 0]), abs(terms[..., -1]))
        total = total + terms.sum(axis=-1)
        estimate = total * _DE_FIRST_STEP / 2 ** level
        if previous is not None and np.all(abs(estimate - previous) <= _DE_RTOL * abs(estimate)):
            if np.any(ends > _DE_RTOL * abs(estimate)):
                raise ArithmeticError("integrand is not negligible at the ends of the window")
            return estimate if np.ndim(estimate) else float(estimate)
        previous = estimate
    raise ArithmeticError(f"quadrature did not settle within {_DE_MAX_HALVINGS} halvings")


# ---------------------------------------------------------------------------
# closed-form throughputs
# ---------------------------------------------------------------------------

def _check_alpha(n_users: int, alpha: int) -> None:
    if alpha < 1 or alpha > n_users or n_users % alpha != 0:
        raise ValueError(f"alpha={alpha} must divide n_users={n_users}")


def _check_power(power: float) -> None:
    if not 0 < power < math.inf:
        raise ValueError("power must be positive and finite")


def static_throughput_closed_form(n_users: int, alpha: int, power: float) -> float:
    """Mean delivered nats per slot of the fixed-fraction scheduler: the
    targeted order statistic's expected log(1 + gain * P), times the N/alpha
    users decoding each slot.

    With r = N/alpha - 1 users above the scheduled one, P(gain > x) is the
    binomial tail sum_{a=r+1..N} (-1)^(a-r-1) C(a-1, r) C(N, a) e^{-a x}
    (David & Nagaraja, 2003), and int_0^inf P e^{-a x}/(1 + P x) dx is
    -e^{a/P} Ei(-a/P), so the expectation is one sum of
    c_a e^{a/P} Ei(-a/P) with integer c_a = (-1)^(a+r) C(N, a) C(a-1, r).
    Cancellation costs about as many digits as max |c_a| has, so the sum
    runs at 30 digits beyond those.
    """
    _check_alpha(n_users, alpha)
    _check_power(power)
    if n_users > _ALTERNATING_SUM_CAP:
        raise UnsupportedSizeError(
            f"n_users={n_users} exceeds the alternating-sum cap "
            f"{_ALTERNATING_SUM_CAP}; use throughput_quadrature"
        )
    above = n_users // alpha - 1
    terms = [(a, (-1) ** (a + above) * math.comb(n_users, a) * math.comb(a - 1, above))
             for a in range(above + 1, n_users + 1)]
    with mpmath.workdps(30 + len(str(max(abs(c) for _, c in terms)))):
        total = mpmath.fsum(
            c * mpmath.exp(mpmath.mpf(a) / power) * mpmath.ei(-mpmath.mpf(a) / power)
            for a, c in terms
        )
        return float(total * n_users / alpha)


def throughput_quadrature(
    n_users: int, alpha: int, power: float, n_groups: int = 1, antennas: int = 1
) -> float:
    """General throughput evaluator: (N/alpha) * int log(1 + x P) dF(x),
    i.e. (N/alpha) * int P/(1 + P x) P(gain > x) dx over the scheduled
    gain's survival function, by the exp-sinh rule of _integrate_0_inf.
    Works at any size, including beyond the alternating-sum cap."""
    _check_alpha(n_users, alpha)
    _check_power(power)
    if n_groups < 1 or antennas < 1:
        raise ValueError("n_groups and antennas must be at least 1")
    pos = n_users - n_users // alpha + 1

    def integrand(x):
        user_sf = np.exp(-x) if antennas == 1 else special.gammaincc(antennas, antennas * x)
        return _order_stat_sf(n_users, pos, n_groups, user_sf) * power / (1.0 + power * x)

    return _integrate_0_inf(integrand) * n_users / alpha


# ---------------------------------------------------------------------------
# coupled-queue waiting times
# ---------------------------------------------------------------------------

def coupon_collector_expected_picks(total_queues: int, needs) -> np.ndarray:
    """Expected uniform server picks over ``total_queues`` queues until each
    coupled queue j has been picked needs[i, j] times, for each row i of
    ``needs``: Q int_0^inf [1 - prod_j P(Pois(t) >= K_j)] dt, the picks
    Poissonized (Flajolet, Gardy & Thimonier, 1992), and Q K for one queue.
    The product is exp(counts @ log P(Pois(t) >= k)) over the distinct
    needs k, integrated once per distinct pattern of counts, in t over the
    largest need, so that every pattern's step lies at or below 1."""
    needs = np.asarray(needs)
    coupled = needs.shape[1]
    if coupled < 1:
        raise ValueError("need at least one coupled queue")
    if total_queues < coupled:
        raise ValueError(
            f"coupled queues ({coupled}) cannot exceed total queues ({total_queues})"
        )
    if needs.min() < 1:
        raise ValueError("each queue needs at least one service")
    if coupled == 1:
        return float(total_queues) * needs[:, 0]

    # a pattern is a sorted need vector, compared as one opaque value, which
    # np.unique sorts far faster than rows
    rows = np.sort(needs, axis=1)
    keys = rows.view(np.dtype((np.void, rows.itemsize * coupled)))[:, 0]
    _, first, pattern_of = np.unique(keys, return_index=True, return_inverse=True)
    patterns = rows[first]
    ks = np.unique(patterns)
    counts = (patterns[:, :, None] == ks).sum(axis=1)
    scale = float(ks[-1])

    def integrand(x):
        # P(Pois(t) >= k) = 1 - Q(k, t); a log of 0 is floored, since a count
        # of 0 times -inf would read nan
        with np.errstate(divide="ignore"):
            logs = np.log1p(-special.gammaincc(ks[:, None], scale * x))
        return -np.expm1(counts @ np.maximum(logs, -1e300))

    return (float(total_queues) * scale * _integrate_0_inf(integrand))[pattern_of]


def coupon_collector_markov(total_queues: int, needs) -> float:
    """Exact expected picks over ``total_queues`` queues until coupled queue
    j has been picked needs[j] times, from the absorbing chain over
    remaining-service vectors.  State count is prod_j (needs[j] + 1), so
    this is a cross-check for small instances, not a production path."""
    needs = tuple(sorted(needs))
    if not needs or total_queues < len(needs) or needs[0] < 1:
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
        return expected(needs)
    finally:
        expected.cache_clear()


# ---------------------------------------------------------------------------
# throughput growth laws
# ---------------------------------------------------------------------------

def throughput_growth_law(
    family: str, n_users: float, alpha: int | None = None, n_groups: int = 1, antennas: int = 1
) -> float | None:
    """Unit-constant throughput growth law of a scheme family (``static``,
    ``coop`` or ``ir``; ``SimConfig.family``), or None where no law is
    known.  Only how the value moves with N, G and L means anything.

    A static scheme follows the user its rate is keyed to: alpha = N the
    best, log log(N G), or log(1 + (log N + (L-1) log log N)/L) with L
    antennas; alpha = 1 the worst, H_G, or N^((L-1)/L) with L antennas;
    alpha = 2 the median, N.  Cooperation grows as N, and incremental
    redundancy as N / (log N / (e log log N)), which is N where
    log log N = 1.  A log log needs its argument above e.
    """
    n, g, ell = n_users, n_groups, antennas
    if family == "ir":
        if n <= math.e:
            return None
        return n / (math.log(n) / (math.e * math.log(math.log(n))))
    if family == "coop":
        return float(n)
    if alpha == n:
        if n * g <= math.e:
            return None
        if ell == 1:
            return math.log(math.log(n * g))
        if g == 1:
            return math.log1p((math.log(n) + (ell - 1) * math.log(math.log(n))) / ell)
    elif alpha == 1:
        if ell == 1:
            return math.fsum(1.0 / k for k in range(1, g + 1))
        if g == 1:
            return n ** ((ell - 1) / ell)
    elif alpha == 2 and ell == 1:
        return float(n)
    return None
