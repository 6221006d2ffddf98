"""Fading-gain generation and the coherence policy, which sets the slot length.

All gains are dimensionless channel power gains; each user's gain has unit
mean.  A scheduler that rates a slot for one user draws only that user's
gain, an order statistic, by inversion of one Beta variate, so a static
slot costs the same at every population size.  At the two extreme
positions and one antenna the best of the G groups' gains is a closed
form in one uniform, which the throughput estimate and the delay engine
both draw.  A cooperative slot's weakest relay gain is one Gamma variate
whose integer shape, a ball count, is one uniform inverted on a table
built once per N, up to N/2 = 52, and one inversion above, so its cost
and memory are flat in N.  The inversions
are the integer-parameter Gamma quantiles of ``analytic``.  Draws are
pure functions of the supplied generator, so per-worker streams stay
independent and every realization is reproducible from its seed.  The
draws take their arguments from a validated ``simcore.SimConfig``
through ``schedulers.slot_rates`` and check none of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mcastsim import analytic

__all__ = [
    "CoherencePolicy",
    "draw_extreme_gains",
    "draw_gains",
    "draw_interuser_gains",
    "draw_scheduled_gains",
]

# The scaled policy evaluates log log on max(N*G, _LOGLOG_FLOOR) so it stays
# positive and finite for small populations.
_LOGLOG_FLOOR = 16
# Up to this many relay sums, the weakest is drawn from its ball count; above
# it, by inverting its law (see draw_interuser_gains).
_BALL_COUNT_MAX_HALF = 52


@dataclass(frozen=True)
class CoherencePolicy:
    """Slot-length policy: a fixed duration, or one shrinking slowly with
    the total user population (value / log log max(N*G, 16))."""

    mode: str          # "fixed" or "scaled"
    value: float       # Tc itself, or the scale constant

    def __post_init__(self):
        if self.mode not in ("fixed", "scaled"):
            raise ValueError(f"unknown coherence mode {self.mode!r}")
        if not 0 < self.value < math.inf:
            raise ValueError("coherence parameter must be positive and finite")

    def interval(self, population: int) -> float:
        """Slot duration Tc for ``population`` = N * G users in all."""
        if population < 1:
            raise ValueError("population must be at least 1")
        if self.mode == "fixed":
            return self.value
        return self.value / math.log(math.log(max(population, _LOGLOG_FLOOR)))


def draw_gains(shape, rng: np.random.Generator) -> np.ndarray:
    """Rayleigh base-station power gains of the given shape: i.i.d. unit
    exponentials.  A retransmission attempt reads every user's gain, so
    ``schedulers.slot_rates`` draws them all here; the other schedulers
    draw only the gain they rate (``draw_scheduled_gains``)."""
    return rng.exponential(1.0, shape)


def draw_scheduled_gains(
    n_users: int, position: int, shape, antennas: int, rng: np.random.Generator,
) -> np.ndarray:
    """The gain at ascending position ``position`` of ``n_users`` i.i.d.
    base-station gains, one per entry of ``shape``, with ``antennas``
    transmit antennas splitting the power equally (each gain the mean of
    that many unit exponentials; Rayleigh fading at one antenna).

    With S(x) = P(gain > x), the order statistic X satisfies
    S(X) ~ Beta(N - pos + 1, pos), the order statistics of uniforms
    (David & Nagaraja, *Order Statistics*, 2003).  So X = S^-1(V) for one
    Beta variate V: -log V at one antenna, Q^-1(L, V) / L for L antennas,
    with Q the regularized upper incomplete gamma function.  Both the
    fixed-fraction and the cooperative scheduler draw their base-station
    fading here, so throughput and delay see the same antenna law, except
    at positions 1 and N with one antenna, where ``schedulers.slot_rates``
    draws the best of the G groups' gains in one closed form instead
    (``draw_extreme_gains``).
    """
    v = rng.beta(n_users - position + 1, position, shape)
    if antennas == 1:
        return -np.log(v)
    return analytic._gamma_inverse(antennas, v, upper=True) / antennas


def draw_extreme_gains(
    n_users: int, position: int, n_groups: int, count: int, rng: np.random.Generator,
) -> np.ndarray:
    """``count`` i.i.d. values of the best of ``n_groups`` groups' gains at
    ascending position 1 or ``n_users`` of their ``n_users`` gains, at one
    antenna.

    That best gain has CDF (1 - e^(-c x))^k: at position 1 it is the best
    of G group minima, each exponential of rate N, so (k, c) = (G, N); at
    position N it is the largest of the N G gains, so (k, c) = (N G, 1).
    So X = -log(1 - U^(1/k)) / c for one uniform U, the law of
    ``draw_scheduled_gains`` at these positions followed by the best of
    G.  1 - U^(1/k) = -expm1(log(U) / k) keeps its precision where U^(1/k)
    is near 1, which holds the largest gains, and U = 0 gives the least
    gain, 0; at k = 1 it is 1 - U, which is never 0, so the gain is finite.
    """
    k, c = (n_groups, n_users) if position == 1 else (n_users * n_groups, 1)
    u = rng.random(count)
    if k > 1:
        with np.errstate(divide="ignore"):  # U = 0: log(0) = -inf, x = 1
            x = -np.expm1(np.log(u) / k)
    else:
        x = 1 - u
    return -np.log(x) / c


def draw_interuser_gains(n: int, shape, rng: np.random.Generator) -> np.ndarray:
    """The weakest relay gain of the weak half of ``n`` cooperating users,
    an array of ``shape``.

    Every ordered pair of users sees an i.i.d. unit-mean exponential gain.
    Weak user j hears the sum of the gains from the m = n/2 strong users, a
    sum of m unit exponentials, hence Gamma(m, 1).  The weak users' sums
    use disjoint pairs, so they are independent of each other, and the pair
    gains are independent of the base-station gains that pick the halves,
    so these sums are independent of them too.  The cooperative rate reads
    only the least of the m sums, Y, with P(Y > y) = Q(m, y)^m.

    Each sum is the time of the m-th arrival of its own unit-rate Poisson
    process.  Merged, the m processes are one process of rate m whose
    arrivals carry independent uniform labels, and Y is the time of its
    T-th arrival, T the number of balls thrown uniformly into m bins until
    one holds m.  T does not depend on the arrival times, so
    Y = Gamma(T, 1) / m: a batch draws every T by inverting one uniform on
    the exact table of P(T > t), built once per m
    (``analytic._ball_count_inverse``), and then every Gamma(T).  At
    m = 1, T = 1 and no uniform is drawn.  Above m = 52 Y is drawn by
    inverting its lower tail, 1 - Q(m, Y) = -expm1(-E / m) for a standard
    exponential E, which never takes the log of zero
    (``analytic._gamma_inverse``).  Either way a value costs O(1) memory.

    On a shared 2-core x86-64 host the table draw costs 50 to 60 ns a
    value at m = 2 to 32 in calls of 32,000 or 1500 x 5 values, and 75 to
    85 ns in calls of 500.  Measured alongside, the least of m Gamma(m)
    draws costs 120, 270, 600 and 860 ns at m = 2, 6, 16 and 24, and the
    inversion 510 ns at m = 32 (2,500 ns in calls of 500).  The table and
    its guide take 0.9, 4.0 and 15 ms to build at m = 16, 32 and 52.  The
    switch is the largest m at which that build and one 32,000-value draw
    cost no more than one such draw by inversion.
    """
    half = n // 2
    if half > _BALL_COUNT_MAX_HALF:
        p = -np.expm1(-rng.standard_exponential(shape) / half)
        return analytic._gamma_inverse(half, p, upper=False)
    if half == 1:
        return rng.standard_gamma(1.0, shape)
    y = rng.standard_gamma(analytic._ball_count_inverse(half, rng.random(shape)), shape)
    y /= half
    return y
