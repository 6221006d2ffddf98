"""Fading-gain generation and the coherence policy, which sets the slot length.

All gains are dimensionless channel power gains; each user's gain has unit
mean.  A scheduler that rates a slot for one user draws only that user's
gain, an order statistic, by inversion of one Beta variate (one standard
exponential at the two extreme positions), so a static slot costs the same
at every population size.  At those two positions and one antenna the
best of the G groups' gains is a closed form in one uniform, which the
throughput estimate draws stratified.  A cooperative slot's weakest relay
gain is the least of N/2 Gamma(N/2) variates up to N/2 = 24 and one
inversion above, so its cost and memory grow with N only up to that
switch.  The inversions are the integer-parameter Gamma quantiles of
``analytic``.  Draws are pure functions of the supplied generator, so
per-worker streams stay independent and every realization is
reproducible from its seed.  The draws take their arguments from a
validated ``simcore.SimConfig`` through ``schedulers.slot_rates`` and
check none of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mcastsim import analytic

__all__ = [
    "CoherencePolicy",
    "draw_gains",
    "draw_interuser_gains",
    "draw_scheduled_gains",
    "draw_stratified_gains",
]

# The scaled policy evaluates log log on max(N*G, _LOGLOG_FLOOR) so it stays
# positive and finite for small populations.
_LOGLOG_FLOOR = 16
# Up to this many relay sums, the weakest is drawn as the least of the sums
# themselves; above it, by inverting its law (see draw_interuser_gains).
_GAMMA_MIN_MAX_HALF = 24


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
    with Q the regularized upper incomplete gamma function.  At the two
    extreme positions V has a closed form in one standard exponential E:
    Beta(N, 1) is U^(1/N) = exp(-E/N) at position 1, and Beta(1, N) is
    1 - U^(1/N) = -expm1(-E/N) at position N.  Both the fixed-fraction and
    the cooperative scheduler draw their base-station fading here, so
    throughput and delay see the same antenna law.
    """
    if position == 1:
        v = np.exp(-rng.standard_exponential(shape) / n_users)
    elif position == n_users:
        v = -np.expm1(-rng.standard_exponential(shape) / n_users)
    else:
        v = rng.beta(n_users - position + 1, position, shape)
    if antennas == 1:
        return -np.log(v)
    return analytic._gamma_inverse(antennas, v, upper=True) / antennas


def draw_stratified_gains(
    n_users: int, position: int, n_groups: int, strata: int, replicates: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The best of ``n_groups`` groups' gains at ascending position 1 or
    ``n_users`` of their ``n_users`` gains, at one antenna, as
    ``replicates`` independent stratified samples of ``strata`` values
    each: shape (strata, replicates), one replicate per column.

    That best gain has CDF (1 - e^(-c x))^k: at position 1 it is the best
    of G group minima, each exponential of rate N, so (k, c) = (G, N); at
    position N it is the largest of the N G gains, so (k, c) = (N G, 1).
    So X = -log1p(-U^(1/k)) / c for one uniform U, the law of
    ``draw_scheduled_gains`` at these positions followed by the best of
    G.  Row j of m takes U = (j + V)/m for a fresh uniform V per entry,
    one value in each of the m strata of [0, 1) per column (Owen, *Monte
    Carlo theory, methods and examples*, 2013, ch. 10).  The complement
    1 - U = (m - j - V)/m is formed directly: it is never 0, so the gain
    is finite, and it keeps its precision in the top stratum, where the
    largest gains lie.
    """
    k, c = (n_groups, n_users) if position == 1 else (n_users * n_groups, 1)
    x = rng.random((strata, replicates))
    x -= (strata - np.arange(strata))[:, None]
    x /= -strata                            # 1 - U
    if k > 1:                               # 1 - U^(1/k); 1 - U itself at k = 1
        with np.errstate(divide="ignore"):  # U = 0, the least gain, 0: log1p(-1)
            x = -np.expm1(np.log1p(-x) / k)
    return -np.log(x) / c


def draw_interuser_gains(n: int, shape, rng: np.random.Generator) -> np.ndarray:
    """The weakest relay gain of the weak half of ``n`` cooperating users,
    an array of ``shape``.

    Every ordered pair of users sees an i.i.d. unit-mean exponential gain.
    Weak user j hears the sum of the gains from the n/2 strong users, a sum
    of n/2 unit exponentials, hence Gamma(n/2, 1).  The weak users' sums
    use disjoint pairs, so they are independent of each other, and the pair
    gains are independent of the base-station gains that pick the halves,
    so these sums are independent of them too.  The cooperative rate reads
    only the least of the n/2 sums, Y, with P(Y > y) = Q(n/2, y)^(n/2).

    Up to n/2 = 24 the n/2 sums are drawn (numpy's Gamma sampler) and Y is
    their minimum, and the switch caps their memory at 24 floats per value
    drawn.  Above it, Y is drawn by inverting its lower tail,
    1 - Q(n/2, Y) = -expm1(-2 E / n) for a standard exponential E, which
    never takes the log of zero (``analytic._gamma_inverse``).  On a 2-core
    x86-64 host the minimum costs 660, 940 and 1080 ns per value at
    n/2 = 16, 24 and 32, and the inversion 700, 660 and 660 ns in calls of
    32,000 values, but 2,900, 3,100 and 3,200 ns in calls of 1000, whose
    fixed costs it pays per block of 256 values; the delay engine's rounds
    make such calls, so the switch stays at 24.
    """
    half = n // 2
    if half <= _GAMMA_MIN_MAX_HALF:
        return rng.standard_gamma(half, (*shape, half)).min(axis=-1)
    p = -np.expm1(-rng.standard_exponential(shape) / half)
    return analytic._gamma_inverse(half, p, upper=False)
