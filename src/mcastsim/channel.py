"""Fading-gain generation and coherence-interval policies.

All gains are dimensionless channel power gains with unit mean.  Draws are
pure functions of the supplied generator, so per-worker streams stay
independent and every realization is reproducible from its seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoherencePolicy",
    "coherence_interval",
    "draw_gains",
    "draw_interuser_gains",
]

# The scaled policy evaluates log log on max(N*G, _LOGLOG_FLOOR) so it stays
# positive and finite for small populations.
_LOGLOG_FLOOR = 16


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

    @classmethod
    def fixed(cls, tc: float) -> "CoherencePolicy":
        return cls("fixed", float(tc))

    @classmethod
    def scaled(cls, c: float) -> "CoherencePolicy":
        return cls("scaled", float(c))


def coherence_interval(policy: CoherencePolicy, n_users: int, n_groups: int = 1) -> float:
    """Slot duration for ``n_groups`` groups of ``n_users`` each."""
    if n_users < 1 or n_groups < 1:
        raise ValueError("n_users and n_groups must be at least 1")
    if policy.mode == "fixed":
        return policy.value
    population = max(n_users * n_groups, _LOGLOG_FLOOR)
    return policy.value / math.log(math.log(population))


def draw_gains(shape, antennas: int, rng: np.random.Generator) -> np.ndarray:
    """Base-station power gains of the given shape, i.i.d. over entries.

    Each is the effective gain of a transmitter splitting power equally
    over ``antennas`` antennas: the mean of that many unit exponentials
    (Rayleigh fading when ``antennas`` is 1).  This is the only place the
    simulation draws base-station fading, so throughput and delay see the
    same antenna law.
    """
    if antennas < 1:
        raise ValueError("need at least one antenna")
    if antennas == 1:
        # the mean of one draw is the draw itself; skipping it matters
        # on the delay path, which draws once per hit
        gains = rng.exponential(1.0, shape)
    else:
        per_antenna = (shape, antennas) if np.ndim(shape) == 0 else (*shape, antennas)
        gains = rng.exponential(1.0, per_antenna).mean(axis=-1)
    if gains.size < 1:
        raise ValueError("need at least one gain")
    return gains


def draw_interuser_gains(n: int, rng: np.random.Generator, batch=()) -> np.ndarray:
    """Relay gains of the weak half of ``n`` cooperating users, of shape
    ``batch + (n/2,)``: i.i.d. Gamma(n/2, 1) variates.

    Every ordered pair of users sees an i.i.d. unit-mean exponential gain.
    Weak user j hears the sum of the gains from the n/2 strong users, a sum
    of n/2 unit exponentials, hence Gamma(n/2, 1).  The weak users' sums
    use disjoint pairs, so they are independent of each other, and the pair
    gains are independent of the base-station gains that pick the halves,
    so these sums are independent of them too.  That sum is all a
    cooperative rate reads of the pair gains.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("relay gains need an even number of users, at least 2")
    return rng.gamma(n // 2, 1.0, (*batch, n // 2))
