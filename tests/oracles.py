"""Independent reference computations for the test suite.

These deliberately avoid the package's own evaluation paths: the
exponential integral is integrated directly, throughputs come from the
order-statistic density, and the coupon-collector reference solves the
absorbing chain as a linear system.
"""
from __future__ import annotations

import itertools
import math
from math import comb, exp, log1p

import numpy as np
from scipy import integrate


def ei_reference(x: float) -> float:
    """Ei(x) for x < 0 by adaptive quadrature of the defining integral."""
    assert x < 0
    val, _ = integrate.quad(
        lambda u: math.exp(-u) / u, -x, np.inf, epsabs=1e-14, epsrel=1e-13, limit=300
    )
    return -val


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


def expected_log1p_reference(power: float, cdf, upper: float = np.inf) -> float:
    """E[log(1 + P X)] = int P/(1+Px) (1 - F(x)) dx for X >= 0."""
    val, _ = integrate.quad(
        lambda x: (1.0 - cdf(x)) * power / (1.0 + power * x), 0, upper,
        epsabs=1e-13, epsrel=1e-10, limit=300,
    )
    return val


def coupon_reference(total_queues: int, coupled: int, needed: int) -> float:
    """Expected trials until each coupled queue is hit `needed` times,
    solved exactly as a linear system over all remaining-service vectors."""
    states = list(itertools.product(range(needed + 1), repeat=coupled))
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
    return float(np.linalg.solve(a, b)[index[(needed,) * coupled]])


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
