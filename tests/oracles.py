"""Independent reference computations for the test suite.

These deliberately avoid the package's own evaluation paths: the
exponential integral is integrated directly, throughputs come from the
order-statistic density, order-statistic survival functions are exact
integer binomial sums, the coupon-collector reference solves the
absorbing chain as a linear system, and the retransmission reference
convolves the per-attempt information law on a grid.
"""
from __future__ import annotations

import functools
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


def _attempt_sum_cdfs(target: float, power: float, cells: int) -> np.ndarray:
    """P(S_t <= target) for t = 1, 2, ... until it falls below 1e-18, where S_t
    sums t i.i.d. increments log(1 + P g), g ~ Exp(1).  Densities of S_t on a
    grid of `cells` cells over [0, target] come from trapezoid-rule
    convolutions, done by FFT; only increments below the target matter."""
    h = target / cells
    y = np.arange(cells + 1) * h
    g = np.exp(y - np.expm1(y) / power) / power
    size = 1 << (2 * cells + 1).bit_length()
    g_hat = np.fft.rfft(g, size)
    weights = np.full(cells + 1, h)
    weights[[0, -1]] = h / 2
    cdfs = []
    f = g
    while True:
        cdfs.append(float(weights @ f))
        if cdfs[-1] < 1e-18:
            return np.array(cdfs)
        conv = np.fft.irfft(np.fft.rfft(f, size) * g_hat, size)[: cells + 1]
        f = h * (conv - 0.5 * (g[0] * f + f[0] * g))


def ir_expected_attempts(n: int, target: float, power: float, cells: int = 2048) -> float:
    """Exact mean attempts of a retransmission cycle without a cap:
    E[tau] = sum_{t>=0} [1 - (1 - P(S_t <= target))^n].

    The trapezoid rule's error is a series in even powers of the cell
    width, so Richardson extrapolation over `cells` and 2 * `cells` cells
    leaves an error of fourth order."""
    coarse = _attempt_sum_cdfs(target, power, cells)
    fine = _attempt_sum_cdfs(target, power, 2 * cells)
    k = min(coarse.size, fine.size)
    cdfs = (4.0 * fine[:k] - coarse[:k]) / 3.0
    return 1.0 + math.fsum((-np.expm1(n * np.log1p(-cdfs))).tolist())
