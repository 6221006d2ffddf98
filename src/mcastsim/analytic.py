"""Exact analytics for the scheduling schemes.

Closed-form throughputs built from the exponential integral, order
statistics of exponential and Chi-square fading, the law of the gain a
static or cooperative slot is rated on with the moments of its rate and
gain (the throughput reference and the estimate's control variate), the
coupon-collector waiting time of coupled queues with equal or unequal
needs, the mean attempts of an uncapped retransmission cycle from
renewal functions convolved on a grid, and each scheme's
throughput growth law, which run rows carry as their
``predicted_scaling`` reference.

Every law has an integer parameter and is evaluated in numpy: the
order-statistic survival function is a binomial tail, and the Chi-square
and Gamma laws are Poisson tails, whose Gamma quantiles the channel draws
invert.  The weakest relay gain's ball count has an exact table built one
bin at a time.  Integrals over [0, inf) use one double-exponential
(exp-sinh) rule whose integrands take a node array, so each refinement
is one ufunc call for one integrand, or a row per integrand in blocks
of nodes.
The static-throughput closed form is one alternating binomial sum of
e^x E1(x) terms, which cancels catastrophically in double precision once
systems get moderately large; it is taken over exact integer
coefficients in fixed-point integers, at a scale read from their sum,
with e^x E1(x) from its continued fraction where x is large and from
its power series below, gamma and the logarithms in the same integers,
and serves as the oracle for the quadrature evaluator.  Everything
returned is an ordinary float, except the coupon-collector means, a
float array from the integral and a list from the Markov chain, one per
need row.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "UnsupportedSizeError",
    "coupon_collector_expected_picks",
    "coupon_collector_markov",
    "ir_expected_attempts",
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
# Rows of integrands times nodes evaluated in one call of the integrand.
_DE_BLOCK = 2 ** 18
# Most integrals settle at level 2 or later, so levels 0 to 2 (289 nodes) are
# evaluated in one call of the integrand where they fit one block.
_DE_JOINT_LEVELS = 3

# Direct evaluation of the alternating sum is capped here; larger systems use
# throughput_quadrature.
_ALTERNATING_SUM_CAP = 256
# The closed form sums terms scaled by 2^bits, bits being _E1_GUARD_BITS
# beyond those of sum |c_a| and of 1 + N/P: the sum is at least P/(N + P), so
# its error is a few 2^-64 of it.  Terms with x >= bits/_E1_CROSSOVER take
# the continued fraction, cut where its error is about e^-_E1_MARGIN units of
# 2^-bits, and the rest the power series.  The two cost the same near
# x = bits/16 where P's ratio has small terms (P = 1 or 10) and near bits/10
# where they have 52 bits (P = 0.1), as the fraction's integers grow by those
# bits a level; the crossover lies between.
_E1_GUARD_BITS = 64
_E1_CROSSOVER = 12
_E1_MARGIN = 4.0
# The series takes gamma and ln 2 from one precision computed once per
# process, which covers every series term up to the cap (at most 530 bits).
_CONSTANT_BITS = 600


class UnsupportedSizeError(ValueError):
    """The requested size exceeds the range a closed form is evaluated over."""


# ---------------------------------------------------------------------------
# integer-parameter binomial, Poisson and Gamma laws
# ---------------------------------------------------------------------------

# A tail is its first term on the side away from the mean (Loader, 2000) times
# a series of term ratios, which start below 1 and fall; the other tail is its
# complement.  A series adds _SERIES_FIRST_SPAN terms, then twice as many
# each time, until its rest is below _SERIES_RTOL of its sum; a span is one
# array of terms times elements up to _SERIES_BLOCK values, and is taken a
# term at a time above, so that its memory stays a few arrays of elements.
# The array saves numpy calls where few elements need many terms, as near
# the mean of throughput_quadrature's binomial tails above 48 trials; a
# term at a time makes fewer passes over many elements, as in a Gamma
# quantile's blocks of thousands of values.  Caps from 2^10 to 2^14 take
# about the same time.
_SERIES_RTOL = 2.0 ** -54
_SERIES_FIRST_SPAN = 16
_SERIES_BLOCK = 2048
# log k! - log(sqrt(2 pi k) (k/e)^k) up to k = 15; the Stirling series above
_STIRLERR = np.array([0.0] + [math.lgamma(k + 1) - (k + 0.5) * math.log(k) + k
                              - 0.5 * math.log(2 * math.pi) for k in range(1, 16)])
# Binomial tails of at most this many trials, and the relay law's Poisson
# tails of at most this many terms, are summed term by term.
_DIRECT_SUM_MAX_N = 48
# The coupon integrand sums P(X < k) term by term up to this largest need,
# where e^-t underflows (t > 745) only once P(X < k) < e^-99; exp
# underflows to 0 below -_UNDERFLOW_LOG.
_FINITE_SUM_MAX_K = 400
_UNDERFLOW_LOG = 746.0
# Halley steps in log y stop below this step, the next error being about its
# cube; an inverse takes its values in blocks of this many, or an eighth of
# them if more, which bounds its temporaries.
_INVERSE_STEP_TOL = 1e-7
_INVERSE_MAX_STEPS = 16
_INVERSE_BLOCK = 256


def _stirlerr(k):
    """log k! - log(sqrt(2 pi k) (k/e)^k) for integers k >= 1, elementwise."""
    k = np.asarray(k)
    inv = 1.0 / np.maximum(k, 1)
    w = inv * inv
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - w / 1188) * w) * w) * w) * inv
    return np.where(k <= 15, _STIRLERR[np.minimum(k, 15)], series)


def _bd0(x, m):
    """x log(x / m) + m - x for x, m > 0, within a few ulps: d v + 2 x (atanh v - v)
    with d = x - m and v = d / (x + m), the atanh by its series where |v| < 0.2
    and, where |v| >= 0.9, the form itself (Loader, 2000)."""
    d = x - m
    v = d / (x + m)
    w = v * v
    series = v * w * (1 / 3 + w * (1 / 5 + w * (1 / 7 + w * (1 / 9 + w * (1 / 11 + w * (
        1 / 13 + w * (1 / 15 + w * (1 / 17 + w * (1 / 19 + w * (1 / 21 + w * (
            1 / 23 + w * (1 / 25 + w / 27))))))))))))
    near = d * v + 2 * x * np.where(w < 0.04, series, np.arctanh(np.clip(v, -0.9, 0.9)) - v)
    return np.where(w < 0.81, near, x * (np.log(x) - np.log(m)) - d)


@lru_cache(maxsize=None)
def _binomial_log_scale(n: int, x: int) -> float:
    """log P(X = x) + bd0(x, n s) + bd0(n - x, n (1 - s)) for X ~ Bin(n, s),
    0 < x < n, which does not depend on s (Loader, 2000)."""
    return (float(_stirlerr(n) - _stirlerr(x) - _stirlerr(n - x))
            + 0.5 * math.log(n / (2 * math.pi * x * (n - x))))


@lru_cache(maxsize=None)
def _binomial_terms(n: int, a: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """j, n - j and C(n, j) for j = a..n, the terms of P(Bin(n, s) >= a)."""
    j = np.arange(a, n + 1)
    return j, n - j, np.array([float(math.comb(n, i)) for i in j])


def _series(z, num, den, dnum: int, dden: int) -> np.ndarray:
    """sum_{i >= 0} prod_{m < i} r_m, r_m = z (num - dnum m) / (den + dden m),
    elementwise over the 1-d array z; num and den are scalars or arrays like
    z.  An element's ratios must fall with m from below 1; one that reaches
    0 ends its sum.  Each element's arithmetic is the same in whatever
    batch it comes: products and sums run term by term."""
    total = np.empty(z.size)
    rows = np.arange(z.size)
    acc, last = np.ones(z.size), np.ones(z.size)
    start, span = 0, _SERIES_FIRST_SPAN
    while rows.size:
        if rows.size * span <= _SERIES_BLOCK:
            # one row per term, the outer product by matmul, which needs no
            # broadcast buffer
            m = np.arange(start, start + span)[:, None]
            factor = (num - dnum * m) / (den + dden * m)
            terms = factor * z if factor.shape[1] > 1 else factor @ z[None, :]
            ratio = terms[-1].copy()
            terms[0] *= last
            np.cumprod(terms, axis=0, out=terms)
            last = terms[-1].copy()
            np.cumsum(terms, axis=0, out=terms)
            acc += terms[-1]
            del terms   # before the next block is built
        else:
            part = np.zeros(rows.size)
            for m in range(start, start + span):
                ratio = z * ((num - dnum * m) / (den + dden * m))
                last *= ratio
                part += last
            acc += part
        # the rest is at most last * r / (1 - r), r the last ratio
        done = last * ratio <= _SERIES_RTOL * acc * (1 - ratio)
        if done.any():
            total[rows[done]] = acc[done]
            keep = ~done
            rows, z, acc, last = rows[keep], z[keep], acc[keep], last[keep]
            num = num[keep] if np.ndim(num) else num
            den = den[keep] if np.ndim(den) else den
        start, span = start + span, 2 * span
    return total


def _poisson_log_tails(k, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log P(X >= k), log P(X < k), log P(X = k)) for X ~ Poisson(t),
    elementwise over broadcast integers k >= 1 and t > 0.  P(X >= k) is also
    the regularized lower incomplete gamma function P(k, t), and P(X < k)
    the upper, Q(k, t)."""
    k, t = np.asarray(k), np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(k.shape, t.shape)
    t = np.broadcast_to(t, shape).ravel()
    if k.ndim:
        k = np.broadcast_to(k, shape).ravel()
    log_pmf = -_stirlerr(k) - _bd0(k, t) - 0.5 * np.log(2 * math.pi * k)
    upper = t < k
    lower = ~upper
    short = np.empty(t.size)
    # P(X >= k) from P(X = k), ratios t / (k + 1 + m)
    t_up, k_up = t[upper], k[upper] if k.ndim else k
    short[upper] = log_pmf[upper] + np.log(_series(t_up, 1, k_up + 1, 0, 1))
    # P(X < k) from P(X = k - 1) = P(X = k) k / t, ratios (k - 1 - m) / t
    t_lo, k_lo = t[lower], k[lower] if k.ndim else k
    short[lower] = log_pmf[lower] + np.log(k_lo / t_lo * _series(1 / t_lo, k_lo - 1, 1, 1, 0))
    long = np.log1p(-np.exp(short))
    return (np.where(upper, short, long).reshape(shape),
            np.where(upper, long, short).reshape(shape), log_pmf.reshape(shape))


def _poisson_lower_tails(k_max: int, t: np.ndarray) -> np.ndarray:
    """P(X < k) for X ~ Poisson(t), one row for each k = 1..k_max and one
    column for each t >= 0: the finite sum e^-t sum_{j<k} t^j / j! term by
    term, each term a running product, so within about k ulps."""
    terms = np.empty((k_max, t.size))
    terms[0] = np.exp(-t)
    terms[1:] = t / np.arange(1, k_max)[:, None]
    np.cumprod(terms, axis=0, out=terms)
    np.cumsum(terms, axis=0, out=terms)
    return terms


def _binomial_tail(n: int, a: int, s):
    """P(Bin(n, s) >= a), elementwise over an array s in [0, 1], for 1 < a < n."""
    s = np.asarray(s, dtype=float)
    if n <= _DIRECT_SUM_MAX_N:
        j, rest, comb = _binomial_terms(n, a)
        # a sum near 1 can round above it
        return np.minimum((s[..., None] ** j * (1 - s)[..., None] ** rest * comb).sum(axis=-1), 1.0)
    out = np.where(s >= 1, 1.0, 0.0)
    inner = (s > 0) & (s < 1)
    s = s[inner]
    q = 1 - s
    upper = n * s < a
    lower = ~upper
    # from P(X = x), x = a above the mean and a - 1 below it
    x = np.where(upper, a, a - 1)
    log_first = (np.where(upper, _binomial_log_scale(n, a), _binomial_log_scale(n, a - 1))
                 - _bd0(x, n * s) - _bd0(n - x, n * q))
    tail = np.empty(s.size)
    # P(X >= a): ratios (n - a - m) s / ((a + 1 + m) q)
    tail[upper] = np.exp(log_first[upper]) * _series(s[upper] / q[upper], n - a, a + 1, 1, 1)
    # P(X < a): ratios (a - 1 - m) q / ((n - a + 2 + m) s)
    tail[lower] = -np.expm1(log_first[lower] + np.log(
        _series(q[lower] / s[lower], a - 1, n - a + 2, 1, 1)))
    out[inner] = tail
    return out


def _gamma_inverse(k: int, tail, upper: bool) -> np.ndarray:
    """The y with Q(k, y) = tail if ``upper``, else P(k, y) = tail,
    elementwise over an array ``tail`` in [0, 1], for an integer k >= 1."""
    tail = np.asarray(tail, dtype=float)
    flat = tail.ravel()
    y = np.empty(flat.size)
    block = max(_INVERSE_BLOCK, -(-flat.size // 8))
    for lo in range(0, flat.size, block):
        y[lo:lo + block] = _gamma_inverse_block(k, flat[lo:lo + block], upper)
    return y.reshape(tail.shape)


def _gamma_inverse_block(k: int, tail: np.ndarray, upper: bool) -> np.ndarray:
    """_gamma_inverse on a 1-d array.  Each value is solved on the side whose
    probability is at most 1/2, in log y for the log of that probability,
    which is concave there, by Halley steps from _gamma_inverse_start."""
    flip = tail > 0.5
    side_upper = flip != upper
    # 1 - tail is exact for tail in [1/2, 1]
    prob = np.where(flip, 1 - tail, tail)
    y = np.where(side_upper, np.inf, 0.0)
    solve = prob > 0
    prob, side_upper = prob[solve], side_upper[solve]
    u = _gamma_inverse_start(k, prob, side_upper)
    target = np.log(prob)
    rows = np.arange(prob.size)
    for _ in range(_INVERSE_MAX_STEPS):
        step = _halley_step(k, np.exp(u[rows]), side_upper[rows], target[rows])
        u[rows] -= step
        rows = rows[abs(step) > _INVERSE_STEP_TOL]
        if not rows.size:
            break
    else:
        raise ArithmeticError(f"Gamma quantile did not settle within {_INVERSE_MAX_STEPS} steps")
    y[solve] = np.exp(u)
    return y


def _gamma_inverse_start(k: int, prob: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """log y0 for Q(k, y) = prob where ``upper``, else P(k, y) = prob: the
    Wilson-Hilferty approximation or the lower bound (P k!)^(1/k) of a small
    root, whichever is larger."""
    # the normal quantile of prob <= 1/2 to 4.5e-4 (Abramowitz & Stegun 26.2.23)
    t = np.sqrt(-2 * np.log(prob))
    z = (2.515517 + (0.802853 + 0.010328 * t) * t) / (
        1 + (1.432788 + (0.189269 + 0.001308 * t) * t) * t) - t
    cube = np.maximum(1 - 1 / (9 * k) + np.where(upper, -z, z) / (3 * math.sqrt(k)), 0.0)
    log_lower = np.where(upper, np.log1p(-prob), np.log(prob))
    return np.log(np.maximum(k * cube ** 3, np.exp((log_lower + math.lgamma(k + 1)) / k)))


def _halley_step(k: int, y: np.ndarray, upper: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The Halley step in u = log y towards log Q(k, y) = target where
    ``upper``, else log P(k, y) = target, at most 1 in size."""
    log_p, log_q, log_pmf = _poisson_log_tails(k, y)
    log_side = np.where(upper, log_q, log_p)
    f = log_side - target
    # d/du log P(k, e^u) = k P(X = k) / P(k, y) and d/du log Q = -k P(X = k) / Q
    d1 = np.where(upper, -k, k) * np.exp(log_pmf - log_side)
    d2 = d1 * (k - y) - d1 * d1
    return np.clip(f / (d1 * np.maximum(1 - f * d2 / (2 * d1 * d1), 0.5)), -1.0, 1.0)


# ---------------------------------------------------------------------------
# fading order statistics
# ---------------------------------------------------------------------------

def _order_stat_sf(n: int, pos: int, n_groups: int, user_sf):
    """P(order statistic > x) from user_sf = P(one gain > x), elementwise
    over an array of user_sf values or for one value.

    The pos-th smallest of n gains exceeds x iff fewer than pos gains lie
    below x, i.e. at least n - pos + 1 lie above: a binomial tail, s^n at
    pos = 1 and 1 - (1 - s)^n at pos = n.  The best of n_groups groups
    exceeds x unless all lie below: 1 - (1 - sf)^G, sf at G = 1.
    ``channel.draw_scheduled_gains`` samples by the same identity.
    """
    s = np.asarray(user_sf, dtype=float)
    # s = 1 gives log1p(-1) = -inf and so exactly 1
    with np.errstate(divide="ignore"):
        if pos == 1:
            sf = s ** n
        elif pos == n:
            sf = -np.expm1(n * np.log1p(-s))
        else:
            sf = _binomial_tail(n, n - pos + 1, s)
        return sf if n_groups == 1 else -np.expm1(n_groups * np.log1p(-sf))


# ---------------------------------------------------------------------------
# the ball count of the weakest relay sum
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _ball_count_sf(m: int) -> np.ndarray:
    """P(T > t) for t = 0..m(m - 1), T the number of balls thrown uniformly
    into m bins until one bin holds m (Johnson & Kotz, *Urn Models and
    Their Application*, 1977); P(T > m(m - 1) + 1) = 0 by pigeonhole, so
    the table is complete.  The cached array is shared: callers only read it.

    With p_j(t) the chance that t balls in j bins leave every bin below m,
    p_1(t) = [t < m] and p_j(t) = sum_{k<m} Bin(t, 1/j)(k) p_{j-1}(t - k),
    k being the first bin's count; p_j(t) = 0 above t = j(m - 1).  The
    binomial weights follow from (1 - 1/j)^t by their ratios in k, so
    every term is nonnegative, and each step is O(m) numpy calls on
    arrays of j(m - 1) + 1 values.  The table is nonincreasing, as the law.
    """
    sf = np.ones(m)
    for j in range(2, m + 1):
        size, rest = j * (m - 1) + 1, sf.size
        shift = np.arange(size, dtype=float)    # t - k + 1 at step k
        weight = (1 - 1 / j) ** shift
        nxt = np.zeros(size)
        nxt[:rest] = weight[:rest] * sf
        for k in range(1, m):
            # Bin(t, 1/j)(k) = Bin(t, 1/j)(k - 1) (t - k + 1) / (k (j - 1))
            weight *= shift
            weight *= 1 / (k * (j - 1))
            shift -= 1
            nxt[k:k + rest] += weight[k:k + rest] * sf
        sf = nxt
    # entries within rounding of 1 can come out an ulp above the one before
    np.minimum.accumulate(sf, out=sf)
    sf.flags.writeable = False
    return sf


@lru_cache(maxsize=None)
def _ball_count_guide(m: int) -> tuple[np.ndarray, np.ndarray]:
    """_ball_count_sf(m) in ascending order, and the guide of
    _ball_count_inverse: the count of P(T > t) above i/C for i = 0..C, at
    C = 2 to 4 cells per table entry, a power of two, so u C < C for u < 1.
    Twice the cells take about 6 ns a value less and twice the memory."""
    ascending = np.ascontiguousarray(_ball_count_sf(m)[::-1])
    cells = 2 << ascending.size.bit_length()
    edges = np.arange(cells + 1) / cells
    guide = (ascending.size - np.searchsorted(ascending, edges, side="right")).astype(np.int32)
    return ascending, guide


def _ball_count_inverse(m: int, u: np.ndarray) -> np.ndarray:
    """T = #{t : P(T > t) > u}, elementwise over uniforms u in [0, 1), so
    that P(T > t) = P(u < P(T > t)).  T is nonincreasing in u; on the cell
    [i/C, (i + 1)/C) it lies between the guide's counts at its two ends,
    read off where they agree and searched in the table where they do not
    (the guide table of Chen & Asau, 1974)."""
    ascending, guide = _ball_count_guide(m)
    cells = guide.size - 1
    index = (u * cells).astype(np.intp)
    balls = guide[index]
    split = balls != guide[1:][index]
    balls[split] = ascending.size - np.searchsorted(ascending, u[split], side="right")
    return balls


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


@lru_cache(maxsize=None)
def _de_joint_nodes() -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The nodes and weights of levels 0 to _DE_JOINT_LEVELS - 1, each in
    one array, and the offsets where each level starts and ends."""
    levels = [_de_nodes(level) for level in range(_DE_JOINT_LEVELS)]
    x, weight = (np.concatenate(part) for part in zip(*levels))
    x.flags.writeable = weight.flags.writeable = False
    return x, weight, tuple(np.cumsum([0] + [lx.size for lx, _ in levels]).tolist())


def _de_terms(f, span: int):
    """Yield, level by level, the blocks of f(x) dx/dt at the nodes each
    level adds, f called on at most ``span`` nodes at a time; the first
    _DE_JOINT_LEVELS levels come from one call where they fit one block."""
    x, weight, ends = _de_joint_nodes()
    first = 0
    if x.size <= span:
        terms = f(x) * weight
        for lo, hi in zip(ends, ends[1:]):
            yield [terms[..., lo:hi]]
        first = _DE_JOINT_LEVELS
    for level in range(first, _DE_MAX_HALVINGS + 1):
        x, weight = _de_nodes(level)
        yield (f(x[lo:lo + span]) * weight[lo:lo + span] for lo in range(0, x.size, span))


def _integrate_0_inf(f, rows: int = 1):
    """int_0^inf f(x) dx for f decaying at both ends, by the exp-sinh
    double-exponential rule (Takahasi & Mori, 1974): the trapezoid rule in t
    for x = exp(pi/2 sinh t), the step halved until the estimate moves by
    at most a relative 1e-12.  ``f`` maps a node array to a value array,
    or to ``rows`` rows of values, one per integrand, whose integrals come
    back as an array; it is called on at most _DE_BLOCK / rows nodes at a
    time.  Raises ArithmeticError if an estimate does not settle or an
    integrand is not negligible at the window's ends."""
    total = 0.0
    previous = None
    for level, blocks in enumerate(_de_terms(f, max(1, _DE_BLOCK // rows))):
        for i, terms in enumerate(blocks):
            if level == 0 and i == 0:
                first = terms[..., 0]
            total = total + terms.sum(axis=-1)
        if level == 0:
            ends = _DE_FIRST_STEP * np.maximum(abs(first), abs(terms[..., -1]))
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


def _exp_e1_depth(x: float, bits: int) -> int:
    """Depth of the continued fraction of _scaled_exp_e1 that leaves an error
    below 2^-bits at x > 0.

    Cut at depth n, the fraction's relative error is about exp(-E) with
    E = sqrt(x (x + nu)) - x + nu asinh(sqrt(x / nu)) and nu = 4 n + 2, from
    the growth of the Laguerre polynomials L_n(-x).  E is concave in nu with
    slope asinh(sqrt(x / nu)) and at most 2 sqrt(nu x), so Newton steps from
    2 sqrt(nu x) = target climb to the root without passing it.  E is
    4 sqrt(n x) only for n >> x; for x near n or above, that law stops far
    too early.
    """
    target = bits * math.log(2) + _E1_MARGIN
    nu = max(target * target / (4 * x), 2.0)
    while (gap := target - nu / (1 + math.sqrt(1 + nu / x))
           - nu * math.asinh(math.sqrt(x / nu))) > 1e-3:
        nu += gap / math.asinh(math.sqrt(x / nu))
    return math.ceil((nu - 2) / 4)


def _scaled_exp_e1(num: int, den: int, bits: int, depth: int) -> int:
    """e^x E1(x) at x = num/den, times 2^bits, within about one unit, by the
    continued fraction 1/(x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...))) cut at
    ``depth`` (Abramowitz & Stegun 5.1.22, contracted), its convergent A/B
    by the forward three-term recurrence in exact integers, each level
    scaled by den, and floored by one division at the end."""
    den2 = den * den
    a_prev, a, b_prev, b = 0, 1, 1, num + den
    for k in range(1, depth + 1):
        part, step = k * k * den2, num + (2 * k + 1) * den
        a_prev, a = a, step * a - part * a_prev
        b_prev, b = b, step * b - part * b_prev
    return (a * den << bits) // b


def _atanh(num: int, den: int, bits: int) -> int:
    """atanh(num/den) times 2^bits for 0 <= |num| < den, from its Taylor
    series, within a unit per term."""
    power = (abs(num) << bits) // den
    total, num2, den2, k = power, num * num, den * den, 1
    while power:
        power = power * num2 // den2
        k += 2
        total += power // k
    return total if num >= 0 else -total


def _log_ratio(num: int, den: int, bits: int, ln2: int) -> int:
    """ln(num/den) times 2^bits for positive integers, ``ln2`` being ln 2 at
    the same scale: e ln 2 + 2 atanh((m - d)/(m + d)) for num/den = 2^e m/d
    with m/d within a factor sqrt(2) of 1, so that each term of the series
    gains at least 5 bits.  Its error is below bits/2 + |e|/2 + 2 units,
    which the caller's guard bits absorb."""
    shift = num.bit_length() - den.bit_length()
    if shift > 0:
        den <<= shift
    else:
        num <<= -shift
    if 2 * num * num < den * den:
        num, shift = 2 * num, shift - 1
    elif num * num > 2 * den * den:
        den, shift = 2 * den, shift + 1
    return shift * ln2 + 2 * _atanh(num - den, num + den, bits)


def _gamma_ln2(bits: int) -> tuple[int, int]:
    """Euler's gamma and ln 2 times 2^bits, within a unit: ln 2 = 2 atanh(1/3),
    and gamma by Brent & McMillan (Math. Comp. 34, 1980) as U/V with
    V = sum_k b_k, b_k = (n^k/k!)^2, and U = sum_k b_k (H_k - ln n), whose
    error is below e^-4n; U's terms follow a_k = (a_{k-1} n^2/k + b_k)/k."""
    work = bits + 16
    ln2 = 2 * _atanh(1, 3, work)
    n = math.ceil(work * math.log(2) / 4) + 1
    a = -_log_ratio(n, 1, work, ln2)
    b, u, v, k = 1 << work, a, 1 << work, 0
    while a or b:
        k += 1
        b = b * n * n // (k * k)
        a = (a * n * n // k + b) // k
        u, v = u + a, v + b
    return ((u << work) // v + (1 << 15)) >> 16, (ln2 + (1 << 15)) >> 16


@lru_cache(maxsize=1)
def _cached_gamma_ln2() -> tuple[int, int]:
    return _gamma_ln2(_CONSTANT_BITS)


def _constants(bits: int) -> tuple[int, int]:
    """gamma and ln 2 times 2^bits: rounded from the one precision cached per
    process up to _CONSTANT_BITS, computed afresh above it."""
    if bits > _CONSTANT_BITS:
        return _gamma_ln2(bits)
    shift = _CONSTANT_BITS - bits
    return tuple((c + (1 << shift >> 1)) >> shift for c in _cached_gamma_ln2())


def _series_exp_e1(num: int, den: int, bits: int) -> int:
    """e^x E1(x) at x = num/den, times 2^bits, within about one unit, from
    sum_{n>=0} t_n (H_n - gamma - ln x), t_n = x^n/n!, which is e^x times
    Abramowitz & Stegun 5.1.11.  The sum cancels from terms near e^x down
    to a value near 1/(1 + x), so it is taken in fixed point with that many
    guard bits: the t_n forward, then sum_n t_n H_n = sum_k (1/k) sum_{n>=k} t_n
    from the tail sums backward, and the constant's factor is one product."""
    guard = math.ceil(num / den / math.log(2)) + 2 * (num // den + 2).bit_length() + 16
    work = bits + guard
    gamma, ln2 = _constants(work)
    terms = [1 << work]
    while terms[-1]:
        terms.append(terms[-1] * num // (den * len(terms)))
    tail = weighted = 0
    for k in range(len(terms) - 1, 0, -1):
        tail += terms[k]
        weighted += tail // k
    total = tail + terms[0]
    value = weighted - ((gamma + _log_ratio(num, den, work, ln2)) * total >> work)
    return (value + (1 << (guard - 1))) >> guard


def static_throughput_closed_form(n_users: int, alpha: int, power: float) -> float:
    """Mean delivered nats per slot of the fixed-fraction scheduler: the
    targeted order statistic's expected log(1 + gain * P), times the N/alpha
    users decoding each slot.

    With r = N/alpha - 1 users above the scheduled one, P(gain > x) is the
    binomial tail sum_{a=r+1..N} (-1)^(a-r-1) C(a-1, r) C(N, a) e^{-a x}
    (David & Nagaraja, 2003), and int_0^inf P e^{-a x}/(1 + P x) dx is
    e^{a/P} E1(a/P) = -e^{a/P} Ei(-a/P), so the expectation is minus one
    sum of c_a e^{a/P} E1(a/P) with integer c_a = (-1)^(a+r) C(N, a) C(a-1, r).
    Cancellation costs about as many bits as sum |c_a| has, so each term is
    a fixed-point integer at _E1_GUARD_BITS beyond those and the bits of
    1 + N/P, and the exact integer sum is rounded once.
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
    # x_a = a/P = a q/p exactly
    p, q = power.as_integer_ratio()
    bits = (sum(abs(c) for _, c in terms).bit_length() + _E1_GUARD_BITS
            + (n_users * q // p + 1).bit_length())
    total = 0
    for a, c in terms:
        if _E1_CROSSOVER * a * q >= bits * p:
            total += c * _scaled_exp_e1(a * q, p, bits, _exp_e1_depth(a / power, bits))
        else:
            total += c * _series_exp_e1(a * q, p, bits)
    return -total * n_users / (alpha << bits)


def throughput_quadrature(
    n_users: int, alpha: int | None, power: float, n_groups: int = 1, antennas: int = 1
) -> float:
    """General throughput evaluator: (N/alpha) E[log(1 + P Z)] for the gain
    Z a slot is rated on, the fixed-fraction scheduler's at ``alpha`` and
    the cooperative one's (N/2 served) at alpha None, best of ``n_groups``
    groups; the first moment of _rated_gain_moments.  Works at any size,
    including beyond the alternating-sum cap."""
    if alpha is None:
        if n_users % 2 or antennas != 1:
            raise ValueError("cooperation needs an even n_users and one antenna")
    else:
        _check_alpha(n_users, alpha)
    _check_power(power)
    if n_groups < 1 or antennas < 1:
        raise ValueError("n_groups and antennas must be at least 1")
    served = n_users / (alpha or 2)
    return _rated_gain_moments(n_users, alpha, power, n_groups, antennas)[0] * served


def _rated_gain_sf(n_users: int, alpha: int | None, n_groups: int, antennas: int):
    """P(Z > z) over a node array, for the best of ``n_groups`` groups' rated
    gains Z.  The fixed-fraction gain is the order statistic at ascending
    position N - N/alpha + 1 of gains with Q(L, L z) = P(Pois(L z) < L)
    above z.  The cooperative gain (alpha None) is min(X, Y/m) for m = N/2,
    X the gain at position m + 1 and Y the weakest relay gain, with
    P(Y > y) = Q(m, y)^m (``channel.draw_interuser_gains``), independent of X."""
    if alpha is not None:
        pos = n_users - n_users // alpha + 1

        def sf(z):
            user_sf = np.exp(-z if antennas == 1 else _poisson_log_tails(antennas, antennas * z)[1])
            return _order_stat_sf(n_users, pos, n_groups, user_sf)

        return sf
    half = n_users // 2

    def coop_sf(z):
        if half <= _DIRECT_SUM_MAX_N:
            # a sum near 1 can round above it
            relay = np.minimum(_poisson_lower_tails(half, half * z)[-1], 1.0) ** half
        else:
            relay = np.exp(half * _poisson_log_tails(half, half * z)[1])
        one_group = _order_stat_sf(n_users, half + 1, 1, np.exp(-z)) * relay
        # the best of G values, each with survival function one_group
        return _order_stat_sf(1, 1, n_groups, one_group)

    return coop_sf


@lru_cache(maxsize=1)
def _rated_gain_moments(
    n_users: int, alpha: int | None, power: float, n_groups: int, antennas: int,
) -> tuple[float, float, float, float, float]:
    """E[R], E[C], E[C^2], E[R C] and E[R^2] for the rate R = log(1 + P Z)
    of the rated gain C = Z (_rated_gain_sf), as one five-row integral by
    the exp-sinh rule of _integrate_0_inf.  E[g(Z)] = int g'(z) P(Z > z) dz
    for g(0) = 0, with g' = P/(1 + P z), 1, 2 z, log(1 + P z) + P z/(1 + P z)
    and 2 log(1 + P z) P/(1 + P z).  The last law's moments are kept, so that
    the throughput estimate reads those throughput_quadrature integrated."""
    sf = _rated_gain_sf(n_users, alpha, n_groups, antennas)

    def integrand(z):
        rate, slope = np.log1p(power * z), power / (1.0 + power * z)
        rows = np.empty((5, z.size))
        rows[0], rows[1], rows[2] = slope, 1.0, 2 * z
        rows[3], rows[4] = rate + z * slope, 2 * rate * slope
        rows *= sf(z)
        return rows

    return tuple(_integrate_0_inf(integrand, rows=5).tolist())


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
    largest need, so that every pattern's step lies at or below 1; the
    integrand holds a row per pattern and per need for a block of nodes."""
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
    # the distinct needs, by a sort in place of np.unique, which loads numpy.ma
    ks = np.sort(patterns, axis=None)
    ks = ks[np.concatenate(([True], ks[1:] != ks[:-1]))]
    counts = (patterns[:, :, None] == ks).sum(axis=1, dtype=float)
    scale = float(ks[-1])

    def integrand(x):
        return -np.expm1(counts @ _poisson_log_sf(ks, scale * x))

    picks = _integrate_0_inf(integrand, len(patterns) + _poisson_log_sf_rows(ks))
    return (float(total_queues) * scale * picks)[pattern_of]


def _poisson_log_sf_rows(ks: np.ndarray) -> int:
    """The rows of values _poisson_log_sf(ks, t) holds per t: one per need
    and one per partial sum of its finite sum."""
    return len(ks) + min(ks[-1], _FINITE_SUM_MAX_K)


def _poisson_log_sf(ks: np.ndarray, t: np.ndarray) -> np.ndarray:
    """log P(X >= k) for X ~ Poisson(t), one row for each of the sorted
    integers ks >= 1 and one column for each t > 0, to the absolute
    precision the coupon integrand reads it at.

    Up to k = _FINITE_SUM_MAX_K it is log1p of minus the finite sum
    P(X < k) = e^-t sum_{j<k} t^j / j!, one cumulative sum for every k,
    floored at -1e300 where the tail rounds to 0.  Above, a rough log term
    bd0(k, t) marks the tails whose exponential underflows, which read as
    -bd0, and those within e^-60 of 1, which read as 0; the rest are exact."""
    if ks[-1] <= _FINITE_SUM_MAX_K:
        lower = _poisson_lower_tails(ks[-1], t)[ks - 1]
        # a sum near 1 can round above it
        with np.errstate(divide="ignore"):
            return np.maximum(np.log1p(-np.minimum(lower, 1.0)), -1e300)
    k = ks[:, None]
    rough = k * (np.log(k) - np.log(t)) + t - k
    upper = t < k
    # P(X >= k) <= e^-bd0 (k + 1) above the mean; P(X < k) <= e^-bd0 k below it
    exact = np.where(upper, rough < _UNDERFLOW_LOG + np.log(k + 1), rough < 60 + np.log(k))
    logs = np.where(upper, -rough, 0.0)
    logs[exact] = _poisson_log_tails(np.broadcast_to(k, logs.shape)[exact],
                                     np.broadcast_to(t, logs.shape)[exact])[0]
    return logs


def coupon_collector_markov(total_queues: int, needs) -> list[float]:
    """Exact expected picks over ``total_queues`` queues until coupled queue
    j has been picked needs[i][j] times, for each row i of ``needs``, from
    the absorbing chain over remaining-service vectors.  Queues are
    exchangeable, so a state is its sorted remaining needs with zeros
    dropped, and the rows share one chain, memoised within the call.  Its
    states are the sub-multisets of the rows, so this is a cross-check for
    small instances, not a production path."""
    rows = [tuple(sorted(row)) for row in needs]
    if any(not row or total_queues < len(row) or row[0] < 1 for row in rows):
        raise ValueError("invalid coupon-collector instance")
    memo = {(): 0.0}

    def expected(state: tuple) -> float:
        if state not in memo:
            # a hit on any queue of a run of equal needs leads to the state
            # with the run's first need decremented, which stays sorted
            hit_sum = 0.0
            for need in state:
                j = state.index(need)
                hit_sum += expected(state[:j] + (need - 1,) * (need > 1) + state[j + 1:])
            # E = 1 + (1/Q) sum_active E(next) + (1 - |active|/Q) E, solved for E
            memo[state] = (1.0 + hit_sum / total_queues) / (len(state) / total_queues)
        return memo[state]

    return [expected(row) for row in rows]


# ---------------------------------------------------------------------------
# retransmission renewal cycles
# ---------------------------------------------------------------------------

# A renewal function's sum CDFs are convolved on this many cells over
# [0, target] and on twice as many, and extrapolated: at N = 4, R = 0.5 that
# takes about 1 ms and is within 7e-14 of 2048 cells.
_RENEWAL_CELLS = 256


def _renewal_cdfs(target: float, cdf, cells: int) -> np.ndarray:
    """P(R_1 + ... + R_m <= target) for m = 1, 2, ... until it falls below
    1e-18, for i.i.d. increments R with the continuous CDF ``cdf``, 0 at 0.
    On a grid of ``cells`` cells over [0, target], each sum's CDF is the
    Stieltjes convolution of the last one with ``cdf``, by the midpoint rule
    in each cell (an error of second order in the cell width), done by
    direct convolution, which at these cell counts costs about what an FFT
    does and keeps ``numpy.fft`` unloaded."""
    h = target / cells
    # kernel[k] = cdf((k - 1/2) h): a cell's mass at its midpoint, k cells back
    kernel = cdf((np.arange(cells + 1) - 0.5) * h)
    kernel[0] = 0.0
    sum_cdf = cdf(np.arange(cells + 1) * h)
    cdfs = []
    while True:
        cdfs.append(float(sum_cdf[-1]))
        if cdfs[-1] < 1e-18:
            return np.array(cdfs)
        sum_cdf = np.convolve(np.diff(sum_cdf), kernel)[: cells + 1]


def _extrapolated_renewal_cdfs(target: float, cdf, cells: int = _RENEWAL_CELLS) -> np.ndarray:
    """``_renewal_cdfs`` over ``cells`` and 2 ``cells`` cells, combined by
    Richardson extrapolation, which leaves an error of fourth order."""
    coarse = _renewal_cdfs(target, cdf, cells)
    fine = _renewal_cdfs(target, cdf, 2 * cells)
    k = min(coarse.size, fine.size)
    return (4.0 * fine[:k] - coarse[:k]) / 3.0


def ir_expected_attempts(n_users: int, target: float, power: float,
                         cells: int = _RENEWAL_CELLS) -> float:
    """Exact mean attempts of a retransmission cycle without a cap:
    E[tau] = sum_{t>=0} [1 - (1 - P(S_t < target))^N], where S_t sums t
    i.i.d. increments log(1 + P g), g ~ Exp(1), of CDF 1 - exp(-(e^u - 1)/P),
    from the renewal CDFs on ``cells`` cells.  The renewal-reward
    throughput is N target / E[tau] (Caire & Tuninetti, 2001)."""
    cdfs = _extrapolated_renewal_cdfs(target, lambda u: -np.expm1(-np.expm1(u) / power), cells)
    with np.errstate(divide="ignore"):      # a sum surely below the target: log1p(-1)
        return 1.0 + math.fsum((-np.expm1(n_users * np.log1p(-cdfs))).tolist())


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
