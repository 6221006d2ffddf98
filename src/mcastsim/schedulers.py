"""Per-slot rate laws for every scheme: the one place a rate is computed.

Every kernel takes gains with arbitrary leading batch dimensions, so the
throughput path schedules thousands of slots per call and the delay path
one slot per call, through the same code.

The fixed-fraction scheduler keys the rate to the gain at the ascending
position N - N/alpha + 1, so exactly N/alpha users decode.  The
retransmission scheme accumulates mutual information across attempts until
the slowest user crosses the rate target.  The cooperative scheme serves
the stronger half first and lets it relay to the weaker half.  The
multigroup forms serve the group with the largest rate this slot.

Rates are in nats per channel use.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "cooperative_schedule",
    "ir_advance",
    "multigroup_cooperative_schedule",
    "multigroup_static_schedule",
    "static_schedule",
]


def _as_gains(gains, name: str = "gains") -> np.ndarray:
    g = np.asarray(gains, dtype=float)
    if g.ndim < 1 or g.shape[-1] < 1:
        raise ValueError(f"{name} need a nonempty last (user) axis")
    # min >= 0 is false for NaN, max < inf for +inf and NaN
    if g.size and not (g.min() >= 0 and g.max() < np.inf):
        raise ValueError(f"{name} must be finite and nonnegative")
    return g


def _check_power(power: float) -> None:
    if not power > 0:
        raise ValueError("power must be positive")


def _check_groups(g: np.ndarray) -> None:
    if g.ndim < 2 or g.shape[-2] < 1:
        raise ValueError("multigroup gains need a nonempty group axis before the user axis")


def static_schedule(gains, alpha: int, power: float) -> np.ndarray:
    """Rates of shape ``gains.shape[:-1]``: each slot is rated for the user
    at ascending position N - N/alpha + 1 of its N gains, so everyone at
    or above that gain decodes."""
    g = _as_gains(gains)
    n = g.shape[-1]
    if alpha < 1 or n % alpha != 0:
        raise ValueError(f"alpha={alpha} must divide the user count {n}")
    _check_power(power)
    pos = n - n // alpha          # 0-based ascending index of the rated gain
    return np.log1p(power * np.partition(g, pos, axis=-1)[..., pos])


def multigroup_static_schedule(gains, alpha: int, power: float) -> np.ndarray:
    """Fixed-fraction rates over gains of shape ``[..., G, N]``: each slot
    serves the group whose scheduled order statistic is largest."""
    g = np.asarray(gains, dtype=float)
    _check_groups(g)
    return static_schedule(g, alpha, power).max(axis=-1)


def ir_advance(accumulated, gains, power: float) -> np.ndarray:
    """One more transmission attempt: every user's accumulated mutual
    information grows by log(1 + gain * P).  Returns the new accumulation,
    of the shape of ``accumulated`` and ``gains``."""
    g = _as_gains(gains)
    acc = np.asarray(accumulated, dtype=float)
    if acc.shape != g.shape:
        raise ValueError("gain shape does not match the accumulation shape")
    _check_power(power)
    return acc + np.log1p(power * g)


def cooperative_schedule(bs_gains, interuser_gains, power: float) -> np.ndarray:
    """Two-stage effective rates of shape ``bs_gains.shape[:-1]``.

    Stage 1 reaches the top half at the median-user rate; stage 2 has that
    half relay with power P/(N/2) each, rated for the worst remaining user;
    the packet moves at the lesser stage rate.  ``interuser_gains`` has
    shape ``[..., N, N]``, entry (i, j) being the gain from user i to user
    j.  Ties in the base-station gains go to the lowest user index.
    """
    g = _as_gains(bs_gains)
    n = g.shape[-1]
    if n < 2 or n % 2 != 0:
        raise ValueError("cooperation needs an even number of users, at least 2")
    _check_power(power)
    u = _as_gains(interuser_gains, "inter-user gains")
    if u.shape != g.shape + (n,):
        raise ValueError("inter-user gains must have shape bs_gains.shape + (N,)")
    half = n // 2
    order = np.argsort(-g, axis=-1, kind="stable")
    rs1 = np.log1p(power * np.take_along_axis(g, order[..., half - 1:half], axis=-1)[..., 0])
    relayed = np.take_along_axis(u, order[..., :half, None], axis=-2).sum(axis=-2)
    received = np.take_along_axis(relayed, order[..., half:], axis=-1) / half
    rs2 = np.log1p(power * received.min(axis=-1))
    return np.minimum(rs1, rs2)


def multigroup_cooperative_schedule(bs_gains, interuser_gains, power: float) -> np.ndarray:
    """Cooperative rates over gains of shape ``[..., G, N]`` (inter-user
    ``[..., G, N, N]``): each slot serves the group offering the largest
    effective rate, hence the largest (N/2) * rate."""
    g = np.asarray(bs_gains, dtype=float)
    _check_groups(g)
    return cooperative_schedule(g, interuser_gains, power).max(axis=-1)
