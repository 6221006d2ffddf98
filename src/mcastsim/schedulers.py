"""Per-slot rate laws for every scheme: the one place a rate is computed.

Every kernel takes gains with arbitrary leading batch dimensions.
``slot_rates`` draws fresh fading for a batch of slots and schedules it,
and is the one sampler behind both the throughput estimates and the
delay engine's per-hit rates.

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

from mcastsim import channel

__all__ = [
    "cooperative_schedule",
    "ir_advance",
    "multigroup_cooperative_schedule",
    "multigroup_static_schedule",
    "slot_rates",
    "static_schedule",
]

# A chunk draws at most _CHUNK gains (one slot when a single slot needs
# more): G N L per static slot, G (N + N/2) per cooperative slot.
_CHUNK = 2 ** 19


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

    Stage 1 reaches the top half at the median-user rate (the alpha = 2
    static rate); stage 2 has that half relay with power P/(N/2) each,
    rated for the worst weak user; the packet moves at the lesser stage
    rate.  ``interuser_gains`` holds the weak users' relay gains, each the
    sum of the gains from the N/2 strong users, of shape
    ``bs_gains.shape[:-1] + (N/2,)`` (see ``channel.draw_interuser_gains``).
    """
    g = _as_gains(bs_gains)
    half = g.shape[-1] // 2
    if g.shape[-1] != 2 * half:
        raise ValueError("cooperation needs an even number of users")
    rs1 = static_schedule(g, 2, power)
    relay = _as_gains(interuser_gains, "relay gains")
    if relay.shape != g.shape[:-1] + (half,):
        raise ValueError("relay gains must have shape bs_gains.shape[:-1] + (N/2,)")
    return np.minimum(rs1, np.log1p(power / half * relay.min(axis=-1)))


def multigroup_cooperative_schedule(bs_gains, interuser_gains, power: float) -> np.ndarray:
    """Cooperative rates over gains of shape ``[..., G, N]`` (relay gains
    ``[..., G, N/2]``): each slot serves the group offering the largest
    effective rate, hence the largest (N/2) * rate."""
    g = np.asarray(bs_gains, dtype=float)
    _check_groups(g)
    return cooperative_schedule(g, interuser_gains, power).max(axis=-1)


def slot_rates(
    n_users: int, n_groups: int, power: float, count: int, rng: np.random.Generator,
    alpha: int | None = None, antennas: int = 1,
) -> np.ndarray:
    """Scheduled rates of ``count`` independent slots on fresh fading: the
    fixed-fraction scheduler when ``alpha`` is given, the cooperative one
    otherwise, over the best of ``n_groups`` groups.

    This is the only place fading is drawn for these two schedulers; the
    retransmission scheme draws its own in ``queueing.ir_renewal_cycle``.
    Slots go in chunks of at most ``_CHUNK`` gains, each one draw and one
    kernel call.  A static chunk consumes the generator like one draw per
    slot; a cooperative chunk draws all its base-station gains before its
    relay gains, so coop streams depend on the chunk size."""
    if count < 1:
        raise ValueError("need at least one slot")
    coop = alpha is None
    groups = () if n_groups == 1 else (n_groups,)
    if coop:
        kernel = cooperative_schedule if n_groups == 1 else multigroup_cooperative_schedule
    else:
        kernel = static_schedule if n_groups == 1 else multigroup_static_schedule
    per_group = n_users + n_users // 2 if coop else n_users * antennas
    chunk = max(1, _CHUNK // (n_groups * per_group))
    parts = []
    for start in range(0, count, chunk):
        batch = (min(chunk, count - start), *groups)
        gains = channel.draw_gains((*batch, n_users), antennas, rng)
        if coop:
            parts.append(kernel(gains, channel.draw_interuser_gains(n_users, rng, batch), power))
        else:
            parts.append(kernel(gains, alpha, power))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
