"""Per-slot rate laws for every scheme: the one place a rate is computed.

Every kernel takes gains with arbitrary leading batch dimensions.
``slot_rates`` draws the gains a batch of slots is rated on and schedules
them, and is the one sampler behind both the throughput estimates and
the delay engine's per-hit rates.  It takes a validated
``simcore.SimConfig``, whose scheme family (``SimConfig.family``) picks
the rate law.

The fixed-fraction scheduler keys the rate to the gain at the ascending
position N - N/alpha + 1, so exactly N/alpha users decode; a slot draws
that one gain per group (``channel.draw_scheduled_gains``), never the N
gains it is the order statistic of.  The retransmission scheme
accumulates mutual information across attempts until the slowest user
crosses the rate target.  The cooperative scheme serves the stronger half
first and lets it relay to the weaker half.  The multigroup forms serve
the group with the largest rate this slot.

Rates are in nats per channel use.
"""
from __future__ import annotations

import numpy as np

from mcastsim import analytic, channel

__all__ = [
    "cooperative_schedule",
    "ir_advance",
    "multigroup_cooperative_schedule",
    "multigroup_static_schedule",
    "slot_rates",
    "static_schedule",
]


def static_schedule(gains, power: float) -> np.ndarray:
    """Rates log(1 + P g) of slots whose scheduled gains are ``gains``:
    the gain at ascending position N - N/alpha + 1, so everyone at or
    above it decodes.  Every scheme's rates come from this one law, the
    one place gains and power are checked."""
    g = np.asarray(gains, dtype=float)
    if g.ndim < 1 or g.shape[-1] < 1:
        raise ValueError("gains need a nonempty last axis")
    # min >= 0 is false for NaN, max < inf for +inf and NaN
    if g.size and not (g.min() >= 0 and g.max() < np.inf):
        raise ValueError("gains must be finite and nonnegative")
    analytic._check_power(power)
    return np.log1p(power * g)


def multigroup_static_schedule(gains, power: float) -> np.ndarray:
    """Fixed-fraction rates over scheduled gains of shape ``[..., G]``:
    each slot serves the group whose scheduled gain is largest."""
    return static_schedule(gains, power).max(axis=-1)


def ir_advance(accumulated, gains, power: float) -> np.ndarray:
    """One more transmission attempt: every user's accumulated mutual
    information grows by log(1 + gain * P).  Returns the new accumulation,
    of the shape of ``accumulated`` and ``gains``."""
    acc = np.asarray(accumulated, dtype=float)
    if acc.shape != np.shape(gains):
        raise ValueError("gain shape does not match the accumulation shape")
    return acc + static_schedule(gains, power)


def cooperative_schedule(median_gains, relay_gains, n_users: int, power: float) -> np.ndarray:
    """Two-stage effective rates of slots with the given gains, of their
    common shape.

    Stage 1 reaches the top half at the median-user rate (the alpha = 2
    static rate, on the gain at ascending position N/2 + 1); stage 2 has
    that half relay with power P/(N/2) each, rated for the weakest relay
    gain of the weak half (see ``channel.draw_interuser_gains``); the
    packet moves at the lesser stage rate.
    """
    if n_users < 2 or n_users % 2 != 0:
        raise ValueError("cooperation needs an even number of users, at least 2")
    stage1 = static_schedule(median_gains, power)
    stage2 = static_schedule(relay_gains, power / (n_users // 2))
    if stage2.shape != stage1.shape:
        raise ValueError("relay gains must have the shape of the median gains")
    return np.minimum(stage1, stage2)


def multigroup_cooperative_schedule(median_gains, relay_gains, n_users: int, power: float) -> np.ndarray:
    """Cooperative rates over gains of shape ``[..., G]``: each slot serves
    the group offering the largest effective rate, hence the largest
    (N/2) * rate."""
    return cooperative_schedule(median_gains, relay_gains, n_users, power).max(axis=-1)


def slot_rates(config: "SimConfig", count: int, rng: np.random.Generator) -> np.ndarray:
    """Scheduled rates of ``count`` independent slots on fresh fading under
    the validated ``config``: its scheme family picks the fixed-fraction or
    the cooperative scheduler, served over the best of its G groups.

    This is the only place fading is drawn for these two schedulers; the
    retransmission scheme draws its own in ``queueing.ir_renewal_cycle``,
    and a config of its family is rejected before any draw.  A slot draws
    one scheduled gain per group, plus one relay gain per group under
    cooperation, so memory is O(count * G) at every N."""
    if config.family == "ir":
        raise ValueError(f"scheme {config.scheme!r} has no per-slot rate law")
    if count < 1:
        raise ValueError("need at least one slot")
    n, power = config.n_users, config.power
    shape = (count, config.n_groups)
    # cooperation rates stage 1 at the median, the alpha = 2 position, and
    # its config holds one antenna
    gains = channel.draw_scheduled_gains(
        n, n - n // (config.alpha or 2) + 1, shape, config.antennas, rng)
    if config.family == "coop":
        relay = channel.draw_interuser_gains(n, rng, shape)
        return multigroup_cooperative_schedule(gains, relay, n, power)
    return multigroup_static_schedule(gains, power)
