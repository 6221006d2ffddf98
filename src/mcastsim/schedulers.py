"""Per-slot rate laws for every scheme: the one place a rate is computed.

Every kernel takes gains with arbitrary leading batch dimensions.
``slot_rates`` draws the gains a batch of slots is rated on and schedules
them.  It is the only place fading is drawn, and the one sampler behind
the throughput estimates, the delay engine's per-hit rates and the
retransmission cycle's attempts (``ir_advance``).  It takes a validated
``simcore.SimConfig``, whose scheme family (``SimConfig.family``) picks
the rate law.

The fixed-fraction scheduler keys the rate to the gain at the ascending
position N - N/alpha + 1, so exactly N/alpha users decode; a slot draws
that one gain per group (``channel.draw_scheduled_gains``), never the N
gains it is the order statistic of; at alpha in {1, N} and one antenna
it draws the best of the G groups' gains from one closed form instead.
The retransmission scheme accumulates mutual information across attempts
until the slowest user crosses the rate target.  The cooperative scheme
serves the stronger half first and lets it relay to the weaker half.  The
multigroup forms serve the group with the largest rate this slot; the
fixed-fraction one rates only the largest gain, as the rate is increasing
in it.

Rates are in nats per channel use.
"""
from __future__ import annotations

import numpy as np

from mcastsim import analytic, channel

__all__ = [
    "cooperative_schedule",
    "ir_advance",
    "multigroup_static_schedule",
    "slot_rates",
    "static_schedule",
]


def static_schedule(gains, power: float) -> np.ndarray:
    """Rates log(1 + P g) of slots whose scheduled gains are ``gains``:
    the gain at ascending position N - N/alpha + 1, so everyone at or
    above it decodes.  Every scheme's rates come from this one law, which
    checks gains and power; cooperation hands it the lesser stage SNR at
    power 1 and checks its own power first."""
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
    each slot serves the group whose scheduled gain is largest, rated once,
    as log(1 + P g) is increasing in g."""
    return static_schedule(np.max(gains, axis=-1, keepdims=True), power)[..., 0]


def ir_advance(accumulated, config: "SimConfig", rng: np.random.Generator) -> np.ndarray:
    """One more attempt of the retransmission ``config`` for each of the
    len(accumulated) unfinished cycles: every user's accumulated mutual
    information grows by log(1 + P g) on a fresh gain from ``slot_rates``."""
    return accumulated + slot_rates(config, len(accumulated), rng)


def cooperative_schedule(median_gains, relay_gains, n_users: int, power: float) -> np.ndarray:
    """Two-stage effective rates of slots with the given gains, of their
    common shape.

    Stage 1 reaches the top half at the median-user rate (the alpha = 2
    static rate, on the gain at ascending position N/2 + 1); stage 2 has
    that half relay with power P/(N/2) each, rated for the weakest relay
    gain of the weak half (see ``channel.draw_interuser_gains``); the
    packet moves at the lesser stage rate, the rate of the lesser of the
    two stages' received SNRs, taken once, as log(1 + x) is increasing.
    """
    analytic._check_power(power)
    snr = np.minimum(power * np.asarray(median_gains, dtype=float),
                     power / (n_users // 2) * np.asarray(relay_gains, dtype=float))
    return static_schedule(snr, 1.0)


def slot_rates(config: "SimConfig", count: int, rng: np.random.Generator) -> np.ndarray:
    """Rates of ``count`` independent slots on fresh fading under the
    validated ``config``, whose scheme family picks the rate law: the only
    place fading is drawn.  A retransmission config draws every user's
    gain and returns the N users' rates of ``count`` attempts, shape
    (count, N).  The other two draw one scheduled gain per group, plus one
    relay gain per group under cooperation, and serve the best of the G
    groups: shape (count,), and memory O(count * G) at every N, under
    cooperation too, whose relay draw holds one ball count and one value
    per slot and group (``channel.draw_interuser_gains``), besides a table
    of O(N^2) values built once per N up to N = 104.  A static config at
    alpha in {1, N} with one antenna draws the best of the G gains from
    one closed form (``channel.draw_stratified_gains``)."""
    n, power = config.n_users, config.power
    if config.family == "ir":
        return static_schedule(channel.draw_gains((count, n), rng), power)
    # cooperation rates stage 1 at the median, the alpha = 2 position, and
    # its config holds one antenna
    position = n - n // (config.alpha or 2) + 1
    if config.family == "static" and config.antennas == 1 and position in (1, n):
        return static_schedule(
            channel.draw_stratified_gains(n, position, config.n_groups, count, rng), power)
    shape = (count, config.n_groups)
    gains = channel.draw_scheduled_gains(n, position, shape, config.antennas, rng)
    if config.family == "coop":
        relay = channel.draw_interuser_gains(n, shape, rng)
        return cooperative_schedule(gains, relay, n, power).max(axis=-1)
    return multigroup_static_schedule(gains, power)
