"""Head-of-line transmission delay under the coupled-queue model.

A tagged packet sits at the head of the alpha coupled queues that jointly
cover all users of its group.  Each slot the server picks one of the
Q = G * C(N, N/alpha) queues uniformly; only picks landing on a coupled
queue advance the packet, by Tc times that slot's service rate.  The
packet is delivered once every coupled queue has drained its copy.

The uniform pick is simulated with geometric gaps between hits, so a run
costs O(number of hits) regardless of how large Q grows; the slot count
returned is distributed exactly as the slot-by-slot Bernoulli process.
Gap, queue-index and rate draws happen unconditionally on every hit, which
keeps paired-seed runs coupled (e.g. raising P can only remove slots).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mcastsim import channel, schedulers

__all__ = [
    "RateModel",
    "ir_renewal_cycle",
    "tagged_delay_coop",
    "tagged_delay_ir",
    "tagged_delay_static",
]


@dataclass(frozen=True)
class RateModel:
    """Where per-hit service rates come from: fresh fading pushed through
    the scheduler, or a memoryless server with mean 1/mu."""

    kind: str                 # "empirical" or "exponential"
    mu: float | None = None

    def __post_init__(self):
        if self.kind not in ("empirical", "exponential"):
            raise ValueError(f"unknown rate model {self.kind!r}")
        if self.kind == "exponential" and not (self.mu is not None and self.mu > 0):
            raise ValueError("exponential server needs mu > 0")

    @classmethod
    def empirical(cls) -> "RateModel":
        return cls("empirical")

    @classmethod
    def exponential_server(cls, mu: float) -> "RateModel":
        return cls("exponential", float(mu))


def _validate_common(n_users, n_groups, power, packet_nats, coherence_interval):
    if n_users < 1 or n_groups < 1:
        raise ValueError("n_users and n_groups must be at least 1")
    if not power > 0:
        raise ValueError("power must be positive")
    if not packet_nats > 0:
        raise ValueError("packet size must be positive")
    if not coherence_interval > 0:
        raise ValueError("coherence interval must be positive")


def tagged_delay_static(
    n_users: int,
    n_groups: int,
    alpha: int,
    power: float,
    packet_nats: float,
    coherence_interval: float,
    model: RateModel,
    rng: np.random.Generator,
    antennas: int = 1,
) -> int:
    """Slots until a tagged packet leaves all alpha coupled queues under
    the fixed-fraction scheduler's queue layout, with ``antennas``
    transmit antennas behind every empirical rate."""
    _validate_common(n_users, n_groups, power, packet_nats, coherence_interval)
    if alpha < 1 or alpha > n_users or n_users % alpha != 0:
        raise ValueError(f"alpha={alpha} must divide the user count {n_users}")
    q_total = n_groups * math.comb(n_users, n_users // alpha)
    p_hit = alpha / q_total
    if n_groups == 1:
        schedule, shape = schedulers.static_schedule, n_users
    else:
        schedule, shape = schedulers.multigroup_static_schedule, (n_groups, n_users)
    residual = [packet_nats] * alpha
    slots = 0
    pending = alpha
    while pending:
        slots += int(rng.geometric(p_hit))
        i = int(rng.integers(alpha))
        if model.kind == "exponential":
            rate = rng.exponential(1.0 / model.mu)
        else:
            rate = schedule(channel.draw_gains(shape, antennas, rng), alpha, power)
        if residual[i] > 0.0:
            residual[i] -= coherence_interval * rate
            if residual[i] <= 0.0:
                pending -= 1
    return slots


def tagged_delay_ir(
    n_users: int,
    power: float,
    rate_target: float,
    attempt_cap: int | None,
    rng: np.random.Generator,
) -> int:
    """Transmission attempts until every user has accumulated the rate
    target, or the attempt cap stops the codeword."""
    attempts, _ = ir_renewal_cycle(n_users, power, rate_target, attempt_cap, rng)
    return attempts


def ir_renewal_cycle(
    n_users: int,
    power: float,
    rate_target: float,
    attempt_cap: int | None,
    rng: np.random.Generator,
) -> tuple[int, bool]:
    """One renewal cycle of the retransmission scheme: (attempts, decoded).

    The cycle decodes once every user's accumulated information exceeds
    the rate target, and fails when the attempt cap comes first."""
    if n_users < 1:
        raise ValueError("need at least one user")
    if not rate_target > 0:
        raise ValueError("rate target must be positive")
    if attempt_cap is not None and attempt_cap < 1:
        raise ValueError("attempt cap must be at least 1")
    accumulated = np.zeros(n_users)
    attempts = 0
    while True:
        accumulated = schedulers.ir_advance(
            accumulated, channel.draw_gains(n_users, 1, rng), power
        )
        attempts += 1
        if accumulated.min() > rate_target:
            return attempts, True
        if attempt_cap is not None and attempts >= attempt_cap:
            return attempts, False


def tagged_delay_coop(
    n_users: int,
    n_groups: int,
    power: float,
    packet_nats: float,
    coherence_interval: float,
    rng: np.random.Generator,
) -> int:
    """Slots until a cooperative transmission delivers the packet to all
    users of the tagged group.

    A slot reaches every user of the group it serves, so the group keeps a
    single queue; with G groups the tagged one is served with probability
    1/G per slot (group symmetry), simulated as geometric gaps.
    """
    _validate_common(n_users, n_groups, power, packet_nats, coherence_interval)
    if n_users % 2 != 0 or n_users < 2:
        raise ValueError("cooperation needs an even number of users, at least 2")
    slots = 0
    remaining = packet_nats
    while remaining > 0.0:
        slots += int(rng.geometric(1.0 / n_groups))
        bs = channel.draw_gains(n_users, 1, rng)
        iu = channel.draw_interuser_gains(n_users, rng)
        remaining -= coherence_interval * schedulers.cooperative_schedule(bs, iu, power)
    return slots
