"""Head-of-line transmission delay under the coupled-queue model.

A tagged packet sits at the head of the alpha coupled queues that jointly
cover all users of its group.  Each slot the server picks one of the
Q = G * C(N, N/alpha) queues uniformly; only picks landing on a coupled
queue advance the packet, by Tc times that slot's service rate.  The
packet is delivered once every coupled queue has drained its copy.

The uniform pick is simulated with geometric gaps between hits, so a run
costs O(number of hits) regardless of how large Q grows; the slot count
returned is distributed exactly as the slot-by-slot Bernoulli process.
Gaps are drawn by inversion as floats, so slot counts never saturate;
a hit probability below the smallest normal float, or a slot count past
the float range, raises ValueError instead.

Every engine simulates ``runs`` independent runs in lockstep: each round
draws one gap, queue index and rate for every run still in progress, in
that order, with one fading draw and one scheduler call for all of them.
A row of runs therefore costs O(rounds), the largest hit count among its
runs, in numpy calls.  Runs go in blocks whose per-round draw stays within
a fixed element budget, so the memory of a round does not grow with the
run count.  At runs=1 every hit draws its gap, index and rate
unconditionally, in the order of the per-run engine of earlier versions,
which keeps paired-seed runs coupled (e.g. raising P can only remove
slots).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from mcastsim import channel, schedulers

__all__ = [
    "RateModel",
    "ir_renewal_cycle",
    "tagged_delay_coop",
    "tagged_delay_static",
]

# Elements one round of one block of runs may draw.
_ROUND_BUDGET = 2 ** 19


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


def _blocks(runs: int, per_run: int):
    """Index arrays of consecutive blocks of runs, each small enough that
    one round drawing ``per_run`` elements per run stays in the budget."""
    if runs < 1:
        raise ValueError("need at least one run")
    size = max(1, _ROUND_BUDGET // per_run)
    return (np.arange(start, min(start + size, runs)) for start in range(0, runs, size))


def _hit_probability(coupled: int, queues: int) -> float:
    p = coupled / queues
    if not p >= sys.float_info.min:
        raise ValueError(
            f"hit probability {coupled}/{queues} is not a positive normal float"
        )
    return p


def _gaps(p: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Geometric(p) slot gaps on 1, 2, ... by inversion, as floats:
    ceil(log U / log(1 - p)), at least 1, with U uniform on (0, 1].

    log U comes from the draws ``rng.geometric`` makes (one uniform for
    p >= 1/3, one standard exponential below), so the gaps equal its
    draw for draw, without its clamp at 2**63 - 1."""
    if p >= 1.0 / 3.0:
        log_u = np.log1p(-rng.random(count))
    else:
        log_u = -rng.standard_exponential(count)
    if p == 1.0:
        return np.ones(count)
    return np.maximum(np.ceil(log_u / math.log1p(-p)), 1.0)


def _finite(slots: np.ndarray) -> np.ndarray:
    if not np.isfinite(slots).all():
        raise ValueError("slot count exceeds the float range")
    return slots


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
    runs: int = 1,
) -> np.ndarray:
    """Slots, per run, until a tagged packet leaves all alpha coupled
    queues under the fixed-fraction scheduler's queue layout, with
    ``antennas`` transmit antennas behind every empirical rate.  Returns
    a float array of shape (runs,)."""
    _validate_common(n_users, n_groups, power, packet_nats, coherence_interval)
    if alpha < 1 or alpha > n_users or n_users % alpha != 0:
        raise ValueError(f"alpha={alpha} must divide the user count {n_users}")
    p_hit = _hit_probability(alpha, n_groups * math.comb(n_users, n_users // alpha))
    shape = (n_users,) if n_groups == 1 else (n_groups, n_users)
    exponential = model.kind == "exponential"

    def rates(count):
        if exponential:
            return rng.exponential(1.0 / model.mu, count)
        gains = channel.draw_gains((count, *shape), antennas, rng)
        if n_groups == 1:
            return schedulers.static_schedule(gains, alpha, power)
        return schedulers.multigroup_static_schedule(gains, alpha, power)

    blocks = _blocks(runs, 3 if exponential else 2 + math.prod(shape) * antennas)
    residual = np.full((runs, alpha), float(packet_nats))
    slots = np.zeros(runs)
    for active in blocks:
        while active.size:
            with np.errstate(over="ignore"):    # an overflow reads inf, rejected below
                slots[active] += _gaps(p_hit, active.size, rng)
            queue = rng.integers(alpha, size=active.size)
            served = residual[active, queue]
            residual[active, queue] = np.where(
                served > 0.0, served - coherence_interval * rates(active.size), served
            )
            active = active[(residual[active] > 0.0).any(axis=1)]
    return _finite(slots)


def ir_renewal_cycle(
    n_users: int,
    power: float,
    rate_target: float,
    attempt_cap: int | None,
    rng: np.random.Generator,
    runs: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Renewal cycles of the retransmission scheme: (attempts, decoded),
    integer and boolean arrays of shape (runs,).

    A cycle decodes once every user's accumulated information exceeds
    the rate target, and fails when the attempt cap comes first."""
    if n_users < 1:
        raise ValueError("need at least one user")
    if not rate_target > 0:
        raise ValueError("rate target must be positive")
    if attempt_cap is not None and attempt_cap < 1:
        raise ValueError("attempt cap must be at least 1")
    blocks = _blocks(runs, n_users)
    accumulated = np.zeros((runs, n_users))
    attempts = np.zeros(runs, dtype=np.int64)
    decoded = np.zeros(runs, dtype=bool)
    for active in blocks:
        while active.size:
            grown = schedulers.ir_advance(
                accumulated[active], channel.draw_gains((active.size, n_users), 1, rng), power
            )
            accumulated[active] = grown
            attempts[active] += 1
            done = grown.min(axis=1) > rate_target
            decoded[active[done]] = True
            if attempt_cap is not None:
                done |= attempts[active] >= attempt_cap
            active = active[~done]
    return attempts, decoded


def tagged_delay_coop(
    n_users: int,
    n_groups: int,
    power: float,
    packet_nats: float,
    coherence_interval: float,
    rng: np.random.Generator,
    runs: int = 1,
) -> np.ndarray:
    """Slots, per run, until a cooperative transmission delivers the
    packet to all users of the tagged group.  Returns a float array of
    shape (runs,).

    A slot reaches every user of the group it serves, so the group keeps a
    single queue; with G groups the tagged one is served with probability
    1/G per slot (group symmetry), simulated as geometric gaps.
    """
    _validate_common(n_users, n_groups, power, packet_nats, coherence_interval)
    if n_users % 2 != 0 or n_users < 2:
        raise ValueError("cooperation needs an even number of users, at least 2")
    p_hit = _hit_probability(1, n_groups)
    blocks = _blocks(runs, 1 + n_users + n_users ** 2)
    remaining = np.full(runs, float(packet_nats))
    slots = np.zeros(runs)
    for active in blocks:
        while active.size:
            slots[active] += _gaps(p_hit, active.size, rng)
            bs = channel.draw_gains((active.size, n_users), 1, rng)
            inter = channel.draw_interuser_gains(n_users, rng, (active.size,))
            remaining[active] -= coherence_interval * schedulers.cooperative_schedule(
                bs, inter, power
            )
            active = active[remaining[active] > 0.0]
    return _finite(slots)
