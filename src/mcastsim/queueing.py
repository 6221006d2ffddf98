"""Head-of-line transmission delay under the coupled-queue model.

A tagged packet sits at the head of ``coupled`` of Q queues: the alpha
queues that jointly cover its group under fixed-fraction scheduling
(Q = G * C(N, N/alpha)), or its group's one queue under cooperation
(Q = G).  Each slot the server picks one of the Q queues uniformly; a
pick landing on a coupled queue drains it by Tc times that slot's rate,
drawn by ``schedulers.slot_rates``, the sampler of the throughput path.
The packet is delivered once every coupled queue has drained its copy.
One engine, ``_coupled_queue_delay``, simulates both schemes.

Picks are simulated with geometric gaps between hits, so a run costs
O(number of hits) however large Q grows, and the slot count is
distributed exactly as in the slot-by-slot Bernoulli process.  Gaps are
float inversions, so counts never saturate; a hit probability below the
smallest normal float, a count past the float range, or a packet whose
lower bound on the mean hit count exceeds ``_HIT_BUDGET`` raises
ValueError.

The engine runs ``runs`` independent runs in lockstep: each round draws a
gap (unless every slot hits), a queue index (when there are several
coupled queues) and a rate for every unfinished run, in that order, the
rates in one sampler call.  A row costs O(its largest hit count) numpy
calls, and a round holds O(runs) values whatever N is.  At runs=1 what
a hit draws does not depend on the rates, which keeps paired-seed runs
coupled (e.g. raising P can only remove slots).
"""
from __future__ import annotations

import math
import sys

import numpy as np

from mcastsim import channel, schedulers

# Mean hits (attempts, for an uncapped retransmission cycle) a run may need
# by a lower bound: about a minute per row at tens of microseconds a round.
_HIT_BUDGET = 2 ** 20

__all__ = [
    "ir_renewal_cycle",
    "tagged_delay_coop",
    "tagged_delay_static",
]


def _validate_common(n_users, n_groups, power, packet_nats, coherence_interval, antennas=1):
    if n_users < 1 or n_groups < 1:
        raise ValueError("n_users and n_groups must be at least 1")
    if not power > 0:
        raise ValueError("power must be positive")
    if not 0 < packet_nats < math.inf:
        raise ValueError("packet size must be positive and finite")
    if not 0 < coherence_interval < math.inf:
        raise ValueError("coherence interval must be positive and finite")
    # a scheduled gain is at most the best of N G L unit exponentials, whose
    # mean is H_{NGL} <= 1 + log(N G L); so E[rate] <= log1p(P H) (Jensen)
    rate_bound = math.log1p(power * (1 + math.log(n_users * n_groups * antennas)))
    hits = packet_nats / coherence_interval / rate_bound
    if hits > _HIT_BUDGET:
        raise ValueError(f"packet needs at least {hits:.3g} hits on average, "
                         "S / (Tc log1p(P (1 + log(N G L)))), over the budget of 2**20")


def _gaps(p: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Geometric(p) slot gaps on 1, 2, ... by inversion, as floats:
    ceil(-E / log(1 - p)), at least 1, with E a standard exponential.
    At p = 1 every slot hits: the gaps are ones and nothing is drawn."""
    if p == 1.0:
        return np.ones(count)
    return np.maximum(np.ceil(-rng.standard_exponential(count) / math.log1p(-p)), 1.0)


def _coupled_queue_delay(
    coupled: int, queues: int, packet_nats: float, coherence_interval: float,
    rates, rng: np.random.Generator, runs: int,
) -> np.ndarray:
    """Slots, per run, until every one of ``coupled`` of ``queues``
    uniformly served queues has drained ``packet_nats``; ``rates(count)``
    returns the service rates of ``count`` hits.  A float array of shape
    (runs,)."""
    if runs < 1:
        raise ValueError("need at least one run")
    p_hit = coupled / queues
    if not p_hit >= sys.float_info.min:
        raise ValueError(f"hit probability {coupled}/{queues} is not a positive normal float")
    residual = np.full((runs, coupled), float(packet_nats))
    slots = np.zeros(runs)
    active = np.arange(runs)
    while active.size:
        with np.errstate(over="ignore"):    # an overflow reads inf, rejected below
            slots[active] += _gaps(p_hit, active.size, rng)
        # one queue needs no pick: integers(1) would draw nothing
        queue = rng.integers(coupled, size=active.size) if coupled > 1 else 0
        # a hit on a drained queue only pushes it further below zero
        residual[active, queue] -= coherence_interval * rates(active.size)
        active = active[(residual[active] > 0.0).any(axis=1)]
    if not np.isfinite(slots).all():
        raise ValueError("slot count exceeds the float range")
    return slots


def tagged_delay_static(
    n_users: int, n_groups: int, alpha: int, power: float, packet_nats: float,
    coherence_interval: float, rng: np.random.Generator, antennas: int = 1, runs: int = 1,
) -> np.ndarray:
    """Slots, per run, until a tagged packet leaves all alpha coupled
    queues under the fixed-fraction scheduler's queue layout, with
    ``antennas`` transmit antennas behind every rate.  Returns a float
    array of shape (runs,)."""
    _validate_common(n_users, n_groups, power, packet_nats, coherence_interval, antennas)
    if alpha < 1 or alpha > n_users or n_users % alpha != 0:
        raise ValueError(f"alpha={alpha} must divide the user count {n_users}")
    return _coupled_queue_delay(
        alpha, n_groups * math.comb(n_users, n_users // alpha), packet_nats, coherence_interval,
        lambda count: schedulers.slot_rates(n_users, n_groups, power, count, rng, alpha, antennas),
        rng, runs,
    )


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
    if not power > 0:
        raise ValueError("power must be positive")
    if not 0 < rate_target < math.inf:
        raise ValueError("rate target must be positive and finite")
    if attempt_cap is not None and attempt_cap < 1:
        raise ValueError("attempt cap must be at least 1")
    # Jensen: an attempt adds E[log1p(P g)] <= log1p(P) nats to each user
    attempts_bound = rate_target / math.log1p(power)
    if attempt_cap is None and attempts_bound > _HIT_BUDGET:
        raise ValueError(f"uncapped rate target needs at least {attempts_bound:.3g} attempts "
                         "on average, R / log1p(P), over the budget of 2**20")
    if runs < 1:
        raise ValueError("need at least one run")
    accumulated = np.zeros((runs, n_users))
    attempts = np.zeros(runs, dtype=np.int64)
    decoded = np.zeros(runs, dtype=bool)
    active = np.arange(runs)
    while active.size:
        grown = schedulers.ir_advance(
            accumulated[active], channel.draw_gains((active.size, n_users), rng), power
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
    n_users: int, n_groups: int, power: float, packet_nats: float,
    coherence_interval: float, rng: np.random.Generator, runs: int = 1,
) -> np.ndarray:
    """Slots, per run, until a cooperative transmission delivers the
    packet to all users of the tagged group.  Returns a float array of
    shape (runs,).

    A slot reaches every user of the group it serves, so the group keeps a
    single queue; with G groups the tagged one is served with probability
    1/G per slot (group symmetry).  Each hit draws the tagged group's own
    rate (one group into the sampler), not the rate of the group a
    multigroup scheduler would select (ROADMAP, D3).
    """
    _validate_common(n_users, n_groups, power, packet_nats, coherence_interval)
    if n_users % 2 != 0 or n_users < 2:
        raise ValueError("cooperation needs an even number of users, at least 2")
    return _coupled_queue_delay(
        1, n_groups, packet_nats, coherence_interval,
        lambda count: schedulers.slot_rates(n_users, 1, power, count, rng),
        rng, runs,
    )
