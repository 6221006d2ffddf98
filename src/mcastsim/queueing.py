"""Head-of-line transmission delay under the coupled-queue model.

A tagged packet sits at the head of ``coupled`` of Q = G * C(N, N/coupled)
queues: under fixed-fraction scheduling the coupled = alpha queues that
jointly cover its group, and under cooperation, the alpha = 1 layout,
its group's one queue of Q = G.  Each slot the server picks one of the Q
queues uniformly; a pick landing on a coupled queue drains it by Tc times
that slot's rate, drawn by ``schedulers.slot_rates``, the sampler of the
throughput path.  The packet is delivered once every coupled queue has
drained its copy.  One engine, ``_coupled_queue_delay``, simulates both
schemes and derives the layout from the config it is given.

Picks are simulated with geometric gaps between hits, so a run costs
O(number of hits) however large Q grows, and the slot count is
distributed exactly as in the slot-by-slot Bernoulli process.  Gaps are
float inversions, so counts never saturate; a hit probability below the
smallest normal float, a count past the float range, or a packet whose
lower bound on the mean hit count exceeds ``_HIT_BUDGET`` raises
ValueError.

Each entry, and the engine, takes a ``simcore.SimConfig``, whose
construction has already checked every setting, and a generator; an
entry rejects a config of another scheme family (``SimConfig.family``)
before any draw.  The engine runs ``config.iterations`` independent runs
in lockstep: each round draws a gap (unless every slot hits), a queue
index (when there are several coupled queues) and a rate for every
unfinished run, in that order, the rates in one sampler call.  A row
costs O(its largest hit count) numpy calls, and a round holds O(runs)
values whatever N is.  At one iteration what a hit draws does not depend
on the rates, which keeps paired-seed runs coupled (e.g. raising P can
only remove slots).
"""
from __future__ import annotations

import math
import sys
from dataclasses import replace

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


def _check_family(config: "SimConfig", family: str) -> None:
    if config.family != family:
        raise ValueError(f"scheme {config.scheme!r} is not of the {family} delay engine's family")


def _check_hit_budget(config: "SimConfig") -> None:
    # a scheduled gain is at most the best of N G L unit exponentials, whose
    # mean is H_{NGL} <= 1 + log(N G L); so E[rate] <= log1p(P H) (Jensen)
    rate_bound = math.log1p(config.power * (1 + math.log(
        config.n_users * config.n_groups * config.antennas)))
    hits = config.packet_nats / config.coherence_value / rate_bound
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


def _coupled_queue_delay(config: "SimConfig", rates, rng: np.random.Generator) -> np.ndarray:
    """Slots, per run, until each of the tagged packet's coupled queues
    (cooperation is the alpha = 1 layout) has drained
    ``config.packet_nats``; ``rates(count)`` returns the service rates of
    ``count`` hits.  A float array of shape (config.iterations,)."""
    _check_hit_budget(config)
    n, coupled, runs = config.n_users, config.alpha or 1, config.iterations
    queues = config.n_groups * math.comb(n, n // coupled)
    p_hit = coupled / queues
    if not p_hit >= sys.float_info.min:
        raise ValueError(f"hit probability {coupled}/{queues} is not a positive normal float")
    coherence_interval = config.coherence_value
    residual = np.full((runs, coupled), float(config.packet_nats))
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


def tagged_delay_static(config: "SimConfig", rng: np.random.Generator) -> np.ndarray:
    """Slots, per run, until a tagged packet leaves all alpha coupled
    queues under the fixed-fraction scheduler's queue layout, with
    ``config.antennas`` transmit antennas behind every rate.  Returns a
    float array of shape (config.iterations,)."""
    _check_family(config, "static")
    return _coupled_queue_delay(
        config, lambda count: schedulers.slot_rates(config, count, rng), rng)


def ir_renewal_cycle(config: "SimConfig", rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Renewal cycles of the retransmission scheme: (attempts, decoded),
    integer and boolean arrays of shape (config.iterations,).

    A cycle decodes once every user's accumulated information exceeds
    the rate target, and fails when the attempt cap comes first."""
    _check_family(config, "ir")
    n_users, power = config.n_users, config.power
    rate_target, attempt_cap = config.rate_target, config.attempt_cap
    # Jensen: an attempt adds E[log1p(P g)] <= log1p(P) nats to each user
    attempts_bound = rate_target / math.log1p(power)
    if attempt_cap is None and attempts_bound > _HIT_BUDGET:
        raise ValueError(f"uncapped rate target needs at least {attempts_bound:.3g} attempts "
                         "on average, R / log1p(P), over the budget of 2**20")
    runs = config.iterations
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


def tagged_delay_coop(config: "SimConfig", rng: np.random.Generator) -> np.ndarray:
    """Slots, per run, until a cooperative transmission delivers the
    packet to all users of the tagged group.  Returns a float array of
    shape (config.iterations,).

    A slot reaches every user of the group it serves, so the group keeps a
    single queue; with G groups the tagged one is served with probability
    1/G per slot (group symmetry).  Each hit draws the tagged group's own
    rate (one group into the sampler), not the rate of the group a
    multigroup scheduler would select (ROADMAP, D3).
    """
    _check_family(config, "coop")
    one_group = replace(config, n_groups=1)
    return _coupled_queue_delay(
        config, lambda count: schedulers.slot_rates(one_group, count, rng), rng)
