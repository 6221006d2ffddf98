"""Head-of-line transmission delay under the coupled-queue model.

A tagged packet sits at the head of ``coupled`` of Q = G * C(N, N/coupled)
queues: under fixed-fraction scheduling the coupled = alpha queues that
jointly cover its group, and under cooperation, the alpha = 1 layout,
its group's one queue of Q = G.  Each slot the server picks one of the Q
queues uniformly; a pick landing on a coupled queue drains it by Tc times
that slot's rate, drawn by ``schedulers.slot_rates``, the sampler of the
throughput path.  The packet is delivered once every coupled queue has
drained its copy.  One lockstep loop, ``_hit_needs``, counts the hits of
all three families under one budget: each coupled queue's K_j, for both
queue schemes (``_coupled_queue_delay``), and a retransmission cycle's
attempts, the largest of its N users' needs of the rate target.

The picks are not simulated.  A run draws only the rates of the hits on
its coupled queues, which fix K_j, the hits queue j needs to drain its
copy, and reports the mean slot count given them,
E[T | K] = Q int_0^inf [1 - prod_j P(Pois(t) >= K_j)] dt
(``analytic.coupon_collector_expected_picks``): the pick simulation
averaged over the picks, exactly, because the picks can be Poissonized.
With one coupled queue (alpha = 1, and cooperation) it is Q K.  A run
costs O(its largest need) whatever Q is, and a row's variance is only
that of its needs: a row whose runs all need the same hits reports SE 0.
A queue count or a mean slot count that is not a finite float, or a
run whose lower bound on the mean hit count exceeds ``_HIT_BUDGET``,
raises ValueError.

Each entry also passes out a control per run, C = sum_j (W_j - mu K_j),
of exact mean 0 by Wald's identity: K_j = min(need, cap) is a stopping
time of sum j's i.i.d. rates, of mean mu = Tc E[R], the first moment of
``analytic._rated_gain_moments`` (one user's law for a retransmission
cycle), and W_j is the sum then, frozen while its run goes on.

Each entry takes a ``simcore.SimConfig``, whose construction has
already checked every setting, and a generator, which it reads only
through ``schedulers.slot_rates``, the one place fading is drawn.  The
loop runs ``config.iterations`` independent runs in lockstep and keeps
the sums of the unfinished runs only: each round draws, in one sampler
call, a rate for every coupled queue (or user) of each, done or not.  A
row costs O(its largest need) numpy calls and O(runs alpha) values.  At
one iteration a round draws the same values whatever came before, which
keeps paired-seed runs coupled: raising P or shrinking S can only lower
each need, and E[T | K] grows with every need.

A queue entry may also take a head of the first round: rates the caller
has drawn from the same generator, which the round takes first (in the
row-major order of its (runs, alpha) rates) before it draws the rest in
one call.  ``simcore.estimate_delay`` passes the ``config.iterations``
slot rates of its throughput, so a round of one rate per run, under
cooperation and at alpha = 1, draws nothing.  The static sampler is
chunk-invariant, so the head and the rest are the values one call for
the whole round would draw; the cooperative one is not, and its head is
always the whole round.
"""
from __future__ import annotations

import math
import sys

import numpy as np

from mcastsim import analytic, schedulers

# Mean hits (attempts, for a retransmission cycle) a run may need
# by a lower bound: about a minute per row at tens of microseconds a round.
_HIT_BUDGET = 2 ** 20

__all__ = [
    "ir_renewal_cycle",
    "tagged_delay_coop",
    "tagged_delay_static",
]


def _check_slots(slots) -> None:
    # a count past the float range compares above the largest float, and so
    # do inf and nan
    if not np.all(slots <= sys.float_info.max):
        raise ValueError("queue count G C(N, N/alpha), or a mean slot count, is not a finite float")


def _hit_needs(config: "SimConfig", width: int, target: float, rate_bound: float, what: str,
               advance, cap: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Hits, an int array of shape (config.iterations, width), until each
    of a run's ``width`` sums reaches ``target``, and the sums at those
    hits, a float array of that shape; ``advance(acc)`` returns the next
    sums of the unfinished runs, a sum that has reached the target keeps
    its value, and a sum still short after ``cap`` rounds reads cap + 1
    and its value at the cap.  With ``rate_bound`` over a round's mean
    gain, a lower bound min(cap, target / rate_bound) on the mean rounds
    past ``_HIT_BUDGET`` raises ValueError, ``what`` formatted with it."""
    bound = min(cap, target / rate_bound if rate_bound > 0 else math.inf)
    if bound > _HIT_BUDGET:
        raise ValueError(what.format(bound) + ", over the budget of 2**20")
    needs = np.ones((config.iterations, width), dtype=np.int64)
    sums = np.empty(needs.shape)
    active, acc, rounds = np.arange(config.iterations), np.zeros(needs.shape), 0
    while active.size and rounds < cap:
        # a sum that has reached the target is frozen; a run's last round
        # leaves its sums in place
        acc = advance(acc) if width == 1 else np.where(acc < target, advance(acc), acc)
        rounds += 1
        short = acc < target
        needs[active] += short
        sums[active] = acc
        keep = short.any(axis=1)
        active, acc = active[keep], acc[keep]
    return needs, sums


def _coupled_queue_delay(config: "SimConfig", rates, head=None) -> tuple[np.ndarray, np.ndarray]:
    """Mean slots, per run, until each of the tagged packet's coupled
    queues (cooperation is the alpha = 1 layout) has drained
    ``config.packet_nats``, given the hits each queue needs, and each run's
    control; ``rates(count)`` returns the service rates of ``count`` hits,
    and ``head``, if given, the first of the first round's, which then
    draws only the rest.  Two float arrays of shape (config.iterations,)."""
    n, coupled = config.n_users, config.alpha or 1
    queues = config.n_groups * math.comb(n, n // coupled)
    _check_slots(queues)
    tc = config.coherence.interval(n * config.n_groups)

    def advance(acc):
        nonlocal head
        if head is None:
            drawn = rates(acc.size)
        else:
            rest = acc.size - head.size
            drawn = np.concatenate((head, rates(rest))) if rest else head
            head = None
        return acc + tc * drawn.reshape(acc.shape)

    # a scheduled gain is at most the best of N G L unit exponentials, whose
    # mean is H_{NGL} <= 1 + log(N G L); so E[rate] <= log1p(P H) (Jensen)
    needs, sums = _hit_needs(
        config, coupled, config.packet_nats,
        tc * math.log1p(config.power * (1 + math.log(n * config.n_groups * config.antennas))),
        "packet needs at least {:.3g} hits on average, S / (Tc log1p(P (1 + log(N G L))))",
        advance)
    with np.errstate(over="ignore"):    # an overflow reads inf, rejected below
        slots = analytic.coupon_collector_expected_picks(queues, needs)
    _check_slots(slots)
    law = (n, config.alpha, config.power, config.n_groups, config.antennas)
    mean_rate = tc * analytic._rated_gain_moments(*law)[0]
    return slots, sums.sum(axis=1) - mean_rate * needs.sum(axis=1)


def tagged_delay_static(config: "SimConfig", rng: np.random.Generator,
                        head: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Mean slots, per run, until a tagged packet leaves all alpha coupled
    queues under the fixed-fraction scheduler's queue layout, given the
    hits each queue needs, with ``config.antennas`` transmit antennas
    behind every rate, and each run's control.  Returns two float arrays
    of shape (config.iterations,).  ``head`` is the first round's head
    (module docstring)."""
    return _coupled_queue_delay(
        config, lambda count: schedulers.slot_rates(config, count, rng), head)


def ir_renewal_cycle(config: "SimConfig", rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Renewal cycles of the retransmission scheme: (attempts, decoded,
    control), integer, boolean and float arrays of shape
    (config.iterations,), the control over the users' capped needs.

    A cycle decodes once every user's accumulated information reaches
    the rate target, and fails when the attempt cap comes first.  Each
    attempt is one ``schedulers.ir_advance`` call on the unfinished cycles."""
    cap = config.attempt_cap or math.inf
    # an attempt adds E[log1p(P g)] <= log1p(P) nats to each user (Jensen);
    # a cap C below R / log1p(P) still leaves at least C / 2 on average (Markov)
    name = "R / log1p(P)" if cap == math.inf else "min(cap, R / log1p(P))"
    needs, sums = _hit_needs(
        config, config.n_users, config.rate_target, math.log1p(config.power),
        "rate target needs about {:.3g} attempts on average, " + name,
        lambda acc: schedulers.ir_advance(acc, config, rng), cap)
    decoded = needs.max(axis=1) <= cap
    if config.attempt_cap:     # a user short at the cap has taken cap attempts
        np.minimum(needs, config.attempt_cap, out=needs)
    mean_rate = analytic._rated_gain_moments(1, 1, config.power, 1, 1)[0]
    return needs.max(axis=1), decoded, sums.sum(axis=1) - mean_rate * needs.sum(axis=1)


def tagged_delay_coop(config: "SimConfig", rng: np.random.Generator,
                      head: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Mean slots, per run, until a cooperative transmission delivers the
    packet to all users of the tagged group, given the hits it needs, and
    each run's control.  Returns two float arrays of shape
    (config.iterations,).  ``head`` is the first round's head (module
    docstring); with one queue per run it is the whole first round.

    A slot reaches every user of the group it serves, so the group keeps a
    single queue; with G groups the tagged one is selected with
    probability 1/G per slot (group symmetry), and a slot that selects it
    serves it at the best of G group rates, the rate the sampler draws for
    the row's own config.  So E[T | K] = G K.
    """
    return _coupled_queue_delay(
        config, lambda count: schedulers.slot_rates(config, count, rng), head)
