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
A queue count or a mean slot count that is not a finite float raises
ValueError.

Every hit adds an i.i.d. rate of known mean mu = Tc E[R] and variance
sigma^2 = Tc^2 Var(R) (``analytic._rated_gain_moments``; one user's law
at Tc = 1 for a retransmission cycle).  By Wald's identity a need K of
the target S has E[K] >= S / mu, so a row whose min(cap, S / mu) exceeds
``_HIT_BUDGET`` raises ValueError before its first draw.  With m_j =
min(K_j, cap), a stopping time of sum j's rates, and W_j the sum then,
frozen while its run goes on, each run's C1 = sum_j (W_j - mu m_j) and
C2 = sum_j [(W_j - mu m_j)^2 - sigma^2 m_j] have exact mean 0 by Wald's
first and second identities (Gut, *Stopped Random Walks*, 2009).

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

# Mean hits (attempts, for a retransmission cycle) a run may need, by
# Wald's identity: about a minute per row at tens of microseconds a round.
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


def _hit_needs(config: "SimConfig", width: int, target: float, tc: float, moments,
               advance, cap: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Hits, an int array of shape (config.iterations, width), until each of
    a run's ``width`` sums reaches ``target``, and the runs' (C1, C2), shape
    (2, config.iterations); ``advance(acc)`` returns the next sums of the
    unfinished runs, each grown by ``tc`` times a rate whose law has the
    ``analytic._rated_gain_moments`` ``moments``, a sum that has reached the
    target keeps its value, and one still short after ``cap`` rounds reads
    cap + 1.  A row whose min(cap, target / mean rate) exceeds
    ``_HIT_BUDGET`` raises ValueError (module docstring)."""
    mean_rate = tc * moments[0]
    bound = min(cap, target / mean_rate if mean_rate > 0 else math.inf)
    if bound > _HIT_BUDGET:
        raise ValueError(f"a run needs at least {bound:.3g} hits on average, "
                         "min(cap, target / mean rate), over the budget of 2**20")
    needs = np.ones((config.iterations, width), dtype=np.int64)
    # a product with ones sums (or ors) over a short axis faster than a reduction
    sums, ones = np.empty(needs.shape), np.ones(width)
    active, acc, rounds = np.arange(config.iterations), np.zeros(needs.shape), 0
    while active.size and rounds < cap:
        # a sum that has reached the target is frozen; a run's last round
        # leaves its sums in place
        acc = advance(acc) if width == 1 else np.where(acc < target, advance(acc), acc)
        rounds += 1
        short = acc < target
        needs[active] += short
        sums[active] = acc
        keep = short[:, 0] if width == 1 else short @ ones > 0
        active, acc = active[keep], acc[keep]
    # a sum short at the cap reads cap + 1 and has taken cap hits
    taken = np.minimum(needs, cap)
    sums -= mean_rate * taken    # each sum's W_j - mu m_j
    variance = tc * tc * (moments[4] - moments[0] ** 2)
    squares = np.einsum("ij,ij->i", sums, sums) - variance * (taken @ ones)
    return needs, np.stack((sums @ ones, squares))


def _coupled_queue_delay(config: "SimConfig", rates, head=None) -> tuple[np.ndarray, np.ndarray]:
    """Mean slots, per run, until each of the tagged packet's coupled
    queues (cooperation is the alpha = 1 layout) has drained
    ``config.packet_nats``, given the hits each queue needs, shape
    (config.iterations,), and the runs' (C1, C2); ``rates(count)`` returns
    the service rates of ``count`` hits, and ``head``, if given, the first
    of the first round's, which then draws only the rest."""
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

    law = (n, config.alpha, config.power, config.n_groups, config.antennas)
    needs, controls = _hit_needs(config, coupled, config.packet_nats, tc,
                                 analytic._rated_gain_moments(*law), advance)
    with np.errstate(over="ignore"):    # an overflow reads inf, rejected below
        slots = analytic.coupon_collector_expected_picks(queues, needs)
    _check_slots(slots)
    return slots, controls


def tagged_delay_static(config: "SimConfig", rng: np.random.Generator,
                        head: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Mean slots, per run, until a tagged packet leaves all alpha coupled
    queues under the fixed-fraction scheduler's queue layout, given the
    hits each queue needs, with ``config.antennas`` transmit antennas
    behind every rate, and each run's two controls.  Returns float arrays
    of shape (config.iterations,) and (2, config.iterations).  ``head`` is
    the first round's head (module docstring)."""
    return _coupled_queue_delay(
        config, lambda count: schedulers.slot_rates(config, count, rng), head)


def ir_renewal_cycle(config: "SimConfig", rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Renewal cycles of the retransmission scheme: (attempts, decoded,
    controls), arrays of shape (config.iterations,) and the (C1, C2) over
    the users' capped needs, shape (2, config.iterations).

    A cycle decodes once every user's accumulated information reaches
    the rate target, and fails when the attempt cap comes first.  Each
    attempt is one ``schedulers.ir_advance`` call on the unfinished cycles."""
    cap = config.attempt_cap or math.inf
    needs, controls = _hit_needs(
        config, config.n_users, config.rate_target, 1.0,
        analytic._rated_gain_moments(1, 1, config.power, 1, 1),
        lambda acc: schedulers.ir_advance(acc, config, rng), cap)
    attempts = needs.max(axis=1)
    decoded = attempts <= cap
    # a cycle short at the cap reads cap + 1 and has taken cap attempts
    return attempts - ~decoded, decoded, controls


def tagged_delay_coop(config: "SimConfig", rng: np.random.Generator,
                      head: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Mean slots, per run, until a cooperative transmission delivers the
    packet to all users of the tagged group, given the hits it needs, and
    each run's two controls, float arrays of shape (config.iterations,) and
    (2, config.iterations).  ``head`` is the first round's head (module
    docstring); with one queue per run it is the whole first round.

    A slot reaches every user of the group it serves, so the group keeps a
    single queue; with G groups the tagged one is selected with
    probability 1/G per slot (group symmetry), and a slot that selects it
    serves it at the best of G group rates, the rate the sampler draws for
    the row's own config.  So E[T | K] = G K.
    """
    return _coupled_queue_delay(
        config, lambda count: schedulers.slot_rates(config, count, rng), head)
