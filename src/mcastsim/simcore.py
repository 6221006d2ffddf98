"""Monte-Carlo experiment driver.

Estimates per-slot throughput and tagged-packet delay with standard
errors, and attaches analytic references where the law is known: the
static and cooperative throughputs, whose estimate takes the slot's
rated gain as a control variate with exact moments.  Every delay, and
the retransmission throughput, regresses on the engine's per-run Wald
control, whose exact mean is 0 (``queueing``).  A row draws from one
generator derived from its config seed, so identical configs give
bit-identical records, and each draw serves both metrics: the
retransmission scheme's throughput and delay come from one set of
renewal cycles, and the other schemes' throughput slots are the head of
the delay engine's first round.  A row's two estimates are therefore
correlated; each keeps its own SE.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mcastsim import analytic, queueing, schedulers
from mcastsim.channel import CoherencePolicy

__all__ = [
    "MetricsRecord",
    "SCHEMES",
    "SimConfig",
    "estimate_delay",
    "estimate_throughput",
    "run_config",
]

SCHEMES = ("static", "multigroup-static", "ir", "coop", "multigroup-coop")


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be non-negative and fit in 64 bits")


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one experiment point."""

    scheme: str
    n_users: int
    alpha: int | None = None
    n_groups: int = 1
    antennas: int = 1
    power: float = 1.0
    packet_nats: float = 1.0
    coherence: CoherencePolicy = CoherencePolicy("fixed", 1.0)
    rate_target: float | None = None
    attempt_cap: int | None = None
    iterations: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.n_users < 1:
            raise ValueError("n_users must be at least 1")
        if self.n_groups < 1:
            raise ValueError("n_groups must be at least 1")
        if self.antennas < 1:
            raise ValueError("antennas must be at least 1")
        analytic._check_power(self.power)
        if not 0 < self.packet_nats < math.inf:
            raise ValueError("packet_nats must be positive and finite")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        _check_seed(self.seed)
        if self.family == "static":
            if self.alpha is None:
                raise ValueError(f"{self.scheme} needs alpha")
            analytic._check_alpha(self.n_users, self.alpha)
        elif self.alpha is not None:
            raise ValueError(f"alpha does not apply to scheme {self.scheme!r}")
        if self.family == "coop" and self.n_users % 2 != 0:
            raise ValueError("cooperative schemes need an even n_users")
        if self.scheme == "ir":
            if self.rate_target is None or not 0 < self.rate_target < math.inf:
                raise ValueError("ir needs a positive, finite rate_target")
            if self.attempt_cap is not None and self.attempt_cap < 1:
                raise ValueError("attempt_cap must be at least 1")
        else:
            if self.rate_target is not None or self.attempt_cap is not None:
                raise ValueError("rate_target/attempt_cap apply only to ir")
        if self.scheme in ("static", "ir", "coop") and self.n_groups != 1:
            variant = "" if self.scheme == "ir" else f"; use multigroup-{self.scheme}"
            raise ValueError(f"{self.scheme} takes one group{variant}")
        if self.antennas > 1 and self.family != "static":
            raise ValueError("multiple antennas are modeled for the static schemes only")

    @property
    def family(self) -> str:
        """The scheme family, ``static``, ``coop`` or ``ir``: a multigroup
        scheme belongs to the family of its single-group form."""
        return self.scheme.removeprefix("multigroup-")


@dataclass
class MetricsRecord:
    throughput_mean: float | None = None
    throughput_se: float | None = None
    delay_mean: float | None = None
    delay_se: float | None = None
    analytic_throughput: float | None = None
    predicted_scaling_value: float | None = None


def _rng_for(seed: int) -> np.random.Generator:
    # a row's one stream; the key (seed, 0) fixes its throughput and ir bytes
    return np.random.default_rng(np.random.SeedSequence([seed, 0]))


def _mean_se(values, controls) -> tuple[float, float]:
    """Mean of ``values`` and its SE, reduced as deviations from the first
    value in units of the largest deviation, which cannot overflow where
    the values are finite; identical values give exactly (value, 0).  From
    3 values on, ``controls`` of exact mean 0 and nonzero spread are a
    control variate: mean(V) - beta mean(C) for the fitted beta =
    Cov(V, C)/Var(C), with the residuals' SD (ddof 2) over sqrt(n) as SE."""
    values = np.asarray(values, dtype=float)
    first = float(values[0])
    deviations = values - first
    scale = float(np.abs(deviations).max())
    if scale == 0.0:
        return first, 0.0
    deviations /= scale
    ddof = 1
    if values.size >= 3:
        centred = controls - controls.mean()
        if (var_c := float(centred @ centred)) > 0.0:
            deviations -= float(deviations @ centred) / var_c * controls
            ddof = 2
    se = scale * float(deviations.std(ddof=ddof)) / math.sqrt(values.size)
    return first + scale * float(deviations.mean()), se


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def estimate_throughput(config: SimConfig) -> MetricsRecord:
    """Mean delivered nats per slot over config.iterations independent
    slots (renewal cycles for the retransmission scheme), with a standard
    error, plus the analytic value for the static and cooperative schemes,
    whose rated gain has a known law.  Draws from the config seed's stream.
    The retransmission record also carries the delay of its cycles; the
    other schemes' slots are the head of ``estimate_delay``'s first round.

    The static and cooperative rows take the rated gain C = (e^R - 1)/P of
    each slot as a control variate for its rate R (Owen, *Monte Carlo
    theory, methods and examples*, 2013, ch. 8), with the exact moments of
    ``analytic._rated_gain_moments``: the estimate is
    mean(R) - beta (mean(C) - E[C]) for beta = Cov(R, C)/Var(C), and its SE
    the exact residual SD, sqrt(Var(R) - Cov(R, C)^2/Var(C)), over
    sqrt(iterations)."""
    if config.family == "ir":
        return _ir_estimates(config)
    return _slot_throughput(config, _rng_for(config.seed))[0]


def _slot_throughput(config: SimConfig, rng) -> tuple[MetricsRecord, np.ndarray]:
    """The throughput record of a static or cooperative row, with the
    analytic value, and the config.iterations slot rates it is the mean
    of, drawn from ``rng``."""
    # alpha is None for the cooperative schemes, which serve half the users
    served = config.n_users / (config.alpha or 2)
    law = (config.n_users, config.alpha, config.power, config.n_groups, config.antennas)
    record = MetricsRecord(analytic_throughput=analytic.throughput_quadrature(*law))
    rates = schedulers.slot_rates(config, config.iterations, rng)
    mean, se = _control_variate_mean_se(
        rates, np.expm1(rates) / config.power, analytic._rated_gain_moments(*law))
    record.throughput_mean, record.throughput_se = served * mean, served * se
    return record, rates


def _ir_estimates(config: SimConfig) -> MetricsRecord:
    """Throughput and delay of the retransmission scheme from one set of
    renewal cycles, each controlled mean on the cycles' Wald control.  The
    delay is the mean attempts tau, capped at the attempt cap; the
    throughput is the renewal reward N R mean(decoded) / mean(tau), with
    the ratio estimator's SE, SE(decoded - ratio tau) / mean(tau).  Without a
    cap every cycle decodes, so throughput x delay is N R and the two
    relative SEs are equal."""
    taus, decoded, control = queueing.ir_renewal_cycle(config, _rng_for(config.seed))
    reward = config.n_users * config.rate_target
    taus, decoded = taus.astype(float), decoded.astype(float)
    tau_mean, tau_se = _mean_se(taus, control)
    ok_mean, _ = _mean_se(decoded, control)
    _, residual_se = _mean_se(decoded - ok_mean / tau_mean * taus, control)
    return MetricsRecord(throughput_mean=reward * ok_mean / tau_mean,
                         throughput_se=reward * residual_se / tau_mean,
                         delay_mean=tau_mean, delay_se=tau_se)


def _control_variate_mean_se(values, controls, moments) -> tuple[float, float]:
    """Mean of ``values`` with ``controls`` as a control variate, and its
    exact SE, from the exact moments (E[V], E[C], E[C^2], E[V C], E[V^2]).

    The residual variance is the Gram determinant of (1, V, C) over Var(C).
    The determinant's five terms are products of up to three moments, each
    within a relative _DE_RTOL of its integral, so it is known to within
    3 _DE_RTOL times the sum of their sizes.  Where V is nearly linear in
    C, as at small P, it cancels below that and is held there, so the SE
    never reads 0."""
    mean_v, mean_c, mean_cc, mean_vc, mean_vv = moments
    var_c = mean_cc - mean_c * mean_c
    terms = (mean_vv * mean_cc, -mean_vv * mean_c * mean_c, -mean_v * mean_v * mean_cc,
             2 * mean_v * mean_c * mean_vc, -mean_vc * mean_vc)
    gram = max(math.fsum(terms), 3 * analytic._DE_RTOL * math.fsum(map(abs, terms)))
    beta = (mean_vc - mean_v * mean_c) / var_c
    mean = float(values.mean()) - beta * (float(controls.mean()) - mean_c)
    return mean, math.sqrt(gram / var_c / values.size)


def estimate_delay(config: SimConfig) -> MetricsRecord:
    """Mean tagged-packet delay in slots (attempts for the retransmission
    scheme) over config.iterations independent runs, with each run's Wald
    control as a control variate.  The retransmission scheme reads the
    cycles of its throughput, so both estimators and ``run_config`` report
    the same delay.  The queue schemes draw the config.iterations slot
    rates of ``estimate_throughput`` and hand them to the delay engine as
    the head of its first round, which draws only the rest (none under
    cooperation and at alpha = 1); their record also carries the
    throughput of those slots, bit for bit ``estimate_throughput``'s."""
    if config.family == "ir":
        record = _ir_estimates(config)
        return MetricsRecord(delay_mean=record.delay_mean, delay_se=record.delay_se)
    rng = _rng_for(config.seed)
    # the throughput integrates the rated-gain law, whose cached first
    # moment the engine's control reads
    record, head = _slot_throughput(config, rng)
    if config.family == "static":
        delays, control = queueing.tagged_delay_static(config, rng, head)
    else:
        delays, control = queueing.tagged_delay_coop(config, rng, head)
    record.delay_mean, record.delay_se = _mean_se(delays, control)
    return record


def run_config(config: SimConfig) -> MetricsRecord:
    """Both metrics for one config from one stream and one estimator call,
    the retransmission scheme's from one set of cycles and the queue
    schemes' from slots drawn once, with the analytic and growth-law
    references attached."""
    record = estimate_throughput(config) if config.family == "ir" else estimate_delay(config)
    record.predicted_scaling_value = analytic.throughput_growth_law(
        config.family, config.n_users, config.alpha, config.n_groups, config.antennas
    )
    return record
