"""Monte-Carlo experiment driver.

Estimates per-slot throughput and tagged-packet delay with standard
errors, and attaches analytic references where a closed form exists.
Every estimator derives its generator from the config seed, so identical
configs give bit-identical records.
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


# Replicates of a stratified throughput draw.  The SE of their means has a
# heavier lower tail than an i.i.d. SE, as the top stratum is skewed: over
# 20,000 seeds of static alpha = 1, N = 12 at 500 iterations, |z| > 4.5
# against the exact throughput had frequency 2.5e-4 at 100 replicates and
# 7e-4 at 50, and never occurred drawn i.i.d.
_REPLICATES = 100


def _rng_for(seed: int, stream: int) -> np.random.Generator:
    # streams are derived from (seed, stream index), so adding a stream
    # never perturbs existing ones
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _mean_se(values) -> tuple[float, float]:
    # reduced as deviations from the first value in units of the largest
    # deviation, which cannot overflow where the values themselves are
    # finite; identical values give exactly (value, 0)
    values = np.asarray(values, dtype=float)
    first = float(values[0])
    deviations = values - first
    scale = float(np.abs(deviations).max())
    if scale == 0.0:
        return first, 0.0
    deviations /= scale
    se = scale * float(deviations.std(ddof=1)) / math.sqrt(values.size)
    return first + scale * float(deviations.mean()), se


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def estimate_throughput(config: SimConfig) -> MetricsRecord:
    """Mean delivered nats per slot over config.iterations independent
    slots (renewal cycles for the retransmission scheme), with a standard
    error, plus the analytic value for the static schemes, which have a
    closed form.  Draws from stream 0 of the config seed.

    The static schemes at alpha in {1, N} with one antenna draw their
    slots stratified instead (``schedulers.slot_rates``): _REPLICATES
    independent replicates of ceil(iterations / _REPLICATES) strata each,
    so up to _REPLICATES - 1 slots more than iterations, and the mean and
    SE are those of the _REPLICATES replicate means."""
    rng = _rng_for(config.seed, 0)
    record = MetricsRecord()

    if config.family != "ir":
        # alpha is None for the cooperative schemes, which serve half the users
        served = config.n_users / (config.alpha or 2)
        rates = schedulers.slot_rates(config, config.iterations, rng, _REPLICATES)
        if rates.ndim == 2:     # one column of strata per replicate
            rates = rates.sum(axis=0) / len(rates)
        record.throughput_mean, record.throughput_se = _mean_se(served * rates)
    else:
        taus, decoded = queueing.ir_renewal_cycle(config, rng)
        # renewal reward: throughput = reward * ratio of the means, with the
        # ratio estimator's SE, SE(decoded - ratio * tau) / mean(tau)
        reward = config.n_users * config.rate_target
        taus, decoded = taus.astype(float), decoded.astype(float)
        tau_mean, ok_mean = float(taus.mean()), float(decoded.mean())
        _, residual_se = _mean_se(decoded - ok_mean / tau_mean * taus)
        record.throughput_mean = reward * ok_mean / tau_mean
        record.throughput_se = reward * residual_se / tau_mean

    if config.family == "static":
        record.analytic_throughput = analytic.throughput_quadrature(
            config.n_users, config.alpha, config.power, config.n_groups, config.antennas
        )
    return record


def estimate_delay(config: SimConfig) -> MetricsRecord:
    """Mean tagged-packet delay in slots (attempts for the retransmission
    scheme) over config.iterations independent runs.  Draws from stream 1
    of the config seed."""
    rng = _rng_for(config.seed, 1)
    if config.family == "static":
        delays = queueing.tagged_delay_static(config, rng)
    elif config.family == "coop":
        delays = queueing.tagged_delay_coop(config, rng)
    else:
        delays, _ = queueing.ir_renewal_cycle(config, rng)
    delay_mean, delay_se = _mean_se(delays)
    return MetricsRecord(delay_mean=delay_mean, delay_se=delay_se)


def run_config(config: SimConfig) -> MetricsRecord:
    """Both metrics for one config, on separate derived streams, with the
    analytic and growth-law references attached."""
    record = estimate_throughput(config)
    delay = estimate_delay(config)
    record.delay_mean, record.delay_se = delay.delay_mean, delay.delay_se
    record.predicted_scaling_value = analytic.throughput_growth_law(
        config.family, config.n_users, config.alpha, config.n_groups, config.antennas
    )
    return record

