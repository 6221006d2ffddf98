"""Monte-Carlo experiment driver.

Estimates per-slot throughput and tagged-packet delay with standard
errors, attaches analytic references where a closed form exists, and runs
deterministic parameter sweeps.  Every estimator derives its generator
from the config seed, so identical configs give bit-identical records.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from mcastsim import analytic, channel, queueing, schedulers
from mcastsim.channel import CoherencePolicy

__all__ = [
    "MetricsRecord",
    "SCHEMES",
    "SimConfig",
    "estimate_delay",
    "estimate_throughput",
    "run_config",
    "run_sweep",
]

SCHEMES = ("static", "multigroup-static", "ir", "coop", "multigroup-coop")

_STATIC_SCHEMES = ("static", "multigroup-static")
_COOP_SCHEMES = ("coop", "multigroup-coop")

_CHUNK = 8192

_SWEEP_AXES = {
    "N": "n_users",
    "G": "n_groups",
    "alpha": "alpha",
    "L": "antennas",
    "P": "power",
    "S": "packet_nats",
}


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
    coherence: CoherencePolicy = CoherencePolicy.fixed(1.0)
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
        if not self.power > 0:
            raise ValueError("power must be positive")
        if not self.packet_nats > 0:
            raise ValueError("packet_nats must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.scheme in _STATIC_SCHEMES:
            if self.alpha is None:
                raise ValueError(f"{self.scheme} needs alpha")
            if self.alpha < 1 or self.alpha > self.n_users or self.n_users % self.alpha != 0:
                raise ValueError(
                    f"alpha={self.alpha} must divide n_users={self.n_users}"
                )
        elif self.alpha is not None:
            raise ValueError(f"alpha does not apply to scheme {self.scheme!r}")
        if self.scheme in _COOP_SCHEMES and self.n_users % 2 != 0:
            raise ValueError("cooperative schemes need an even n_users")
        if self.scheme == "ir":
            if self.rate_target is None or not self.rate_target > 0:
                raise ValueError("ir needs a positive rate_target")
            if self.attempt_cap is not None and self.attempt_cap < 1:
                raise ValueError("attempt_cap must be at least 1")
        else:
            if self.rate_target is not None or self.attempt_cap is not None:
                raise ValueError("rate_target/attempt_cap apply only to ir")
        if self.scheme in ("static", "ir", "coop") and self.n_groups != 1:
            raise ValueError(f"{self.scheme} is single-group; use the multigroup variant")
        if self.antennas > 1 and self.scheme != "static":
            raise ValueError("multiple antennas are modeled for the static scheme only")

    @property
    def coherence_value(self) -> float:
        return channel.coherence_interval(self.coherence, self.n_users, self.n_groups)


@dataclass
class MetricsRecord:
    throughput_mean: float | None = None
    throughput_se: float | None = None
    delay_mean: float | None = None
    delay_se: float | None = None
    analytic_throughput: float | None = None
    predicted_scaling_value: float | None = None
    samples: int = 0


def _rng_for(seed: int, stream: int) -> np.random.Generator:
    # streams are derived from (seed, stream index), so adding a stream or
    # sweep point never perturbs existing ones
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _mean_se(values) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    n = values.size
    mean = math.fsum(values.tolist()) / n
    if n < 2:
        return mean, 0.0
    # squares by libm pow, as a scalar ** 2 computes them: numpy's x * x
    # differs in the last bit on about one value in a thousand
    var = math.fsum(map(math.pow, (values - mean).tolist(), itertools.repeat(2.0))) / (n - 1)
    return mean, math.sqrt(var / n)


# ---------------------------------------------------------------------------
# per-slot rate sampling: draw a chunk of slots, then schedule it in one
# kernel call (a chunk consumes the generator like one draw per slot)
# ---------------------------------------------------------------------------

def _slot_rates(config: SimConfig, rng: np.random.Generator) -> np.ndarray:
    """The scheduled rate of each of config.iterations independent slots
    of a static or cooperative scheme.  Single-group schemes run the
    multigroup kernels with one group: drawing (c, 1, N) gains consumes
    the generator like (c, N), and the group maximum is the identity."""
    n, groups, count = config.n_users, config.n_groups, config.iterations
    coop = config.scheme in _COOP_SCHEMES
    chunk = max(1, _CHUNK // (groups * n)) if coop else _CHUNK
    out = np.empty(count)
    for start in range(0, count, chunk):
        batch = (min(chunk, count - start), groups)
        gains = channel.draw_gains((*batch, n), config.antennas, rng)
        if coop:
            inter = channel.draw_interuser_gains(n, rng, batch)
            rates = schedulers.multigroup_cooperative_schedule(gains, inter, config.power)
        else:
            rates = schedulers.multigroup_static_schedule(gains, config.alpha, config.power)
        out[start:start + batch[0]] = rates
    return out


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def estimate_throughput(config: SimConfig, rng: np.random.Generator | None = None) -> MetricsRecord:
    """Mean delivered nats per slot over config.iterations independent
    slots (renewal cycles for the retransmission scheme), with a standard
    error, plus the analytic value where a closed form exists."""
    if rng is None:
        rng = _rng_for(config.seed, 0)
    iters = config.iterations
    record = MetricsRecord(samples=iters)

    if config.scheme in _STATIC_SCHEMES:
        per_slot = (config.n_users / config.alpha) * _slot_rates(config, rng)
        record.throughput_mean, record.throughput_se = _mean_se(per_slot)
    elif config.scheme in _COOP_SCHEMES:
        per_slot = (config.n_users / 2) * _slot_rates(config, rng)
        record.throughput_mean, record.throughput_se = _mean_se(per_slot)
    else:
        taus, decoded = queueing.ir_renewal_cycle(
            config.n_users, config.power, config.rate_target, config.attempt_cap, rng,
            runs=iters,
        )
        reward = config.n_users * config.rate_target
        tau_mean, tau_se = _mean_se(taus)
        if config.attempt_cap is None:
            record.throughput_mean = reward / tau_mean
            record.throughput_se = reward * tau_se / tau_mean ** 2
        else:
            ok_mean, ok_se = _mean_se(decoded)
            record.throughput_mean = reward * ok_mean / tau_mean
            if ok_mean > 0:
                cov = math.fsum(
                    ((decoded - ok_mean) * (taus - tau_mean)).tolist()
                ) / (iters - 1) / iters
                rel_var = (
                    (ok_se / ok_mean) ** 2
                    + (tau_se / tau_mean) ** 2
                    - 2 * cov / (ok_mean * tau_mean)
                )
                record.throughput_se = record.throughput_mean * math.sqrt(max(rel_var, 0.0))
            else:
                record.throughput_se = 0.0

    record.analytic_throughput = analytic_throughput_for(config)
    return record


def estimate_delay(config: SimConfig, rng: np.random.Generator | None = None) -> MetricsRecord:
    """Mean tagged-packet delay in slots (attempts for the retransmission
    scheme) over config.iterations independent runs."""
    if rng is None:
        rng = _rng_for(config.seed, 1)
    iters = config.iterations
    tc = config.coherence_value
    if config.scheme in _STATIC_SCHEMES:
        delays = queueing.tagged_delay_static(
            config.n_users, config.n_groups, config.alpha, config.power,
            config.packet_nats, tc, queueing.RateModel.empirical(), rng, config.antennas,
            runs=iters,
        )
    elif config.scheme in _COOP_SCHEMES:
        delays = queueing.tagged_delay_coop(
            config.n_users, config.n_groups, config.power, config.packet_nats, tc, rng,
            runs=iters,
        )
    else:
        delays, _ = queueing.ir_renewal_cycle(
            config.n_users, config.power, config.rate_target, config.attempt_cap, rng,
            runs=iters,
        )
    record = MetricsRecord(samples=iters)
    record.delay_mean, record.delay_se = _mean_se(delays)
    return record


def analytic_throughput_for(config: SimConfig) -> float | None:
    """Closed-form mean throughput where one exists (static schemes)."""
    if config.scheme not in _STATIC_SCHEMES:
        return None
    return analytic.throughput_quadrature(
        config.n_users, config.alpha, config.power, config.n_groups, config.antennas
    )


def _scaling_label(config: SimConfig) -> str | None:
    if config.scheme in _STATIC_SCHEMES:
        if config.alpha == config.n_users:
            return "best"
        if config.alpha == 1:
            return "worst"
        if config.alpha == 2:
            return "median"
        return None
    if config.scheme in _COOP_SCHEMES:
        return "coop"
    return "ir"


def predicted_throughput_scaling_for(config: SimConfig) -> float | None:
    """Unit-constant throughput growth-law value where the scheme/shape is
    covered; None otherwise."""
    label = _scaling_label(config)
    if label is None:
        return None
    try:
        return analytic.predicted_scaling(
            label, "throughput", config.n_users, config.n_groups, config.antennas
        )
    except analytic.UnsupportedScalingError:
        return None


def run_config(config: SimConfig) -> MetricsRecord:
    """Both metrics for one config, on separate derived streams, with the
    analytic and growth-law references attached."""
    record = estimate_throughput(config, _rng_for(config.seed, 0))
    delay = estimate_delay(config, _rng_for(config.seed, 1))
    record.delay_mean = delay.delay_mean
    record.delay_se = delay.delay_se
    record.predicted_scaling_value = predicted_throughput_scaling_for(config)
    return record


def run_sweep(base: SimConfig, axis: str, values) -> list[tuple[SimConfig, MetricsRecord]]:
    """One record per value along the axis.  Seeds are derived from
    (base.seed, point index), so appending values never changes the
    streams of earlier points."""
    if axis not in _SWEEP_AXES:
        raise ValueError(f"axis must be one of {sorted(_SWEEP_AXES)}, got {axis!r}")
    field_name = _SWEEP_AXES[axis]
    caster = float if axis in ("P", "S") else int
    results = []
    for index, value in enumerate(values):
        try:
            cfg = replace(
                base, **{field_name: caster(value)}, seed=_child_seed(base.seed, index)
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"sweep value {value!r} for axis {axis}: {exc}") from exc
        results.append((cfg, run_config(cfg)))
    return results
