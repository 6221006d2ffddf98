"""Host-speed calibration of the timed calls into mcastsim.

On a shared 2-core host the speed of one thread swings by up to 2x, for
seconds to minutes at a time, so raw durations of the same work taken a few
minutes apart differ by more than any regression worth catching.  Every
timed call is therefore bracketed by speed probes that run no mcastsim
code: two fixed kernels, one of vectorised numpy (draw, sort and reduce a
400 x 64 array) and one of interpreted Python around small numpy calls
(the shape of a per-slot scheduling decision), each the median of five
runs.  A call's duration is divided by the mean of the probes taken just
before and just after it and multiplied by REFERENCE_PROBE_S: the result is
the call's duration in seconds at the reference speed.

Over ten 45 s runs per workload (seeds 301-310) on the 2-core host, the
run-to-run spread (quartile distance over median) of the median raw
repetition was 0.10 on recipes and 0.086 on large-n; that of the calibrated
wall_s was 0.017 and 0.045, and of time_to_1pct_s 0.051 and 0.052.  A call
of several seconds is calibrated less well than a short one, since the
probes see only its two ends.

The probes draw from their own generators, so they leave every random
stream of mcastsim untouched.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

import tracer

# The probe's duration on an undisturbed host (its lower decile on the
# 2-core x86-64 host above), so that calibrated seconds are close to the
# raw seconds of a quiet host.  Any fixed value works: it only sets the scale.
REFERENCE_PROBE_S = 4.0e-4
PROBE_RUNS = 5


def _vector_kernel_s() -> float:
    rng = np.random.Generator(np.random.PCG64(7))
    start = time.perf_counter()
    sample = rng.exponential(size=(400, 64))
    sample.sort(axis=1)
    float(np.log1p(sample[:, 32]).sum())
    return time.perf_counter() - start


def _scalar_kernel_s() -> float:
    rng = np.random.Generator(np.random.PCG64(7))
    start = time.perf_counter()
    total = 0.0
    for _ in range(40):
        gains = rng.exponential(size=12)
        order = np.argsort(-gains, kind="stable")
        decoders = frozenset(int(user) for user in order[:6])
        total += float(np.log1p(gains[int(order[5])])) + len(decoders)
    return time.perf_counter() - start


def probe_s() -> float:
    """Seconds taken by the two fixed kernels, each the median of PROBE_RUNS."""
    return sum(statistics.median(kernel() for _ in range(PROBE_RUNS))
               for kernel in (_vector_kernel_s, _scalar_kernel_s))


class Clock:
    """Calibrates consecutive timed calls with a chain of probes: each call
    shares its before-probe with the previous call's after-probe."""

    def __init__(self):
        self.probes = [probe_s()]
        self.overhead_s = 0.0       # wall time of the probes taken since then

    def _probe(self) -> float:
        start = time.perf_counter()
        self.probes.append(probe_s())
        elapsed = time.perf_counter() - start
        self.overhead_s += elapsed
        tracer.exclude(elapsed)
        return self.probes[-1]

    def calibrated(self, seconds: float) -> float:
        """Probe once more and return ``seconds``, the raw duration of the
        call made since the previous probe, in reference-speed seconds."""
        before = self.probes[-1]
        after = self._probe()
        return seconds * REFERENCE_PROBE_S * 2.0 / (before + after)

    def calibrated_typical(self, seconds: float) -> float:
        """``seconds`` spent between the calls, calibrated by the median probe."""
        probes = sorted(self.probes)
        return seconds * REFERENCE_PROBE_S / probes[len(probes) // 2]
