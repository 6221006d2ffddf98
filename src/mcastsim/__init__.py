"""Slot-based Monte-Carlo simulation and exact analytics for multicast
scheduling in a single-cell fading downlink."""

from mcastsim.channel import CoherencePolicy
from mcastsim.simcore import MetricsRecord, SimConfig, run_config

__version__ = "0.1.0"

__all__ = [
    "CoherencePolicy",
    "MetricsRecord",
    "SimConfig",
    "run_config",
]
