"""The benchmark's layer trace still finds every function it reads.

``perfbench/tracer.py`` looks traced functions up by name
(``schedulers.static_schedule``, ``channel.draw_interuser_gains``, the
``queueing`` entry points, ...).  A removed or renamed one raises KeyError
in ``Tracer.metrics``, and a traced benchmark run fails after its whole
workload; this test fails in a fraction of a second instead.  The tracer
is loaded from its file and not modified.
"""
import importlib.util
import math
import pathlib

from mcastsim import simcore
from mcastsim.simcore import SimConfig

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_metrics_cover_every_scheme():
    tracer = _load_tracer()
    configs = [
        SimConfig(scheme="static", n_users=4, alpha=2, iterations=20, seed=1),
        SimConfig(scheme="multigroup-static", n_users=4, alpha=2, n_groups=3, iterations=20, seed=2),
        SimConfig(scheme="coop", n_users=4, iterations=20, seed=3),
        SimConfig(scheme="multigroup-coop", n_users=4, n_groups=3, iterations=20, seed=5),
        SimConfig(scheme="ir", n_users=4, rate_target=1.0, iterations=20, seed=4),
    ]
    with tracer.Tracer() as trace:
        for config in configs:
            simcore.run_config(config)
    metrics = trace.metrics(1.0)
    assert all(math.isfinite(value) for value in metrics.values())
    # every traced function the metrics read was called by one of the rows
    calls = {name: value for name, value in metrics.items() if name.endswith(".calls")}
    assert all(count > 0 for count in calls.values()), calls
