"""Outside-in tracing of mcastsim's layers.

Every public function of the six modules is replaced, for the duration of
a ``with Tracer():`` block, by a wrapper that records calls, total time and
self time (total minus the time of traced callees).  The modules look their
functions up through module attributes at call time, so setting the
attribute catches every call site, including calls inside the same module
(``static_schedule`` inside ``multigroup_static_schedule``).

The wrappers read only the clock and the call arguments; they draw no
random numbers, so a traced run produces the same outputs as an untraced
one.
"""
from __future__ import annotations

import inspect
import math
import time
from collections import defaultdict

from mcastsim import analytic, channel, cli, queueing, schedulers, simcore

LAYERS = {
    "cli": cli,
    "simcore": simcore,
    "queueing": queueing,
    "schedulers": schedulers,
    "channel": channel,
    "analytic": analytic,
}

# For these functions, the schedulers calls made directly inside one call
# are recorded: hits per tagged-packet run, attempts per IR cycle.
_FANOUT = ("queueing.tagged_delay_static", "queueing.tagged_delay_coop", "queueing.ir_renewal_cycle")

# Analytic evaluators whose cost grows with the user count: time per call
# is kept per n_users.
_BY_USERS = ("analytic.throughput_quadrature", "analytic.static_throughput_closed_form")


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "fanout", "by_users", "slots")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.fanout = []
        self.by_users = defaultdict(lambda: [0, 0.0])
        self.slots = 0


def _public_functions(module):
    """(name, function) for every public function defined in the module."""
    return [
        (name, obj) for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    ]


_active: "Tracer | None" = None


def exclude(seconds: float) -> None:
    """Count ``seconds`` of benchmark code that ran inside a traced call
    (the speed probes) as callee time, so that no layer's self time
    includes it.  Does nothing when no Tracer is active."""
    if _active is not None and _active._stack:
        _active._stack[-1][0] += seconds


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        global _active
        _active = self
        for layer, module in LAYERS.items():
            for name, fn in _public_functions(module):
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(layer, f"{layer}.{name}", fn))
        return self

    def __exit__(self, *exc):
        global _active
        _active = None
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()
        return False

    def _wrap(self, layer: str, qualname: str, fn):
        stat = self.stats[qualname] = _Stat()
        stack = self._stack
        clock = time.perf_counter
        is_scheduler = layer == "schedulers"
        keep_fanout = qualname in _FANOUT
        by_users = qualname in _BY_USERS
        counts_slots = qualname == "simcore.estimate_throughput"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, 0]           # traced callee seconds, direct scheduler calls
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
                if parent is not None:
                    parent[0] += elapsed
                    if is_scheduler:
                        parent[1] += 1
                if keep_fanout:
                    stat.fanout.append(frame[1])
                if by_users:
                    entry = stat.by_users[args[0] if args else kwargs["n_users"]]
                    entry[0] += 1
                    entry[1] += elapsed
                if counts_slots:
                    stat.slots += (args[0] if args else kwargs["config"]).iterations

        return traced

    def metrics(self, wall_s: float) -> dict[str, float]:
        """The per-layer metrics of one traced execution lasting wall_s.

        Only counts, and times of functions that every workload calls, are
        metrics: a per-call time of a function a workload never calls
        (coop on large-n, ...) would read 0 on every run.
        Those times are in per_function()."""
        s = self.stats
        out: dict[str, float] = {}
        for qualname in (
            "queueing.tagged_delay_static", "queueing.tagged_delay_coop",
            "queueing.ir_renewal_cycle", "schedulers.static_schedule",
            "schedulers.multigroup_static_schedule", "schedulers.cooperative_schedule",
            "schedulers.ir_advance", "channel.draw_interuser_gains", "simcore.run_config",
            "analytic.throughput_quadrature",
        ):
            out[f"{qualname}.calls"] = s[qualname].calls
        for qualname, fan in (
            ("queueing.tagged_delay_static", "hits"),
            ("queueing.tagged_delay_coop", "hits"),
            ("queueing.ir_renewal_cycle", "attempts"),
        ):
            out[f"{qualname}.{fan}_p50"] = _nearest_rank(s[qualname].fanout, 0.50)
            out[f"{qualname}.{fan}_p99"] = _nearest_rank(s[qualname].fanout, 0.99)

        delay = s["queueing.tagged_delay_static"]
        out["queueing.tagged_delay_static.us_per_call"] = _per_call(delay.total_s, delay.calls, 1e6)
        out["queueing.tagged_delay_static.self_us_per_call"] = _per_call(delay.self_s, delay.calls, 1e6)
        static = s["schedulers.static_schedule"]
        out["schedulers.static_schedule.self_us_per_call"] = _per_call(static.self_s, static.calls, 1e6)
        quad = s["analytic.throughput_quadrature"]
        out["analytic.throughput_quadrature.ms_per_call"] = _per_call(quad.total_s, quad.calls, 1e3)
        thr = s["simcore.estimate_throughput"]
        out["simcore.estimate_throughput.self_s"] = thr.self_s
        out["simcore.estimate_throughput.self_ns_per_slot"] = _per_call(thr.self_s, thr.slots, 1e9)
        out["simcore.estimate_delay.self_s"] = s["simcore.estimate_delay"].self_s

        for layer, seconds in self.layer_self_s().items():
            out[f"{layer}.self_s"] = seconds
            out[f"{layer}.self_share"] = seconds / wall_s
        return out

    def per_function(self) -> dict[str, float]:
        """Calls and per-call times of every traced function that was called,
        with fan-out quantiles and, for the analytic evaluators, the time per
        call at each user count."""
        out: dict[str, float] = {}
        for qualname, stat in sorted(self.stats.items()):
            if not stat.calls:
                continue
            out[f"{qualname}.calls"] = stat.calls
            out[f"{qualname}.us_per_call"] = _per_call(stat.total_s, stat.calls, 1e6)
            out[f"{qualname}.self_us_per_call"] = _per_call(stat.self_s, stat.calls, 1e6)
            if stat.fanout:
                out[f"{qualname}.fanout_p50"] = _nearest_rank(stat.fanout, 0.50)
                out[f"{qualname}.fanout_p99"] = _nearest_rank(stat.fanout, 0.99)
            for n, (calls, seconds) in sorted(stat.by_users.items()):
                out[f"{qualname}.N{n}.ms_per_call"] = _per_call(seconds, calls, 1e3)
        return out

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for qualname, stat in self.stats.items():
            totals[qualname.split(".", 1)[0]] += stat.self_s
        return totals


def _per_call(seconds: float, calls: int, scale: float) -> float:
    return seconds * scale / calls if calls else 0.0


def _nearest_rank(values: list[int], q: float) -> int:
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
