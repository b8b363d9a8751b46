"""Per-layer tracing: wrap the public functions of each ``sdchan`` module.

Spans are kept in memory as aggregates per function (calls, busy time, self
time); self time is busy time minus the time spent in traced callees.  A few
counters are read at the same boundaries.  ``cli`` and ``capacity`` bind
names with ``from .x import y``, so a wrapper is bound into every ``sdchan``
module that holds the original function, not only the defining one.
"""

from __future__ import annotations

import hashlib
import sys
import time

from sdchan.errors import NoConvergence

TRACED = {
    "cli": ("main",),
    "channel": ("load_channel", "validate"),
    "reductions": (
        "average_states",
        "enumerate_strategy_letters",
        "extend_with_termination",
        "joint_output_channel",
        "joint_output_index",
        "shannon_strategy_channel",
    ),
    "positivity": (
        "positivity",
        "vl_positivity",
        "bl_positivity",
        "check_dmc_vl",
        "check_dmc_fl_feedback",
        "check_nocvlpos",
        "partition_exists",
    ),
    "capacity": (
        "vanishing_capacity",
        "zero_error_capacity",
        "blahut_arimoto",
        "capacity_cond_iid",
        "shannon_strategy_capacity",
        "gelfand_pinsker_capacity",
        "shannon_zef_fl_capacity",
    ),
    "protocols": ("monte_carlo", "run_disprover_bit", "run_theorem5_bit", "run_han_sato", "reduced_dmc"),
}

COUNTERS = (
    ("capacity.blahut_arimoto.iterations", "count", "lower"),
    ("capacity.blahut_arimoto.noconv", "count", "lower"),
    ("capacity.blahut_arimoto.repeat_share", "ratio", "lower"),
    ("capacity.gelfand_pinsker_capacity.sampling_fallbacks", "count", "lower"),
    ("capacity.gelfand_pinsker_capacity.floor_averaged", "count", "lower"),
    ("capacity.gelfand_pinsker_capacity.floor_strategy", "count", "lower"),
    ("reductions.shannon_strategy_channel.letters", "count", "lower"),
    ("protocols.monte_carlo.trials", "count", "higher"),
    ("protocols.trial_us", "us", "lower"),
    ("positivity.repeat_share", "ratio", "lower"),
)

# Filled in by run.py from the untraced and the traced window.
OVERHEAD = (
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.ops_per_s_ratio", "ratio", "higher"),
)


def metric_names():
    """(name, unit, better) of every per-layer metric, in report order."""
    names = []
    for module, funcs in TRACED.items():
        for func in funcs:
            base = f"{module}.{func}"
            names += [(base + ".calls", "count", "lower"), (base + ".busy_s", "s", "lower"),
                      (base + ".self_s", "s", "lower")]
    return names + list(COUNTERS) + list(OVERHEAD)


def _digest(obj) -> bytes:
    """Content key of a channel or matrix argument; repr for anything else."""
    W = getattr(obj, "W", None)
    if W is None:
        return repr(obj).encode()
    h = hashlib.blake2b(W.tobytes(), digest_size=16)
    h.update(str(W.shape).encode())
    Q = getattr(obj, "Q", None)
    if Q is not None:
        h.update(Q.tobytes())
    return h.digest()


class Tracer:
    def __init__(self):
        self.stats = {}  # "module.func" -> [calls, busy, self]
        self.count = dict.fromkeys(("ba_calls", "ba_repeats", "ba_iterations", "ba_noconv",
                                    "gp_sampling", "gp_floor_averaged", "gp_floor_strategy",
                                    "letters", "trials", "pos_calls", "pos_repeats"), 0)
        self._stack = []  # child time accumulated by each open span
        self._ba_seen = set()  # matrices solved by BA in the current CLI call
        self._pos_seen = set()  # positivity calls seen in the whole run
        self._pos_depth = 0
        self._installed = []

    # -- hooks ------------------------------------------------------------------

    def _before(self, name, args, kwargs):
        if name == "cli.main":
            self._ba_seen.clear()
        elif name == "capacity.blahut_arimoto":
            key = _digest(args[0] if args else kwargs["channel"])
            self.count["ba_calls"] += 1
            self.count["ba_repeats"] += key in self._ba_seen
            self._ba_seen.add(key)
        elif name.startswith("positivity."):
            if self._pos_depth == 0:
                key = (name,) + tuple(map(_digest, args)) + tuple(
                    (k, _digest(v)) for k, v in sorted(kwargs.items()))
                self.count["pos_calls"] += 1
                self.count["pos_repeats"] += key in self._pos_seen
                self._pos_seen.add(key)
            self._pos_depth += 1

    def _after(self, name, args, kwargs, result, exc):
        if name.startswith("positivity."):
            self._pos_depth -= 1
        elif name == "capacity.blahut_arimoto":
            if isinstance(exc, NoConvergence):
                self.count["ba_noconv"] += 1
                result = exc.result
            if result is not None:
                self.count["ba_iterations"] += result.iterations
        elif name == "capacity.gelfand_pinsker_capacity" and result is not None:
            self.count["gp_sampling"] += any("randomized sampling" in w for w in result.warnings)
            self.count["gp_floor_averaged"] += result.method.endswith("averaged_floor")
            self.count["gp_floor_strategy"] += result.method.endswith("strategy_floor")
        elif name == "reductions.shannon_strategy_channel" and result is not None:
            self.count["letters"] += len(result[1])
        elif name == "protocols.monte_carlo":
            self.count["trials"] += args[1] if len(args) > 1 else kwargs["trials"]

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._before(name, args, kwargs)
            result = exc = None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                busy = clock() - start
                child = stack.pop()
                stats[0] += 1
                stats[1] += busy
                stats[2] += busy - child
                if stack:
                    stack[-1] += busy
                self._after(name, args, kwargs, result, exc)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "sdchan" or n.startswith("sdchan.")]
        for module, funcs in TRACED.items():
            home = sys.modules[f"sdchan.{module}"]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self._wrap(f"{module}.{func}", original)
                for m in modules:
                    if getattr(m, func, None) is original:
                        setattr(m, func, wrapper)
                        self._installed.append((m, func, original))

    def uninstall(self):
        for m, func, original in reversed(self._installed):
            setattr(m, func, original)
        self._installed.clear()

    # -- report -----------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for module, funcs in TRACED.items():
            for func in funcs:
                calls, busy, self_s = self.stats.get(f"{module}.{func}", (0, 0.0, 0.0))
                out[f"{module}.{func}.calls"] = calls
                out[f"{module}.{func}.busy_s"] = busy
                out[f"{module}.{func}.self_s"] = self_s
        c = self.count
        mc_busy = self.stats.get("protocols.monte_carlo", (0, 0.0, 0.0))[1]
        out.update({
            "capacity.blahut_arimoto.iterations": c["ba_iterations"],
            "capacity.blahut_arimoto.noconv": c["ba_noconv"],
            "capacity.blahut_arimoto.repeat_share": c["ba_repeats"] / c["ba_calls"] if c["ba_calls"] else 0.0,
            "capacity.gelfand_pinsker_capacity.sampling_fallbacks": c["gp_sampling"],
            "capacity.gelfand_pinsker_capacity.floor_averaged": c["gp_floor_averaged"],
            "capacity.gelfand_pinsker_capacity.floor_strategy": c["gp_floor_strategy"],
            "reductions.shannon_strategy_channel.letters": c["letters"],
            "protocols.monte_carlo.trials": c["trials"],
            "protocols.trial_us": 1e6 * mc_busy / c["trials"] if c["trials"] else 0.0,
            "positivity.repeat_share": c["pos_repeats"] / c["pos_calls"] if c["pos_calls"] else 0.0,
        })
        return out
