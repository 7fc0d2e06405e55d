"""Outside-in tracer: timing wrappers around vacuumsq's public functions.

The wrappers replace module and class attributes, so every call that looks
the name up in its module at call time opens a span -- calls from other
modules and calls inside the same module alike.  Spans stay in memory as
(name, start, end, parent) and are written when the run ends.  A span's
self time is its duration minus the durations of its direct children,
which never overlap because the program is single-threaded.  Counters are
recorded at the same boundaries.  Nothing is installed unless a run asks
for tracing.
"""

from __future__ import annotations

import functools
import math
import os
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Spans whose call counts and self times are reported (as "<span>.calls"
# and "<span>.self_s"), plus spans that only mark a boundary so that their
# work is not booked as the caller's self time.
SPANS = {
    "analytic": ("xi_total", "xi_unitary", "noise_probabilities", "add_noise_to_xi",
                 "squeezing_trace"),
    "optimize": ("optimal_time", "optimal_detuning", "golden_section",
                 "minimize_on_log_axis", "scaling_scan"),
    "dicke": ("css", "evolve_oat", "moments", "apply_noise", "squeezing_trace"),
    "oracle": ("evolve_full", "light_shift_table", "verification_report"),
    "cli": ("main", "load_config", "write_csv", "write_json"),
}


class Tracer:
    """In-memory span store for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def caller(self) -> str | None:
        """Name of the span enclosing the innermost open span."""
        return self.names[self.name_id[self._stack[-2]]] if len(self._stack) > 1 else None

    def span_count(self) -> int:
        return len(self.start)

    def summarize(self, lo: int, hi: int) -> dict:
        """Calls and self time per span name for the spans [lo, hi)."""
        nid = np.asarray(self.name_id[lo:hi], dtype=np.int64)
        parent = np.asarray(self.parent[lo:hi], dtype=np.int64) - lo
        dur = np.asarray(self.end[lo:hi]) - np.asarray(self.start[lo:hi])
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        calls = np.bincount(nid, minlength=len(self.names))
        self_s = np.bincount(nid, weights=own, minlength=len(self.names))
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def take_counters(self) -> dict:
        out = dict(self.counters)
        self.counters.clear()
        return out

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.asarray(self.name_id), parent=np.asarray(self.parent),
                            start=np.asarray(self.start), end=np.asarray(self.end))


def _traced(tracer: Tracer, name: str, fn, after=None):
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _counting_minimize(tracer: Tracer, minimize):
    """minimize_on_log_axis with its objective wrapped in a counter.

    Evaluations are booked as detuning evaluations when the minimizer is
    called directly by optimal_detuning, else as time evaluations.
    """

    def counted(f, *args, **kwargs):
        kind = ("optimize.detuning_evals" if tracer.caller() == "optimize.optimal_detuning"
                else "optimize.time_evals")

        def objective(x):
            value = f(x)
            tracer.counters[kind] += 1
            if math.isfinite(value):
                tracer.counters["optimize.finite_evals"] += 1
            elif value == math.inf:
                tracer.counters["optimize.guard_rejections"] += 1
            return value

        return minimize(objective, *args, **kwargs)

    return counted


def install(tracer: Tracer) -> None:
    """Replace the traced attributes of the vacuumsq modules with wrappers."""
    from vacuumsq import analytic, cli, dicke, optimize, oracle

    modules = {"analytic": analytic, "optimize": optimize, "dicke": dicke,
               "oracle": oracle, "cli": cli}
    counters = tracer.counters

    def computed_bytes(state, points):  # two dim x dim float64 products per point
        counters["dicke.tat.bytes_computed"] += points * 2 * state.amplitudes.size ** 2 * 8

    def after_init(args, _):
        dim = int(round(2 * args[0].spin_S + 1))
        counters["dicke.tat.dim"] = max(counters["dicke.tat.dim"], dim)

    def after_evolve_full(args, result):
        counters["oracle.cutoff_escalations"] += result.photon_cutoff - args[0].photon_cutoff

    def after_write(args, _):
        counters["cli.bytes_written"] += os.path.getsize(args[0])

    after = {"oracle.evolve_full": after_evolve_full, "cli.write_csv": after_write,
             "cli.write_json": after_write}
    for layer, attrs in SPANS.items():
        module = modules[layer]
        for attr in attrs:
            name = f"{layer}.{attr}"
            fn = getattr(module, attr)
            if name == "optimize.minimize_on_log_axis":
                fn = _counting_minimize(tracer, fn)
            setattr(module, attr, _traced(tracer, name, fn, after.get(name)))

    cls = dicke.TatPropagator
    for attr, label, hook in (
            ("__init__", "init", after_init),
            ("evolve", "evolve", lambda args, _: computed_bytes(args[1], 1)),
            ("evolve_grid", "evolve_grid", lambda args, out: computed_bytes(args[1], len(out)))):
        setattr(cls, attr, _traced(tracer, f"dicke.TatPropagator.{label}",
                                   getattr(cls, attr), hook))
