"""Opt-in tracing from outside the package: wrap public functions, keep spans.

`Tracer.install` wraps every public function of every ergrates module under
every module name that binds it (rates, cli and fourier bind functions of
other modules at import, and call them through those names), so a span is
recorded whichever name the caller used.  Spans stay in memory as
(name, start, end, parent, op id, rows, self time, flags) and are written
out once the run ends.  `uninstall` restores the original functions.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time

import numpy as np


def _second_arg(args, kwargs):
    return args[1] if len(args) > 1 else next(iter(kwargs.values()))


# count metrics taken from the row shape of an argument (or of the result)
_ROWS = {
    "fourier.ratio_abs_sq": lambda a, kw, out: (
        np.shape(_second_arg(a, kw))[0] if np.ndim(_second_arg(a, kw)) > 1 else 1),
    "fourier.unit_ball_profile": lambda a, kw, out: int(np.size(_second_arg(a, kw))),
    "bessel.bessel_j": lambda a, kw, out: int(np.size(_second_arg(a, kw))),
    "classify.region_map": lambda a, kw, out: len(out.rows),
}
_DECAY = "rates.decay_integral"

# span tuple fields
NAME, START, END, PARENT, OP, ROWS, SELF, NESTED, IN_DECAY = range(9)


def _public_functions(modules) -> dict:
    """original function -> canonical 'module.name', for functions defined in the package."""
    found = {}
    for mod in modules:
        short = mod.__name__.split(".", 1)[1] if "." in mod.__name__ else mod.__name__
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                found[obj] = f"{short}.{name}"
    return found


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple] = []
        self.op_id = None

    # -- wrapping ------------------------------------------------------------------

    def install(self, package_name: str = "ergrates") -> int:
        """Wrap every public function under every binding; returns bindings wrapped."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package_name or n.startswith(package_name + "."))]
        wrappers = {fn: self._wrap(fn, name) for fn, name in _public_functions(modules).items()}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])
        return len(self._patched)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        rows_of = _ROWS.get(name)
        spans, stack, child, active = self.spans, self._stack, self._child, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            child.append(0.0)
            stack.append(idx)
            nested = active.get(name, 0) > 0
            in_decay = active.get(_DECAY, 0) > 0
            active[name] = active.get(name, 0) + 1
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - start
                if parent >= 0:
                    child[parent] += dur
                rows = rows_of(args, kwargs, out) if rows_of is not None and out is not None else 0
                spans[idx] = (name, start, end, parent, self.op_id, rows,
                              dur - child[idx], nested, in_decay)

        return wrapper

    def run_op(self, op_id: str, fn):
        """Run fn as the root span of one op."""
        self.op_id = op_id
        try:
            return self._wrap(fn, "op")()
        finally:
            self.op_id = None

    # -- results -------------------------------------------------------------------

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP], "rows": s[ROWS]}) + "\n")

    def summary(self) -> dict:
        """Per-name calls, busy time (outermost spans), self time and rows."""
        out: dict[str, dict] = {}
        for s in self.spans:
            agg = out.setdefault(s[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "rows": 0,
                                           "calls_in_decay": 0, "rows_in_decay": 0})
            agg["calls"] += 1
            agg["self_s"] += s[SELF]
            agg["rows"] += s[ROWS]
            if not s[NESTED]:
                agg["busy_s"] += s[END] - s[START]
            if s[IN_DECAY]:
                agg["calls_in_decay"] += 1
                agg["rows_in_decay"] += s[ROWS]
        return out


def layer_metrics(summary: dict, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """The per-module metrics BENCHMARK.json lists, from one traced pass."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    m: dict[str, tuple[float, str]] = {}
    # outermost decay_integral calls; a SumMeasure recurses into its parts
    evals = get(_DECAY, "calls") - get(_DECAY, "calls_in_decay")
    m["rates.decay_integral.calls"] = (evals, "count")
    m["rates.decay_integral.busy_s"] = (get(_DECAY, "busy_s"), "s")
    m["rates.decay_integral.self_s"] = (get(_DECAY, "self_s"), "s")
    ratio_in = get("fourier.ratio_abs_sq", "calls_in_decay")
    rows_in = get("fourier.ratio_abs_sq", "rows_in_decay")
    m["rates.ratio_calls_per_eval"] = (ratio_in / evals if evals else 0.0, "count")
    m["rates.rows_per_eval"] = (rows_in / evals if evals else 0.0, "count")
    for fn in ("check_rate_equivalence", "check_critical_rate", "check_supercritical_rate"):
        m[f"rates.{fn}.busy_s"] = (get(f"rates.{fn}", "busy_s"), "s")
    m["rates.fit.busy_s"] = (get("rates.fit_rate", "busy_s")
                             + get("rates.fit_oscillatory_rate", "busy_s"), "s")
    m["rates.decay_integral_atomic.calls"] = (get("rates.decay_integral_atomic", "calls"), "count")
    m["rates.decay_integral_atomic.busy_s"] = (get("rates.decay_integral_atomic", "busy_s"), "s")
    rows = get("fourier.ratio_abs_sq", "rows")
    busy = get("fourier.ratio_abs_sq", "busy_s")
    m["fourier.ratio_abs_sq.calls"] = (get("fourier.ratio_abs_sq", "calls"), "count")
    m["fourier.ratio_abs_sq.rows"] = (rows, "count")
    m["fourier.ratio_abs_sq.busy_s"] = (busy, "s")
    m["fourier.ratio_abs_sq.ns_per_row"] = (1e9 * busy / rows if rows else 0.0, "ns")
    for name in ("fourier.unit_ball_profile", "bessel.bessel_j"):
        m[f"{name}.rows"] = (get(name, "rows"), "count")
        m[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
    for name in ("fourier.indicator_ft", "fourier.stationary_phase_ft", "geometry.width",
                 "spectral.mass", "spectral.singular_integral", "hilbert_sim.average_norm_sq"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
    m["spectral.parse_measure.busy_s"] = (get("spectral.parse_measure", "busy_s"), "s")
    m["hilbert_sim.induced_measure.busy_s"] = (get("hilbert_sim.induced_measure", "busy_s"), "s")
    m["classify.region_map.busy_s"] = (get("classify.region_map", "busy_s"), "s")
    points = get("classify.region_map", "rows") + get("classify.params_report", "calls")
    regimes = get("classify.square_regime", "calls") + get("classify.circle_regime", "calls")
    m["classify.regime_calls_per_point"] = (regimes / points if points else 0.0, "count")
    m["cli.main.calls"] = (get("cli.main", "calls"), "count")
    m["cli.main.self_s"] = (get("cli.main", "self_s"), "s")
    m["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    m["trace.wall_s"] = (traced_wall_s, "s")
    return m

