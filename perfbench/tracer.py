"""Outside tracer: spans around the layers' public functions, recorded from
the benchmark's own files without editing the package.

The tracer replaces module attributes that callers look up at call time
(``ndtrap.trap.integrate_mathieu`` is found through the ``trap`` module's
globals by ``integrate_motion`` and ``find_mathieu_boundary``; ``runner``
binds ``pick_pulses`` at import, so ``ndtrap.runner.pick_pulses`` is the
attribute to replace).  Spans stay in memory until the run ends.  A span's
self time is its duration minus the durations of its child spans; calls are
strictly nested on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter


def _bound(fn, args, kwargs):
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    return call.arguments


def _rk4_counts(fn, args, kwargs, result):
    # integrate_mathieu returns (times, positions, lost, escape_time); the
    # step count is computed the way the integrator computes it, from the
    # arguments and, for a lost particle, from the returned escape time.
    a = _bound(fn, args, kwargs)
    _, _, lost, escape_time = result
    horizon = escape_time if lost else a["duration"]
    steps = int(round(horizon * a["drive_frequency"] * a["steps_per_period"]))
    return {"rk4_steps": steps, "escaped": int(bool(lost))}


def _trajectory_counts(fn, args, kwargs, result):
    return {"events": result.n_events}


def _pulse_counts(fn, args, kwargs, result):
    return {"pulses": len(result)}


def _survival_counts(fn, args, kwargs, result):
    return {"particles": int(result.n0)}


def _peak_counts(fn, args, kwargs, result):
    return {"peak_found": int(result is not None)}


def _nls_counts(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"iterations": int(result.iterations), "points": len(a["x"]),
            "converged": int(bool(result.converged))}


def _lattice_counts(fn, args, kwargs, result):
    return {"refine_iterations": int(result.iterations)}


# (module, attribute, span name, counter).  Several attributes may share one
# span name when the same function is reached through different bindings.
WRAPS = (
    ("ndtrap.trap", "integrate_mathieu", "trap.integrate_mathieu", _rk4_counts),
    ("ndtrap.trap", "integrate_motion", "trap.integrate_motion", None),
    ("ndtrap.trap", "find_mathieu_boundary", "trap.find_mathieu_boundary", None),
    ("ndtrap.runner", "simulate_charge_trajectory",
     "photoemission.simulate_charge_trajectory", _trajectory_counts),
    ("ndtrap.ensemble", "simulate_charge_trajectory",
     "photoemission.simulate_charge_trajectory", _trajectory_counts),
    ("ndtrap.runner", "pick_pulses", "photoemission.pick_pulses", _pulse_counts),
    ("ndtrap.ensemble", "simulate_survival", "ensemble.simulate_survival",
     _survival_counts),
    ("ndtrap.ensemble", "integrated_escape_check",
     "ensemble.integrated_escape_check", None),
    ("ndtrap.runner", "synthesize_frequency_trace",
     "signal.synthesize_frequency_trace", None),
    ("ndtrap.signal", "estimate_secular_frequency",
     "signal.estimate_secular_frequency", _peak_counts),
    ("ndtrap.fitters", "nls_fit", "fitters.nls_fit", _nls_counts),
    ("ndtrap.fitters", "fit_exponential", "fitters.fit_exponential", None),
    ("ndtrap.fitters", "fit_sigmoid", "fitters.fit_sigmoid", None),
    ("ndtrap.fitters", "fit_powerlaw", "fitters.fit_powerlaw", None),
    ("ndtrap.fitters", "fit_charge_lattice", "fitters.fit_charge_lattice",
     _lattice_counts),
    ("ndtrap.runner", "parse_scenario_text", "config.parse_scenario_text", None),
    ("ndtrap.runner", "load_bundled_scenario", "runner.load_bundled_scenario", None),
    ("ndtrap.runner", "run_frequency_trace_scenario",
     "runner.run_frequency_trace_scenario", None),
    ("ndtrap.runner", "run_trajectory_scenario", "runner.run_trajectory_scenario", None),
    ("ndtrap.runner", "run_picker_scenario", "runner.run_picker_scenario", None),
)


class Span:
    __slots__ = ("name", "item", "parent", "start", "end", "error", "counts")

    def __init__(self, name, item, parent):
        self.name = name
        self.item = item
        self.parent = parent
        self.start = self.end = 0.0
        self.error = None
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span per call of each wrapped attribute while installed.

    ``item`` is the identifier of the benchmark item in progress (-1 for
    per-run steps); every span records it, so spans of one item share it.
    """

    def __init__(self):
        self.spans = []
        self.item = -1
        self._stack = []
        self._saved = []

    def install(self):
        for module_name, attr, span_name, counter in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, counter))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, span_name, counter):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(span_name, self.item, stack[-1] if stack else -1)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.error = type(exc).__name__
                raise
            else:
                span.end = perf_counter()
                if counter is not None:
                    span.counts = counter(fn, args, kwargs, result)
                return result
            finally:
                stack.pop()

        return traced

    def self_times(self) -> list:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def summary(self) -> dict:
        """Per span name: calls, errors, total and self seconds, summed counts,
        and the number of calls made directly under each parent name."""
        out = defaultdict(lambda: {"calls": 0, "errors": 0, "total_s": 0.0,
                                   "self_s": 0.0, "counts": defaultdict(int),
                                   "under": defaultdict(int)})
        for span, own in zip(self.spans, self.self_times()):
            entry = out[span.name]
            entry["calls"] += 1
            entry["errors"] += span.error is not None
            entry["total_s"] += span.duration
            entry["self_s"] += own
            for key, value in (span.counts or {}).items():
                entry["counts"][key] += value
            if span.parent >= 0:
                entry["under"][self.spans[span.parent].name] += 1
        return out

    def dump(self, path, header: dict):
        """Write the spans as JSON: [name, item, parent, start, end, error, counts]."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [[s.name, s.item, s.parent, round(s.start - t0, 9),
                 round(s.end - t0, 9), s.error, s.counts] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"header": header, "spans": rows}, fh, separators=(",", ":"))
