"""Spans around the public functions of torusecho, recorded from outside.

``Tracer.active(segment)`` replaces each traced function in the module
namespace its callers look it up in (for example ``dephasing.step_ensemble``,
which ``dr_curve``'s chunk loop calls) by a wrapper that records a span:
id, parent span, layer name, start, end, segment and the counts taken at
that boundary. The originals are put back when the block ends. Spans stay
in memory until the run writes them out.

The parent of a span is the span open in the calling context. dr_curve
fans chunks out to a thread pool; while tracing, the pool copies the
submitting context into each task, so chunk spans on worker threads keep
dr_curve as their parent. A span's self time is its duration minus the
union of its children's intervals, so overlapping children on two threads
are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import os
import statistics
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from torusecho import cli, dephasing, harness, initial_states, quantum, shadowing


class _ContextPool(ThreadPoolExecutor):
    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _written_bytes(args, kwargs, paths):
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


def _sample_count(args, kwargs, samples):
    return {"count": len(samples)}


def _sample_steps(args, kwargs, curve):
    return {"sample_steps": curve.sample_count * curve.steps}


def _points(args, kwargs, result):
    return {"points": int(np.size(args[1]))}


def _orbit_steps(args, kwargs, orbit):
    return {"steps": orbit.steps}


def _refinement(args, kwargs, result):
    return {"newton_iterations": result.iterations, "converged": int(result.converged)}


# (module, attribute its callers look up, layer name, counts at the boundary)
TRACED = (
    (cli, "main", "cli.main", None),
    (cli, "run_experiment", "harness.run_experiment", None),
    (harness, "check_config", "harness.check_config", None),
    (harness, "compare", "harness.compare", None),
    (harness, "write_result", "harness.write_result", _written_bytes),
    (harness, "samples_position_state", "initial_states.samples", _sample_count),
    (initial_states, "samples_position_state", "initial_states.samples", _sample_count),
    (harness, "dr_curve", "dephasing.dr_curve", _sample_steps),
    (dephasing, "dr_curve", "dephasing.dr_curve", _sample_steps),
    (dephasing, "step_ensemble", "dynamics.step_ensemble", _points),
    (shadowing, "step_ensemble", "dynamics.step_ensemble", _points),
    (harness, "exact_fidelity_curve", "quantum.exact_fidelity_curve", None),
    (quantum, "exact_fidelity_curve", "quantum.exact_fidelity_curve", None),
    (quantum, "step_quantum", "quantum.step_quantum", None),
    (quantum, "build_state", "quantum.build_state", None),
    (harness, "dense_oracle", "quantum.dense_oracle", None),
    (shadowing, "shadow_survey", "shadowing.shadow_survey", None),
    (shadowing, "orbit_from_map", "shadowing.orbit_from_map", _orbit_steps),
    (shadowing, "pseudo_residual", "shadowing.pseudo_residual", None),
    (shadowing, "refine_shadow", "shadowing.refine_shadow", _refinement),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, layer, start, end, segment, counts)
        self._ids = itertools.count(1)
        self._open = contextvars.ContextVar("open_span", default=None)
        self._segment = None

    def _wrap(self, fn, layer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open.get()
            sid = next(self._ids)
            token = self._open.set(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._open.reset(token)
                self.spans.append((sid, parent, layer, start, time.perf_counter(),
                                   self._segment, None))
                raise
            end = time.perf_counter()
            self._open.reset(token)
            counts = None if counter is None else counter(args, kwargs, result)
            self.spans.append((sid, parent, layer, start, end, self._segment, counts))
            return result

        return traced

    @contextlib.contextmanager
    def active(self, segment):
        """Trace every call in the block as part of `segment`."""
        self._segment = segment
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TRACED]
        saved.append((dephasing, "ThreadPoolExecutor", dephasing.ThreadPoolExecutor))
        try:
            for module, attr, layer, counter in TRACED:
                setattr(module, attr, self._wrap(getattr(module, attr), layer, counter))
            dephasing.ThreadPoolExecutor = _ContextPool
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
            self._segment = None

    def layer_totals(self, segment):
        """layer -> {calls, total_s, self_s, counts...} over one segment."""
        spans = [s for s in self.spans if s[5] == segment]
        children = defaultdict(list)
        for sid, parent, _, start, end, _, _ in spans:
            children[parent].append((start, end))
        totals = defaultdict(lambda: defaultdict(float))
        for sid, _, layer, start, end, _, counts in spans:
            row = totals[layer]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - _covered(children.get(sid, ()), start, end)
            for key, value in (counts or {}).items():
                row[key] += value
        return totals

    def dump(self):
        """Spans as JSON-ready rows."""
        keys = ("id", "parent", "layer", "start", "end", "segment", "counts")
        return [dict(zip(keys, s)) for s in sorted(self.spans)]


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:  # start >= reach here, so the union grows by this much
            total += end - start
            reach = end
    return total


# (metric, unit, layer, field); derived fields are computed in _field
PER_LAYER = (
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("harness.check_config.self_s", "s", "harness.check_config", "self_s"),
    ("harness.run_experiment.self_s", "s", "harness.run_experiment", "self_s"),
    ("harness.compare.self_s", "s", "harness.compare", "self_s"),
    ("harness.write_result.self_s", "s", "harness.write_result", "self_s"),
    ("harness.write_result.bytes", "B", "harness.write_result", "bytes"),
    ("initial_states.samples.self_s", "s", "initial_states.samples", "self_s"),
    ("initial_states.samples.count", "count", "initial_states.samples", "count"),
    ("dynamics.step_ensemble.calls", "count", "dynamics.step_ensemble", "calls"),
    ("dynamics.step_ensemble.points", "count", "dynamics.step_ensemble", "points"),
    ("dynamics.step_ensemble.self_s", "s", "dynamics.step_ensemble", "self_s"),
    ("dynamics.step_ensemble.ns_per_point", "ns", "dynamics.step_ensemble", "ns_per_point"),
    ("dephasing.dr_curve.calls", "count", "dephasing.dr_curve", "calls"),
    ("dephasing.dr_curve.sample_steps", "count", "dephasing.dr_curve", "sample_steps"),
    ("dephasing.dr_curve.self_s", "s", "dephasing.dr_curve", "self_s"),
    ("dephasing.dr_curve.ns_per_sample_step", "ns", "dephasing.dr_curve", "ns_per_sample_step"),
    ("quantum.step_quantum.calls", "count", "quantum.step_quantum", "calls"),
    ("quantum.step_quantum.self_s", "s", "quantum.step_quantum", "self_s"),
    ("quantum.step_quantum.us_per_call", "us", "quantum.step_quantum", "us_per_call"),
    ("quantum.exact_fidelity_curve.self_s", "s", "quantum.exact_fidelity_curve", "self_s"),
    ("quantum.build_state.self_s", "s", "quantum.build_state", "self_s"),
    ("quantum.dense_oracle.self_s", "s", "quantum.dense_oracle", "self_s"),
    ("shadowing.orbit_from_map.self_s", "s", "shadowing.orbit_from_map", "self_s"),
    ("shadowing.orbit_from_map.steps", "count", "shadowing.orbit_from_map", "steps"),
    ("shadowing.pseudo_residual.self_s", "s", "shadowing.pseudo_residual", "self_s"),
    ("shadowing.refine_shadow.self_s", "s", "shadowing.refine_shadow", "self_s"),
    ("shadowing.refine_shadow.calls", "count", "shadowing.refine_shadow", "calls"),
    ("shadowing.refine_shadow.newton_iterations", "count", "shadowing.refine_shadow",
     "newton_iterations"),
    ("shadowing.refine_shadow.converged", "count", "shadowing.refine_shadow", "converged"),
)


def _field(row, field):
    if field == "ns_per_point":
        return 1e9 * row["self_s"] / row["points"] if row["points"] else 0.0
    if field == "ns_per_sample_step":
        return 1e9 * row["total_s"] / row["sample_steps"] if row["sample_steps"] else 0.0
    if field == "us_per_call":
        return 1e6 * row["self_s"] / row["calls"] if row["calls"] else 0.0
    return row[field]


def layer_metrics(tracer, passes, setup="setup"):
    """Each PER_LAYER metric as the median over the traced passes.

    A layer that runs only while the inputs are built (the samples of
    dr-mc) is taken from the set-up segment; one that never runs reads 0.
    """
    per_pass = [tracer.layer_totals(p) for p in passes]
    at_setup = tracer.layer_totals(setup)
    metrics = {}
    for name, unit, layer, field in PER_LAYER:
        if any(layer in t for t in per_pass):
            value = statistics.median(_field(t.get(layer, defaultdict(float)), field)
                                      for t in per_pass)
        elif layer in at_setup:
            value = _field(at_setup[layer], field)
        else:
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics
