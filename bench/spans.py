"""Per-layer spans and counters, recorded from outside the package.

``Tracer.install`` replaces the public functions listed in ``LAYERS`` with
timing and counting wrappers, in the defining module and in every package
module that imported them by name; ``uninstall`` puts the originals back.
Each call records a span ``[name, start, end, parent]`` in memory; parent
is the index of the enclosing span, or -1.  Counters are taken at the same
boundaries.  A layer's self time is the time of its spans minus the part
covered by their direct children.

tracemalloc makes lattice calls about ten times slower, so a tracer made
with ``memory=True`` serves only to take the peak allocation of each
lattice call, in a pass of its own whose times are not reported.
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = {
    "arena": ("parse_arena", "reweight", "apply_mask"),
    "energy": ("least_sepm", "winning_regions", "compatible_arcs"),
    "values": ("solve_values", "ergodic_partition", "synthesize_optimal",
               "is_optimal"),
    "potentials": ("restrict", "least_feasible_potential",
                   "delta_membership"),
    "lattice": ("enumerate_lattice", "decompose"),
    "oracle": ("payoff_vector",),
    "cli": ("main",),
}

# Per-layer metrics of one pass: name -> unit.
METRICS = {"%s.self_s" % layer: "s" for layer in LAYERS}
METRICS.update({
    "arena.parse_s": "s", "arena.reweight_calls": "count",
    "arena.apply_mask_calls": "count", "arena.apply_mask_s": "s",
    "energy.least_sepm_calls": "count", "energy.least_sepm_s": "s",
    "energy.lifts": "count",
    "values.solve_values_s": "s", "values.probes": "count",
    "values.max_probe_scale": "denominator", "values.max_cap": "energy",
    "values.synthesize_s": "s", "values.is_optimal_s": "s",
    "lattice.enumerate_s": "s", "lattice.children_tried": "count",
    "lattice.children_kept": "count", "lattice.kept_ratio": "ratio",
    "lattice.lifts_kept": "count", "lattice.lifts_pruned": "count",
    "lattice.decompose_s": "s", "lattice.block_candidates": "count",
    "lattice.block_hits": "count", "lattice.peak_alloc_kb": "KiB",
    "potentials.lfp_calls": "count", "potentials.lfp_s": "s",
    "cli.least_sepm_calls": "count",
})

# Summed span durations reported as time metrics.
SPAN_TIMES = {
    "arena.parse_s": "arena.parse_arena",
    "arena.apply_mask_s": "arena.apply_mask",
    "energy.least_sepm_s": "energy.least_sepm",
    "values.solve_values_s": "values.solve_values",
    "values.synthesize_s": "values.synthesize_optimal",
    "values.is_optimal_s": "values.is_optimal",
    "lattice.enumerate_s": "lattice.enumerate_lattice",
    "lattice.decompose_s": "lattice.decompose",
    "potentials.lfp_s": "potentials.least_feasible_potential",
}
MAXIMA = ("values.max_probe_scale", "values.max_cap",
          "lattice.peak_alloc_kb")


def _package_modules():
    return [module for name, module in sorted(sys.modules.items())
            if name == "mpgsolver" or name.startswith("mpgsolver.")]


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self.counts = Counter()
        self.maxima = Counter()
        self._stack = []
        self._patched = []

    def install(self):
        originals = {}
        for layer, names in LAYERS.items():
            module = sys.modules["mpgsolver." + layer]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = self._wrap(layer + "." + name, fn)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def mark(self):
        """State to return to with ``rollback``."""
        return len(self.spans), self.counts.copy(), self.maxima.copy()

    def rollback(self, state):
        """Forgets the calls made since ``mark``: those of a failed op."""
        count, self.counts, self.maxima = state
        del self.spans[count:]

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched = []

    def _ancestor(self, index, name):
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def _wrap(self, name, fn):
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        lattice_memory = self.memory and name.startswith("lattice.")

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            lifts = None
            if name == "energy.least_sepm":
                lifts = [0]
                kwargs["lift_counter"] = lifts
            if lattice_memory:
                gc.collect()  # so the peak does not depend on earlier calls
                tracemalloc.start()
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if lattice_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer._maximum("lattice.peak_alloc_kb", peak // 1024)
            tracer._count(name, parent, args, kwargs, result, lifts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _maximum(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def _count(self, name, parent, args, kwargs, result, lifts):
        counts = self.counts
        parent_name = self.spans[parent][0] if parent >= 0 else None
        if name == "energy.least_sepm":
            counts["energy.least_sepm_calls"] += 1
            counts["energy.lifts"] += lifts[0]
            if self._ancestor(parent, "values.solve_values"):
                self._maximum("values.max_cap", result.cap)
            if parent_name == "cli.main":
                counts["cli.least_sepm_calls"] += 1
            if (parent_name == "lattice.enumerate_lattice"
                    and kwargs.get("seed") is not None):
                counts["lattice.children_tried"] += 1
                if result.all_finite():
                    counts["lattice.children_kept"] += 1
                    counts["lattice.lifts_kept"] += lifts[0]
                else:
                    counts["lattice.lifts_pruned"] += lifts[0]
        elif name == "energy.winning_regions":
            if self._ancestor(parent, "values.solve_values"):
                counts["values.probes"] += 1
                self._maximum("values.max_probe_scale", args[0].scale)
        elif name == "arena.reweight":
            counts["arena.reweight_calls"] += 1
        elif name == "arena.apply_mask":
            counts["arena.apply_mask_calls"] += 1
        elif name == "potentials.delta_membership":
            counts["lattice.block_candidates"] += 1
            counts["lattice.block_hits"] += bool(result)
        elif name == "potentials.least_feasible_potential":
            counts["potentials.lfp_calls"] += 1

    def metrics(self, paused):
        """Every per-layer metric over the recorded calls, by name.

        ``paused(start, end)`` is the time between start and end that was
        not the program's (the benchmark's sampling); spans exclude it.
        """
        durations = [end - start - paused(start, end)
                     for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        span_sum = Counter()
        for (name, _, _, parent), duration in zip(self.spans, durations):
            span_sum[name] += duration
            if parent >= 0:
                child[parent] += duration
        values = {layer + ".self_s": 0.0 for layer in LAYERS}
        for (name, _, _, _), duration, inner in zip(self.spans, durations,
                                                     child):
            values[name.split(".", 1)[0] + ".self_s"] += duration - inner
        for metric, span_name in SPAN_TIMES.items():
            values[metric] = span_sum[span_name]
        for metric, unit in METRICS.items():
            if unit == "count":
                values[metric] = self.counts[metric]
        for metric in MAXIMA:
            values[metric] = self.maxima[metric]
        tried = self.counts["lattice.children_tried"]
        values["lattice.kept_ratio"] = (
            self.counts["lattice.children_kept"] / tried if tried else 0.0)
        return values
