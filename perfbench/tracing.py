"""Span tracing around the public callables of topareto, from outside.

The tracer replaces each traced name where callers look it up (a module
global or a class attribute) with a wrapper that appends one span record
``[name, start, end, parent_index, tag]`` to an in-memory list. Nothing in
``src/`` is changed: the patches live only in the benchmark process.

Spans are kept in memory and written out once, at the end of a run. Pool
workers forked by ``pareto.run_optimizations`` inherit the wrappers but
record into their own copy of the list, which is never collected: per-layer
numbers cover the process that owns the tracer only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time

NAME, START, END, PARENT, TAG = range(5)


def _factorize_method(args, kwargs, _out):
    return kwargs.get("method", args[2] if len(args) > 2 else None)


def _design_stats(_args, _kwargs, out):
    return (out.iterations, bool(out.converged), out.descent_violations)


def _cache_hit(_args, _kwargs, out):
    return out is not None


def _cache_put(args, _kwargs, _out):
    cache, key, result = args[0], args[1], args[2]
    digest = hashlib.sha256(result.densities.values.tobytes()).hexdigest()
    written = 0
    if cache.root is not None:
        written = sum(os.path.getsize(cache.root / f"{key}{ext}")
                      for ext in (".json", ".npy"))
    return (digest, written)


def _task_count(args, kwargs, _out):
    return len(kwargs.get("tasks", args[1] if len(args) > 1 else ()))


def patch_table():
    """(owner, attribute, span name, tag function) for every traced name.

    A name imported into several modules is patched in each of them, so a
    call is traced however the caller reaches it.
    """
    from topareto import (cache, cli, er, fem2d, materials, metamodel, pareto,
                          simp, svgplot)
    kern = fem2d.GridKernel
    return [
        (kern, "factorize", "fem2d.factorize", _factorize_method),
        (kern, "solve", "fem2d.solve", None),
        (kern, "assemble_banded", "fem2d.assemble_banded", None),
        (kern, "apply_constrained", "fem2d.apply_constrained", None),
        (kern, "element_energies", "fem2d.element_energies", None),
        (fem2d, "kernel_for", "fem2d.kernel_for", None),
        (simp, "kernel_for", "fem2d.kernel_for", None),
        (metamodel, "kernel_for", "fem2d.kernel_for", None),
        (simp, "optimize", "simp.optimize", _design_stats),
        (pareto, "optimize", "simp.optimize", _design_stats),
        (simp, "initial_design", "simp.initial_design", None),
        (pareto, "initial_design", "simp.initial_design", None),
        (simp, "filter_build", "simp.filter_build", None),
        (simp, "evaluate_p1", "simp.evaluate_p1", None),
        (pareto, "run_optimizations", "pareto.run_optimizations", _task_count),
        (materials, "run_optimizations", "pareto.run_optimizations", _task_count),
        (cache.RunCache, "get", "cache.get", _cache_hit),
        (cache.RunCache, "put", "cache.put", _cache_put),
        (er, "compute_er", "er.compute_er", None),
        (er, "filter_er", "er.filter_er", None),
        (metamodel, "fit_problem", "metamodel.fit_problem", None),
        (metamodel, "full_density_compliance",
         "metamodel.full_density_compliance", None),
        (materials, "select", "materials.select", None),
        (materials, "refine_vf", "materials.refine_vf", None),
        (svgplot, "chart", "svgplot.chart", None),
        (svgplot, "density_raster", "svgplot.density_raster", None),
        (svgplot, "ashby_chart", "svgplot.ashby_chart", None),
        (cli, "cmd_optimize", "cli.optimize", None),
        (cli, "cmd_pareto", "cli.pareto", None),
        (cli, "cmd_er", "cli.er", None),
        (cli, "cmd_fit", "cli.fit", None),
        (cli, "cmd_select", "cli.select", None),
    ]


class Tracer:
    """In-memory span recorder installed by patching lookup sites."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, tag_fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if tag_fn is not None:
                rec[TAG] = tag_fn(args, kwargs, out)
            return out
        return traced

    def install(self):
        """Patch every lookup site; stays installed for the life of the process."""
        for owner, attr, name, tag_fn in patch_table():
            setattr(owner, attr, self._wrap(name, vars(owner)[attr], tag_fn))

    def write(self, path):
        """One JSON array per line: name, start, end, parent index, tag."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from a slice of spans

# metrics that must repeat exactly across runs of one seed
EXACT_COUNTS = ("simp.oc_iters", "fem2d.solve.calls",
                "fem2d.factorize.calls.dense", "fem2d.factorize.calls.banded",
                "pareto.optimizations", "cache.get.calls", "cache.hits")

_INCLUSIVE = {
    "fem2d.assemble_banded.s": ("fem2d.assemble_banded",),
    "fem2d.element_energies.s": ("fem2d.element_energies",),
    "fem2d.kernel_for.s": ("fem2d.kernel_for",),
    "simp.evaluate_p1.s": ("simp.evaluate_p1",),
    "simp.initial_design.s": ("simp.initial_design",),
    "simp.filter_build.s": ("simp.filter_build",),
    "pareto.run_optimizations.s": ("pareto.run_optimizations",),
    "cache.get.s": ("cache.get",),
    "cache.put.s": ("cache.put",),
    "er.s": ("er.compute_er", "er.filter_er"),
    "metamodel.fit_problem.s": ("metamodel.fit_problem",),
    "metamodel.full_density_compliance.s": ("metamodel.full_density_compliance",),
    "materials.select.s": ("materials.select",),
    "svgplot.s": ("svgplot.chart", "svgplot.density_raster", "svgplot.ashby_chart"),
    "cli.er.s": ("cli.er",),
    "cli.select.s": ("cli.select",),
}
_SELF = {
    "fem2d.factorize.self_s": "fem2d.factorize",
    "fem2d.solve.self_s": "fem2d.solve",
    "simp.optimize.self_s": "simp.optimize",
}
_CALLS = {
    "fem2d.solve.calls": "fem2d.solve",
    "fem2d.apply_constrained.calls": "fem2d.apply_constrained",
    "pareto.run_optimizations.calls": "pareto.run_optimizations",
    "cache.get.calls": "cache.get",
    "materials.refine_vf.calls": "materials.refine_vf",
}


def raw_counters(spans, lo, hi):
    """Additive counters over ``spans[lo:hi]``; ratios are formed later."""
    out = dict.fromkeys(list(_INCLUSIVE) + list(_SELF), 0.0)
    out.update(dict.fromkeys(list(_CALLS) + [
        "fem2d.factorize.calls.dense", "fem2d.factorize.calls.banded",
        "simp.oc_iters", "simp.optimize.calls", "simp.converged",
        "simp.descent_violations", "pareto.optimizations", "pareto.tasks",
        "pareto.distinct", "cache.put.calls", "cache.hits", "cache.bytes"], 0))
    child_time: dict[int, float] = {}
    for rec in spans[lo:hi]:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] = child_time.get(rec[PARENT], 0.0) \
                + rec[END] - rec[START]
    inclusive_of = {n: key for key, names in _INCLUSIVE.items() for n in names}
    self_of = {n: key for key, n in _SELF.items()}
    calls_of = {n: key for key, n in _CALLS.items()}
    digests = set()
    for idx in range(lo, hi):
        rec = spans[idx]
        name, dur, tag = rec[NAME], rec[END] - rec[START], rec[TAG]
        key = inclusive_of.get(name)
        parent = rec[PARENT]
        if key is not None and not (
                parent >= 0 and inclusive_of.get(spans[parent][NAME]) == key):
            out[key] += dur
        if name in self_of:
            out[self_of[name]] += dur - child_time.get(idx, 0.0)
        if name in calls_of:
            out[calls_of[name]] += 1
        if tag is None:     # untagged, or the call raised
            continue
        if name == "fem2d.factorize":
            out[f"fem2d.factorize.calls.{tag}"] += 1
        elif name == "simp.optimize":
            out["simp.optimize.calls"] += 1
            out["simp.oc_iters"] += tag[0]
            out["simp.converged"] += tag[1]
            out["simp.descent_violations"] += tag[2]
        elif name == "pareto.run_optimizations":
            out["pareto.tasks"] += tag
        elif name == "cache.get":
            out["cache.hits"] += bool(tag)
            out["pareto.optimizations"] += not tag
        elif name == "cache.put":
            out["cache.put.calls"] += 1
            out["cache.bytes"] += tag[1]
            digests.add(tag[0])
    out["pareto.distinct"] = len(digests)
    return out


def layer_metrics(raw):
    """Per-layer metric values from summed raw counters."""
    def ratio(num, den):
        return raw[num] / raw[den] if raw[den] else 0.0

    skip = {"simp.optimize.calls", "simp.converged", "pareto.distinct",
            "cache.put.calls", "cache.hits"}
    out = {k: v for k, v in raw.items() if k not in skip}
    out["simp.converged_ratio"] = ratio("simp.converged", "simp.optimize.calls")
    out["pareto.distinct_ratio"] = ratio("pareto.distinct", "cache.put.calls")
    out["cache.hit_ratio"] = ratio("cache.hits", "cache.get.calls")
    return out
