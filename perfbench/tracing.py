"""Per-layer tracing from outside the program.

``Tracer.install`` wraps each layer's public functions where callers look
them up: the defining module's attribute, every ``nerveforge`` module that
imported the same object by name, or the class attribute for methods and
constructors.  Each call records a span (name, start, end, parent) in flat
arrays; counters and problem sizes are recorded at the same boundaries.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from time import perf_counter

from nerveforge import (clumps, covers, euclid, homology, jsonio, lattices,
                        nilpotent, periodic, scenarios, snf)

ITEM = "bench.item"
# Stages whose inclusive time is reported too: their snf calls (most of the
# periodic-mix time) would otherwise show only as snf self time.
INCLUSIVE = ("homology.degree_homology", "homology.DegreeHomology.coordinates")


def _snf_sizes(args, kwargs, result, add):
    m = args[0]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    add("rows", rows)
    add("cols", cols)
    add("nnz", sum(1 for row in m for v in row if v))
    add("rank", result.rank)
    add("max_cells", rows * cols, keep_max=True)


def _cells(args, kwargs, result, add):
    add("cells", sum(len(b) for b in result.basis.values()))


def _simplices(args, kwargs, result, add):
    add("simplices", len(result.simplices))


def _nerve_simplices(args, kwargs, result, add):
    add("simplices", len(result.intersections))


# (owner, attribute, metric prefix, sizer); owner is a module or a class.
SPANS = [
    (snf, "smith_normal_form", "snf.smith_normal_form", _snf_sizes),
    (snf, "solve_integer", "snf.solve_integer", None),
    (snf, "rational_rank", "snf.rational_rank", None),
    (homology, "degree_homology", "homology.degree_homology", None),
    (homology.DegreeHomology, "coordinates", "homology.DegreeHomology.coordinates", None),
    (homology, "chain_complex", "homology.chain_complex", _cells),
    (homology, "chain_map_of_simplicial", "homology.chain_map_of_simplicial", None),
    (homology, "induced_map_on_homology", "homology.induced_map_on_homology", None),
    (homology, "induced_map_is_isomorphism", "homology.induced_map_is_isomorphism", None),
    (homology, "homology", "homology.homology", None),
    (homology.TotalComplex, "__init__", "homology.TotalComplex", None),
    (periodic.BoxUnion, "window_complex", "periodic.window_complex", _simplices),
    (periodic.CoverWindow, "__init__", "periodic.CoverWindow", None),
    (periodic, "quotient_complex", "periodic.quotient_complex", None),
    (periodic, "full_coverage_check", "periodic.full_coverage_check", None),
    (periodic, "stabilization_check", "periodic.stabilization_check", None),
    (lattices, "hermite_normal_form", "lattices.hermite_normal_form", None),
    (lattices.LatticeSubgroup, "reduce", "lattices.LatticeSubgroup.reduce", None),
    (euclid, "minset_of_group", "euclid.minset_of_group", None),
    (euclid.AffineSubspace, "intersect", "euclid.AffineSubspace.intersect", None),
    (euclid, "rational_row_space_basis", "euclid.rational_row_space_basis", None),
    (euclid, "solve_rational", "euclid.solve_rational", None),
    (euclid, "nerve_of_subspaces", "euclid.nerve_of_subspaces", None),
    (covers, "nerve", "covers.nerve", _nerve_simplices),
    (covers, "goodness_check", "covers.goodness_check", None),
    (covers, "assembly_bound_check", "covers.assembly_bound_check", None),
    (clumps, "maximal_clumps", "clumps.maximal_clumps", None),
    (clumps, "unfolding_space", "clumps.unfolding_space", None),
    (clumps, "unfolding_vanishing_check", "clumps.unfolding_vanishing_check", None),
    (scenarios, "generate", "scenarios.generate", None),
    (nilpotent, "hirsch_rank", "nilpotent.hirsch_rank", None),
    (nilpotent, "unitriangular_log", "nilpotent.unitriangular_log", None),
    (nilpotent, "small_central_element", "nilpotent.small_central_element", None),
] + [
    # every reader shares one metric
    (jsonio, name, "jsonio.from_json", None)
    for name in sorted(vars(jsonio)) if name.endswith("_from_json")
]

# Called too often for a span each: counted only.
COUNTS = [
    (periodic.Box, "intersect", "periodic.Box.intersect"),
    (nilpotent, "mat_mul", "nilpotent.mat_mul"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._restore: list[tuple] = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _add(self, prefix):
        counters = self.counters

        def add(field, value, keep_max=False):
            key = f"{prefix}.{field}"
            if keep_max:
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        return add

    def span(self, prefix, fn, sizer=None):
        """``fn`` wrapped to record one span per call."""
        nid = self._id(prefix)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        add = self._add(prefix)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if sizer is not None:
                sizer(args, kwargs, result, add)
            return result
        return wrapper

    def counter(self, prefix, fn):
        counters = self.counters
        key = f"{prefix}.calls"
        counters[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _stabilization_span(self, fn):
        """Counts the windows the builder is asked for and their radius."""
        add = self._add("periodic.stabilization_check")

        def counted(builder, *args, **kwargs):
            def build(w):
                add("windows", 1)
                add("max_radius", w, keep_max=True)
                return builder(w)
            return fn(build, *args, **kwargs)
        return self.span("periodic.stabilization_check", functools.wraps(fn)(counted))

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        targets = [owner]
        if not isinstance(owner, type):
            # modules that imported the object by name
            targets += [m for n, m in sys.modules.items()
                        if n.startswith("nerveforge.") and m is not owner
                        and m.__dict__.get(attr) is original]
        for t in targets:
            self._restore.append((t, attr, original))
            setattr(t, attr, wrapper)

    def install(self):
        for owner, attr, prefix, sizer in SPANS:
            original = owner.__dict__[attr]
            if prefix == "periodic.stabilization_check":
                wrapper = self._stabilization_span(original)
            else:
                wrapper = self.span(prefix, original, sizer)
            self._patch(owner, attr, wrapper)
        for owner, attr, prefix in COUNTS:
            self._patch(owner, attr, self.counter(prefix, owner.__dict__[attr]))

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, self seconds, inclusive seconds)."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(n):
            entry = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            duration = self.end[i] - self.start[i]
            entry[0] += 1
            entry[1] += duration - child[i]
            entry[2] += duration
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path):
        """Write every span as JSON: name, start, end, parent index."""
        with open(path, "w") as f:
            json.dump({
                "names": self.names,
                "spans": [[self.names[self.name[i]], self.start[i], self.end[i],
                           self.parent[i]] for i in range(len(self.name))],
            }, f, separators=(",", ":"))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """calls/self_s per span name plus the recorded counters."""
    out = dict(tracer.counters)
    times = tracer.self_times()
    for owner, attr, prefix, _ in SPANS:
        calls, self_s, total_s = times.get(prefix, (0, 0.0, 0.0))
        out[f"{prefix}.calls"] = calls
        out[f"{prefix}.self_s"] = self_s
        if prefix in INCLUSIVE:
            out[f"{prefix}.total_s"] = total_s
    out["other.self_s"] = times.get(ITEM, (0, 0.0, 0.0))[1]
    return out
