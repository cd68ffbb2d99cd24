"""Spans around the library's public functions, recorded from outside it.

`Tracer.install` wraps every public function of each layer module in
every `stabletrop` namespace that binds it (so `refine_cells`, imported
by name into `cycles`, `connectivity` and `polytopes`, is timed on every
route), plus the public methods and properties of `Polyhedron` on the
class. A span is (name, start, end, parent); spans stay in compact
arrays in memory and are written to disk by `Tracer.write` at the end.

Probes attached to a few functions count what a layer did (cells in and
pieces out of a refinement, LP outcomes, cache misses of a
representation); `span_stats` turns the spans into calls, busy time (the
union of a name's spans) and self time (busy minus child spans).
"""

import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "lattices",
    "linprog",
    "polyhedra",
    "cycles",
    "stable",
    "polytopes",
    "connectivity",
    "documents",
)


def _missing_cache(slot, counter):
    def probe(args):
        # getattr without default: a renamed slot must break the trace loudly
        missing = getattr(args[0], slot) is None

        def after(counters, result):
            counters[counter] += missing

        return after

    return probe


def _refine_probe(args):
    def after(counters, result):
        counters["polyhedra.refine_cells.cells_in"] += len(args[0])
        counters["polyhedra.refine_cells.pieces_out"] += len(result)

    return after


def _lp_probe(args):
    def after(counters, result):
        counters["linprog.feasible_point.infeasible"] += result is None

    return after


def _point_in_sum_probe(args):
    def after(counters, result):
        counters["polyhedra.point_in_sum.true"] += bool(result)

    return after


def _generic_probe(args):
    def after(counters, result):
        counters["cycles.pick_generic_vector.spans_avoided"] += result.spans_avoided

    return after


def _report_probe(args):
    def after(counters, result):
        counters["stable.contributions"] += sum(
            len(rows) for term in result.terms for rows in term.contributions
        )
        counters["stable.result_facets"] += len(result.result.cells)

    return after


PROBES = {
    "polyhedra.hrep": _missing_cache("_hrep", "polyhedra.hrep.computed"),
    "polyhedra.vrep": _missing_cache("_vrep", "polyhedra.vrep.computed"),
    "polyhedra.refine_cells": _refine_probe,
    "linprog.feasible_point": _lp_probe,
    "polyhedra.point_in_sum": _point_in_sum_probe,
    "cycles.pick_generic_vector": _generic_probe,
    "stable.stable_intersection_report": _report_probe,
}


class Tracer:
    """Records spans while installed; one thread, strictly nested calls."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters = Counter()
        self._stack = [-1]
        self._undo = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        probe = PROBES.get(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            after = probe(args) if probe is not None else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(counters, result)
            return result

        return traced

    def _rebind(self, namespaces, original, wrapper):
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
                    self._undo.append((ns, key, original))

    def install(self):
        modules = {layer: importlib.import_module(f"stabletrop.{layer}") for layer in LAYERS}
        namespaces = [
            m for key, m in list(sys.modules.items())
            if key == "stabletrop" or key.startswith("stabletrop.")
        ]
        polyhedron = modules["polyhedra"].Polyhedron
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                self._rebind(namespaces, obj, self._wrap(f"{layer}.{attr}", obj))
        for attr, raw in list(vars(polyhedron).items()):
            if attr.startswith("_"):
                continue
            name = f"polyhedra.{attr}"
            if name in self.names:
                raise RuntimeError(f"span name {name} is bound twice")
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, property):
                new = property(self._wrap(name, raw.fget))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw)
            else:
                continue
            setattr(polyhedron, attr, new)
            self._undo.append((polyhedron, attr, raw))

    def uninstall(self):
        for ns, key, original in reversed(self._undo):
            setattr(ns, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, prefix, meta):
        """Spans as <prefix>.bin (int32 names, int32 parents, float64
        starts, float64 ends, each array whole) and <prefix>.json with the
        name table, array length and meta."""
        with open(f"{prefix}.bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        header = dict(meta, spans=len(self.span_start), names=self.names)
        with open(f"{prefix}.json", "w") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)


def span_stats(tracer):
    """Per span name and per layer: calls, busy seconds, self seconds.

    Busy time counts only spans with no ancestor of the same name (same
    layer, for layers), so recursion is not counted twice.
    """
    names = tracer.names
    layer_of = [n.split(".", 1)[0] for n in names]
    layers = sorted(set(layer_of))
    layer_id = [layers.index(l) for l in layer_of]
    nm, parents = tracer.span_name, tracer.span_parent
    starts, ends = tracer.span_start, tracer.span_end
    count = len(starts)
    dur = array("d", (e - s for s, e in zip(starts, ends)))
    child = array("d", bytes(8 * count))
    for i in range(count):
        p = parents[i]
        if p >= 0:
            child[p] += dur[i]
    calls = [0] * len(names)
    busy = [0.0] * len(names)
    own = [0.0] * len(names)
    lcalls = [0] * len(layers)
    lbusy = [0.0] * len(layers)
    lown = [0.0] * len(layers)
    open_name = [0] * len(names)
    open_layer = [0] * len(layers)
    stack = []
    for i in range(count):
        p = parents[i]
        while stack and stack[-1] != p:
            j = stack.pop()
            open_name[nm[j]] -= 1
            open_layer[layer_id[nm[j]]] -= 1
        k = nm[i]
        l = layer_id[k]
        calls[k] += 1
        lcalls[l] += 1
        own[k] += dur[i] - child[i]
        lown[l] += dur[i] - child[i]
        if not open_name[k]:
            busy[k] += dur[i]
        if not open_layer[l]:
            lbusy[l] += dur[i]
        open_name[k] += 1
        open_layer[l] += 1
        stack.append(i)
    out = {name: (calls[k], busy[k], own[k]) for k, name in enumerate(names)}
    for l, layer in enumerate(layers):
        out[layer] = (lcalls[l], lbusy[l], lown[l])
    return out


def children(tracer, parent_name):
    """(name, seconds) of the direct child spans of the first span named
    parent_name, in call order; empty when there is none."""
    try:
        nid = tracer.names.index(parent_name)
        root = tracer.span_name.index(nid)
    except ValueError:
        return []
    return [
        (tracer.names[tracer.span_name[i]], tracer.span_end[i] - tracer.span_start[i])
        for i in range(root + 1, len(tracer.span_start))
        if tracer.span_parent[i] == root
    ]


# Span names that get calls, busy_s and self_s metrics. Each must be bound
# by the library: a renamed function fails the trace instead of reading 0.
TIMED = (
    "polyhedra.refine_cells",
    "cycles.is_balanced",
    "connectivity.facet_graph",
    "cycles.cycle_sum",
    "linprog.feasible_point",
    "polyhedra.point_in_sum",
    "stable.displacement_vector",
    "lattices.sum_lattices",
    "polyhedra.all_faces",
    "polyhedra.hrep",
    "polyhedra.vrep",
    "lattices.rational_to_primitive",
    "lattices.saturation",
    "stable.stable_intersection_report",
    "polytopes.tropical_hypersurface",
    "documents.cycle_to_document",
)

COUNTED = (
    "polyhedra.refine_cells.cells_in",
    "polyhedra.refine_cells.pieces_out",
    "polyhedra.hrep.computed",
    "polyhedra.vrep.computed",
    "cycles.pick_generic_vector.spans_avoided",
    "stable.contributions",
    "stable.result_facets",
)

# Direct children of disconnection_scenario, in call order, as
# (span name, stage metrics the successive calls are added to).
Q5_STAGES = (
    ("polytopes.tropical_hypersurface", ("q5.hypersurfaces_s", "q5.hypersurfaces_s")),
    ("stable.stable_power", ("q5.square1_s", "q5.square2_s")),
    ("stable.stable_intersection", ("q5.slice1_s", "q5.slice2_s")),
    ("cycles.cycle_sum", ("q5.sum_s",)),
)


def q5_stages(tracer):
    """Stage seconds of the first disconnection_scenario span, or zeros
    when the traced unit built no scenario."""
    out = {metric: 0.0 for _, metrics in Q5_STAGES for metric in metrics}
    kids = children(tracer, "connectivity.disconnection_scenario")
    if not kids:
        return out
    for name, metrics in Q5_STAGES:
        seconds = [s for n, s in kids if n == name]
        if len(seconds) != len(metrics):
            raise RuntimeError(f"disconnection_scenario made {len(seconds)} calls to {name}")
        for metric, s in zip(metrics, seconds):
            out[metric] += s
    return out


def setup_metrics(tracer, wall):
    """Metrics of preparing the traced unit's inputs: parsing the stored
    documents on q5-check, nothing of the library's elsewhere."""
    calls, busy, _ = span_stats(tracer)["documents.document_to_cycle"]
    return {
        "setup.wall_s": {"value": wall, "unit": "s"},
        "setup.documents.document_to_cycle.calls": {"value": calls, "unit": "count"},
        "setup.documents.document_to_cycle.busy_s": {"value": busy, "unit": "s"},
    }


def layer_metrics(tracer, traced_wall, untraced_wall, cpu_s):
    """Per-layer metrics of one traced unit, as {name: {value, unit}}."""
    stats = span_stats(tracer)
    counters = tracer.counters
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name in TIMED:
        if name not in stats:
            raise RuntimeError(f"the library no longer binds {name}")
        calls, busy, own = stats[name]
        put(f"{name}.calls", calls, "count")
        put(f"{name}.busy_s", busy, "s")
        put(f"{name}.self_s", own, "s")
    for name in COUNTED:
        put(name, counters[name], "count")
    lp_calls = stats["linprog.feasible_point"][0]
    put(
        "linprog.feasible_point.infeasible_ratio",
        counters["linprog.feasible_point.infeasible"] / lp_calls if lp_calls else 0.0,
        "ratio",
    )
    sum_calls = stats["polyhedra.point_in_sum"][0]
    put(
        "polyhedra.point_in_sum.true_ratio",
        counters["polyhedra.point_in_sum.true"] / sum_calls if sum_calls else 0.0,
        "ratio",
    )
    for layer in LAYERS:
        calls, busy, own = stats.get(layer, (0, 0.0, 0.0))
        put(f"{layer}.calls", calls, "count")
        put(f"{layer}.busy_s", busy, "s")
        put(f"{layer}.self_s", own, "s")
    for name, seconds in q5_stages(tracer).items():
        put(name, seconds, "s")
    put("process.cpu_s", cpu_s, "s")
    put("trace.wall_s", traced_wall, "s")
    put("trace.spans", len(tracer.span_start), "count")
    put("trace.overhead_ratio", traced_wall / untraced_wall, "ratio")
    return out
