"""Per-layer spans for a traced benchmark pass, recorded from outside the
package.

`Tracer.install` replaces every public module-level function of each
`voronorm` layer (and the methods in `METHODS`) with a wrapper that records
a span, wherever the function is bound: its own module, modules that imported
it by name, and the package namespace.  Nothing under `src/` changes.

Self time of a span is its duration minus the durations of the spans nested
in it.  Code that is not wrapped (private helpers, `Vec` arithmetic, gauge
closures) is charged to the innermost wrapped caller, so a layer's self time
is the time spent in that layer's public entry points and whatever they run
that no other public entry point covers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("geometry", "constructions", "graphs", "density", "independence", "coloring", "reports", "cli")

# public methods worth a span of their own (hot, and named by a metric)
METHODS = {"constructions": (("GaugeNorm", "value"),)}

_GRAPH_BUILDERS = (
    "build_unit_distance_graph", "build_cayley_graph", "an_cayley_graph", "dn_cayley_graph",
    "an_unit_distance_graph", "dn_unit_distance_graph", "cube_graph", "hex_pattern_graph",
    "hex_unit_distance_graph",
)

# metric group -> the functions whose outermost calls it times
GROUPS = {
    "geometry.closest_points": ("geometry.closest_lattice_points",),
    "geometry.enumerate": ("geometry.enumerate_an_half_dual_scaled", "geometry.enumerate_dn_half_dual_scaled"),
    "constructions.gauge_value": ("constructions.GaugeNorm.value",),
    "constructions.polytope": ("constructions.polytope_an", "constructions.polytope_dn", "constructions.polytope_cube"),
    "graphs.build": tuple(f"graphs.{f}" for f in _GRAPH_BUILDERS),
    "graphs.property_d": ("graphs.check_property_d",),
    "density.neighborhood_count": ("density.an_brute_neighborhood_counts", "density.dn_brute_neighborhood_counts"),
    "density.hexagon": ("density.verify_hexagon_bound",),
    "independence.mis": ("independence.max_independent_set",),
    "coloring.color": ("coloring.color",),
    "coloring.coset_index": ("coloring.coset_index",),
    "coloring.nearest_center": ("coloring.nearest_half_cell_center",),
    "coloring.witness": ("coloring.chromatic_witness_search",),
    "reports.serialize": ("reports.*",),
    "cli.main": ("cli.main",),
}


def _count_len(key):
    def hook(counts, result):
        counts[key] += len(result)
    return hook


def _count_graph(counts, g):
    counts["graphs.vertices"] += g.n
    counts["graphs.edges"] += g.edge_count()


def _count_pairs(counts, rep):
    counts["graphs.property_d_pairs"] += rep.checked_pairs


def _count_nodes(counts, res):
    counts["independence.mis_nodes"] += res.nodes


# group -> counter hook, run on the result of each outermost call
HOOKS = {
    "geometry.closest_points": _count_len("geometry.tie_points"),
    "geometry.enumerate": _count_len("geometry.enumerated_points"),
    "graphs.build": _count_graph,
    "graphs.property_d": _count_pairs,
    "independence.mis": _count_nodes,
}


def _group_of(qualname: str):
    layer = qualname.split(".", 1)[0]
    for group, members in GROUPS.items():
        if qualname in members or f"{layer}.*" in members:
            return group
    return None


class Tracer:
    """Span recorder; one per traced process, kept in memory until the end."""

    def __init__(self):
        self._stack = []  # open spans: [qualname, nested_ns]
        self.layer_self_ns = dict.fromkeys(LAYERS, 0)
        self.group_ns = defaultdict(int)
        self.group_calls = defaultdict(int)
        self._group_depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = 0
        # (caller, callee) -> [calls, total_ns, self_ns]; caller "" is the benchmark
        self.edges = defaultdict(lambda: [0, 0, 0])

    def _wrap(self, fn, qualname: str, layer: str):
        group = _group_of(qualname)
        hook = HOOKS.get(group)
        stack, depth, perf = self._stack, self._group_depth, time.perf_counter_ns

        def traced(*args, **kwargs):
            outermost = group is not None and depth[group] == 0
            if group is not None:
                depth[group] += 1
            caller = stack[-1][0] if stack else ""
            frame = [qualname, 0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                self_ns = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self.spans += 1
                self.layer_self_ns[layer] += self_ns
                edge = self.edges[(caller, qualname)]
                edge[0] += 1
                edge[1] += duration
                edge[2] += self_ns
                if group is not None:
                    depth[group] -= 1
                    if outermost:
                        self.group_ns[group] += duration
                        self.group_calls[group] += 1
            if outermost and hook is not None:
                t0 = perf()
                hook(self.counts, result)
                if stack:  # counting is tracer work, not the caller's
                    stack[-1][1] += perf() - t0
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap the public functions of every layer; `voronorm.cli` (and so
        every layer) must already be imported."""
        package = [m for name, m in sys.modules.items() if name == "voronorm" or name.startswith("voronorm.")]
        for layer in LAYERS:
            mod = sys.modules[f"voronorm.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                traced = self._wrap(obj, f"{layer}.{attr}", layer)
                for m in package:
                    for name, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, name, traced)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), f"{layer}.{cls_name}.{meth}", layer))

    def metrics(self) -> dict:
        """Per-layer metric values (seconds, counts, rates) of this process."""
        sec = {g: self.group_ns[g] / 1e9 for g in GROUPS}
        calls = self.group_calls
        c = self.counts
        m = {
            "geometry.closest_points_calls": calls["geometry.closest_points"],
            "geometry.closest_points_s": sec["geometry.closest_points"],
            "geometry.tie_points": c["geometry.tie_points"],
            "geometry.enumerate_s": sec["geometry.enumerate"],
            "geometry.enumerated_points": c["geometry.enumerated_points"],
            "constructions.gauge_value_calls": calls["constructions.gauge_value"],
            "constructions.gauge_value_s": sec["constructions.gauge_value"],
            "constructions.polytope_s": sec["constructions.polytope"],
            "graphs.build_s": sec["graphs.build"],
            "graphs.vertices": c["graphs.vertices"],
            "graphs.edges": c["graphs.edges"],
            "graphs.property_d_s": sec["graphs.property_d"],
            "graphs.property_d_pairs": c["graphs.property_d_pairs"],
            "density.neighborhood_count_s": sec["density.neighborhood_count"],
            "density.hexagon_s": sec["density.hexagon"],
            "independence.mis_calls": calls["independence.mis"],
            "independence.mis_nodes": c["independence.mis_nodes"],
            "independence.mis_s": sec["independence.mis"],
            "independence.mis_nodes_per_s": _rate(c["independence.mis_nodes"], sec["independence.mis"]),
            "coloring.color_calls": calls["coloring.color"],
            "coloring.color_s": sec["coloring.color"],
            "coloring.color_per_s": _rate(calls["coloring.color"], sec["coloring.color"]),
            "coloring.coset_index_s": sec["coloring.coset_index"],
            "coloring.nearest_center_s": sec["coloring.nearest_center"],
            "coloring.witness_s": sec["coloring.witness"],
            "reports.serialize_s": sec["reports.serialize"],
            "cli.main_s": sec["cli.main"],
            "trace.spans": self.spans,
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self_ns[layer] / 1e9
        return m

    def span_table(self) -> list:
        """Aggregated spans, one row per (caller, callee), slowest first."""
        rows = [
            {"caller": caller, "callee": callee, "calls": n, "total_s": tot / 1e9, "self_s": own / 1e9}
            for (caller, callee), (n, tot, own) in self.edges.items()
        ]
        rows.sort(key=lambda r: -r["total_s"])
        return rows


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0
