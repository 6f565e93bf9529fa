"""Finite geometric graphs: box-restricted unit-distance graphs, Cayley
graphs on half dual lattices, and the hexagon pattern graph.

Vertices are stored as scaled integer tuples (one denominator per graph,
the family's scale) and adjacency as per-vertex bitmasks, so every distance
test is pure integer arithmetic.  Unit-distance edges come from one bitset
kernel on the gauge's integer system; a pair-by-pair scan is its oracle
in the tests.  Unit-distance graphs are capped at
MAX_UNIT_DISTANCE_VERTICES vertices, checked before anything is allocated.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Optional, Sequence

from .constructions import GaugeNorm, HexagonPattern, polytope_an, polytope_cube, polytope_dn
from .geometry import (
    Vec,
    an_half_dual_scale,
    count_an_half_dual_scaled,
    count_dn_half_dual_scaled,
    dn_half_dual_scale,
    enumerate_an_half_dual_scaled,
    enumerate_dn_half_dual_scaled,
    from_scaled,
    to_scaled,
)


@dataclass(frozen=True)
class UnitDistanceRule:
    gauge: GaugeNorm
    name: str = "unit-distance"


@dataclass(frozen=True)
class CayleyRule:
    generators: tuple  # scaled integer tuples
    name: str = "cayley"


@dataclass(frozen=True)
class HexPatternRule:
    pattern: HexagonPattern
    name: str = "hex-pattern"


@dataclass(frozen=True)
class LineRule:
    name: str


class GeometricGraph:
    """Finite vertex list + bitset adjacency + the rule that generated edges.

    ``points`` are scaled integers sorted lexicographically; ``scale`` is the
    common denominator; ``box_radius`` and ``step_extent`` carry the margin
    metadata (a vertex has its full k-step neighborhood present whenever all
    its coordinates are within box_radius - k*step_extent).
    """

    def __init__(
        self,
        scale: int,
        points: Sequence[tuple],
        adj: Sequence[int],
        rule,
        box_radius: Optional[Fraction] = None,
        step_extent: Optional[Fraction] = None,
        tags: Optional[Sequence[str]] = None,
    ):
        self.scale = scale
        self.points = list(points)
        self.adj = list(adj)
        self.rule = rule
        self.box_radius = box_radius
        self.step_extent = step_extent
        self.tags = list(tags) if tags is not None else None
        self.index = {p: i for i, p in enumerate(self.points)}

    @property
    def n(self) -> int:
        return len(self.points)

    def coords(self, i: int) -> Vec:
        return from_scaled(self.points[i], self.scale)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def neighbors(self, i: int) -> list:
        return _bits(self.adj[i])

    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(self.n)) // 2

    def edges(self):
        for i in range(self.n):
            for j in _bits(self.adj[i]):
                if j > i:
                    yield i, j

    def find_scaled(self, t: tuple) -> Optional[int]:
        return self.index.get(t)

    def find(self, v: Vec) -> Optional[int]:
        try:
            return self.index.get(to_scaled(v, self.scale))
        except ValueError:
            return None

    def interior_bound_scaled(self, k: int) -> Fraction:
        if self.box_radius is None or self.step_extent is None:
            raise ValueError("graph carries no box metadata")
        return (self.box_radius - k * self.step_extent) * self.scale

    def is_interior(self, i: int, k: int = 1) -> bool:
        bound = self.interior_bound_scaled(k)
        return all(abs(c) <= bound for c in self.points[i])

    def interior_indices(self, k: int = 1) -> list:
        bound = self.interior_bound_scaled(k)
        return [i for i, p in enumerate(self.points) if all(abs(c) <= bound for c in p)]

    def class_mask(self, tag: str) -> int:
        if self.tags is None:
            raise ValueError("graph carries no class tags")
        m = 0
        for i, t in enumerate(self.tags):
            if t == tag:
                m |= 1 << i
        return m


def _bits(mask: int) -> list:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


# ---------------------------------------------------------------------------
# Edge scans

# Largest vertex count a unit-distance graph may have: its adjacency can be
# complete (the cube), and 2^14 bitmasks of 2^14 bits take 32 MiB.
MAX_UNIT_DISTANCE_VERTICES = 1 << 14


def _check_unit_distance_size(count: int) -> None:
    if count > MAX_UNIT_DISTANCE_VERTICES:
        raise ValueError(
            f"unit-distance graph of {count} vertices exceeds the limit of "
            f"{MAX_UNIT_DISTANCE_VERTICES}"
        )


def _unit_edges(points: Sequence[tuple], rows, thresholds) -> list:
    """Adjacency bitmasks: j ~ i iff A(p_i - p_j) <= T with at least one
    equality.

    Row by row, with v_j = a.p_j, the condition a.(p_i - p_j) <= t reads
    v_j >= v_i - t and its equality v_j = v_i - t; both are read off one
    bitmask per value (the equality) and their suffix unions (the bound).
    """
    n = len(points)
    within = [(1 << n) - 1] * n
    on_face = [0] * n
    for a, t in zip(rows, thresholds):
        vals = [sum(map(mul, a, p)) for p in points]
        at = {}
        for j, v in enumerate(vals):
            at[v] = at.get(v, 0) | (1 << j)
        keys = sorted(at)
        suffix = [0] * (len(keys) + 1)
        for k in range(len(keys) - 1, -1, -1):
            suffix[k] = suffix[k + 1] | at[keys[k]]
        for i, v in enumerate(vals):
            within[i] &= suffix[bisect_left(keys, v - t)]
            on_face[i] |= at.get(v - t, 0)
    return [w & f for w, f in zip(within, on_face)]


def build_unit_distance_graph(
    scale: int,
    points: Iterable[tuple],
    gauge: GaugeNorm,
    box_radius: Optional[Fraction] = None,
    step_extent: Optional[Fraction] = None,
) -> GeometricGraph:
    """Graph on the given scaled integer points (coordinates times
    ``scale``) with edges at gauge distance exactly 1.

    ``step_extent`` should be the per-coordinate extent of the unit ball
    (max |v_i| over the cell's vertices) when margin metadata is needed.
    Raises ValueError above MAX_UNIT_DISTANCE_VERTICES distinct points.
    """
    pts = sorted(set(points))
    _check_unit_distance_size(len(pts))
    rows, thresholds = gauge.integer_system(scale)
    return GeometricGraph(
        scale,
        pts,
        _unit_edges(pts, rows, thresholds),
        UnitDistanceRule(gauge),
        box_radius=box_radius,
        step_extent=step_extent,
    )


def build_cayley_graph(
    scale: int,
    points: Sequence[tuple],
    generators: Sequence[tuple],
    box_radius: Fraction,
    rule_name: str = "cayley",
) -> GeometricGraph:
    """Cayley graph on scaled integer points: i ~ j iff p_i - p_j is a generator.

    The generator set must be closed under negation.
    """
    gens = sorted(set(generators))
    for g in gens:
        if tuple(-c for c in g) not in gens:
            raise ValueError("generator set not symmetric")
    pts = sorted(set(points))
    index = {p: i for i, p in enumerate(pts)}
    # the generators are symmetric, so scanning each vertex's own
    # generators finds every edge from both ends
    steps = [g for g in gens if any(g)]
    adj = []
    for p in pts:
        m = 0
        for g in steps:
            j = index.get(tuple(map(add, p, g)))
            if j is not None:
                m |= 1 << j
        adj.append(m)
    ext = max(Fraction(abs(c), scale) for g in gens for c in g)
    return GeometricGraph(
        scale,
        pts,
        adj,
        CayleyRule(tuple(gens), rule_name),
        box_radius=Fraction(box_radius),
        step_extent=ext,
    )


# ---------------------------------------------------------------------------
# Family-level constructions


def an_generators_scaled(n: int) -> list:
    """Scaled coordinates of (1/2)V_P for the A_n cell (scale 2(n+1))."""
    from itertools import product as _product

    out = []
    m = n + 1
    for u in _product((0, 1), repeat=m):
        w = sum(u)
        if 0 < w < m:
            out.append(tuple(m * ui - w for ui in u))
    return sorted(out)


def dn_generators_scaled(n: int) -> list:
    """Scaled coordinates of (1/2)V_P for the D_n cell (scale 4)."""
    from itertools import product as _product

    out = []
    for i in range(n):
        for s in (2, -2):
            g = [0] * n
            g[i] = s
            out.append(tuple(g))
    out.extend(_product((1, -1), repeat=n))
    return sorted(out)


def an_cayley_graph(n: int, radius) -> GeometricGraph:
    radius = Fraction(radius)
    scale = an_half_dual_scale(n)
    pts = enumerate_an_half_dual_scaled(n, radius)
    return build_cayley_graph(scale, pts, an_generators_scaled(n), radius, "an-cayley")


def dn_cayley_graph(n: int, radius) -> GeometricGraph:
    radius = Fraction(radius)
    scale = dn_half_dual_scale(n)
    pts = enumerate_dn_half_dual_scaled(n, radius)
    return build_cayley_graph(scale, pts, dn_generators_scaled(n), radius, "dn-cayley")


def an_unit_distance_graph(n: int, radius) -> GeometricGraph:
    """Box-restricted subgraph of the unit-distance graph on (1/2)A_n^#."""
    radius = Fraction(radius)
    _check_unit_distance_size(count_an_half_dual_scaled(n, radius))
    data = polytope_an(n)
    pts = enumerate_an_half_dual_scaled(n, radius)
    return build_unit_distance_graph(
        an_half_dual_scale(n), pts, data.gauge, box_radius=radius, step_extent=data.vertex_extent()
    )


def dn_unit_distance_graph(n: int, radius) -> GeometricGraph:
    radius = Fraction(radius)
    _check_unit_distance_size(count_dn_half_dual_scaled(n, radius))
    data = polytope_dn(n)
    pts = enumerate_dn_half_dual_scaled(n, radius)
    return build_unit_distance_graph(
        dn_half_dual_scale(n), pts, data.gauge, box_radius=radius, step_extent=data.vertex_extent()
    )


def cube_graph(n: int) -> GeometricGraph:
    """The 0/1 cube under the sup norm; complete by construction."""
    from itertools import product as _product

    _check_unit_distance_size(2**n)
    data = polytope_cube(n)
    return build_unit_distance_graph(1, _product((0, 1), repeat=n), data.gauge)


def hex_step_extent(pattern: HexagonPattern) -> Fraction:
    """Max per-coordinate displacement along one pattern-graph edge."""
    disp = list(pattern.s)
    for i in range(6):
        disp.append(pattern.s[(i + 1) % 6] - pattern.s[i])
    return max(d.max_abs() for d in disp)


def hex_pattern_graph(pattern: HexagonPattern, radius) -> GeometricGraph:
    """The auxiliary graph of the planar pipeline, with class tags.

    Vertices: ((1/2)L + {0, v0, v1}) within the box.  Edges (a, a+s_i) and
    (a+s_i, a+s_{i+1}) for every a in (1/2)L of an expanded box, so that the
    result is exactly the induced subgraph of the infinite pattern graph.
    """
    radius = Fraction(radius)
    scale = pattern.scale()
    b0h, b1h = pattern.a_generators()
    s_scaled = [to_scaled(si, scale) for si in pattern.s]
    step_ext = hex_step_extent(pattern)

    pts, tags = _hex_vertices(pattern, radius)
    index = {p: i for i, p in enumerate(pts)}
    adj = [0] * len(pts)

    def add_edge(t1, t2):
        i, j = index.get(t1), index.get(t2)
        if i is not None and j is not None and i != j:
            adj[i] |= 1 << j
            adj[j] |= 1 << i

    for a in _coset_in_box(b0h, b1h, Vec([0, 0]), radius + step_ext):
        ta = to_scaled(a, scale)
        for i in range(6):
            t1 = tuple(x + y for x, y in zip(ta, s_scaled[i]))
            t2 = tuple(x + y for x, y in zip(ta, s_scaled[(i + 1) % 6]))
            add_edge(ta, t1)
            add_edge(t1, t2)

    return GeometricGraph(
        scale,
        pts,
        adj,
        HexPatternRule(pattern),
        box_radius=radius,
        step_extent=step_ext,
        tags=[tags[p] for p in pts],
    )


def _hex_vertices(pattern: HexagonPattern, radius: Fraction):
    """Scaled vertex tuples of ((1/2)L + {0, v0, v1}) in the box, sorted,
    with their class tags."""
    scale = pattern.scale()
    b0h, b1h = pattern.a_generators()
    offsets = (Vec([0, 0]),) + pattern.class_b_offsets()
    tags = {}
    for off, tg in zip(offsets, ("A", "B", "B")):
        for p in _coset_in_box(b0h, b1h, off, radius):
            tags[to_scaled(p, scale)] = tg
    return sorted(tags), tags


def hex_unit_distance_graph(pattern: HexagonPattern, radius) -> GeometricGraph:
    """Box subgraph of the unit-distance graph on the pattern's vertex set."""
    radius = Fraction(radius)
    pts, tags = _hex_vertices(pattern, radius)
    ext = max(v.max_abs() for v in pattern.v)
    g = build_unit_distance_graph(pattern.scale(), pts, pattern.gauge, box_radius=radius, step_extent=ext)
    g.tags = [tags[p] for p in g.points]
    return g


def _coset_in_box(b0: Vec, b1: Vec, offset: Vec, radius: Fraction) -> list:
    """Points offset + c0*b0 + c1*b1 with both coordinates in [-radius, radius]."""
    det = b0[0] * b1[1] - b0[1] * b1[0]
    r0 = (radius + offset.max_abs()) * (abs(b1[0]) + abs(b1[1])) / abs(det)
    r1 = (radius + offset.max_abs()) * (abs(b0[0]) + abs(b0[1])) / abs(det)
    out = []
    for c0 in range(-math.floor(r0), math.floor(r0) + 1):
        for c1 in range(-math.floor(r1), math.floor(r1) + 1):
            p = offset + b0 * c0 + b1 * c1
            if p.max_abs() <= radius:
                out.append(p)
    return out


# ---------------------------------------------------------------------------
# Distance-2 machinery and Property D


def two_step_candidates(g: GeometricGraph, u: int) -> int:
    """Bitmask of vertices at graph distance exactly 2 from u."""
    reach = 0
    for v in g.neighbors(u):
        reach |= g.adj[v]
    reach &= ~g.adj[u]
    reach &= ~(1 << u)
    return reach


def graph_distance_2_pairs(g: GeometricGraph, interior_k: int = 2):
    """All unordered pairs at graph distance 2 with at least one interior
    endpoint, with their common neighbor sets; deterministic order."""
    interior = set(g.interior_indices(interior_k))
    for u in sorted(interior):
        for w in _bits(two_step_candidates(g, u)):
            if w in interior and w < u:
                continue
            common = _bits(g.adj[u] & g.adj[w])
            yield u, w, common


@dataclass
class PropertyDViolation:
    u: Vec
    w: Vec
    graph_distance: int
    gauge_value: Fraction


@dataclass
class PropertyDReport:
    mode: str
    checked_pairs: int
    interior_vertices: int
    violations: list

    @property
    def holds(self) -> bool:
        return not self.violations


def check_property_d(g: GeometricGraph, gauge: GaugeNorm, mode: str = "strong") -> PropertyDReport:
    """Distance-2 pairs must be at gauge distance exactly 1.

    strong: every pair at graph distance 2 (at least one endpoint interior).
    weak: only pairs sharing a common neighbor tagged B.
    Violations are data, not errors.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    is_unit = gauge.unit_checker(g.scale)
    b_mask = g.class_mask("B") if mode == "weak" else None
    interior = set(g.interior_indices(2))
    checked = 0
    violations = []
    for u in sorted(interior):
        if mode == "strong":
            cand = two_step_candidates(g, u)
        else:
            reach = 0
            for z in _bits(g.adj[u] & b_mask):
                reach |= g.adj[z]
            cand = reach & ~g.adj[u] & ~(1 << u)
        pu = g.points[u]
        for w in _bits(cand):
            if w in interior and w < u:
                continue
            checked += 1
            d = tuple(a - b for a, b in zip(pu, g.points[w]))
            if not is_unit(d):
                violations.append(
                    PropertyDViolation(g.coords(u), g.coords(w), 2, gauge.value_scaled(d, g.scale))
                )
    violations.sort(key=lambda v: (v.u, v.w))
    return PropertyDReport(mode, checked, len(interior), violations)


# ---------------------------------------------------------------------------
# Export


def write_edge_list(g: GeometricGraph, fh) -> None:
    """Plain-text edge list: one edge per line, two vertices separated by a
    space, coordinates as exact fractions p/q joined by commas."""

    def fmt(i):
        return ",".join(f"{c.numerator}/{c.denominator}" for c in g.coords(i))

    for i, j in g.edges():
        fh.write(f"{fmt(i)} {fmt(j)}\n")
