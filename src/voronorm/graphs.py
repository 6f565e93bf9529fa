"""Finite geometric graphs: box-restricted unit-distance graphs and the
hexagon pattern graph, and Property D (graph distance 2 forces gauge
distance 1) on them and on the Cayley graphs of the half dual lattices.
The pattern graph's edges are read off ``HexagonPattern.steps`` (a ring
sweep over an enlarged box is its oracle in the tests).

Vertices are stored as scaled integer tuples (one denominator per graph,
the family's scale) and adjacency as per-vertex bitmasks, so every distance
test is pure integer arithmetic.  Unit-distance edges come from one bitset
kernel on the gauge's integer rows and level; a pair-by-pair scan is its
oracle in the tests.  The A_n / D_n Cayley graphs are never built: their
Property D check tests each distinct distance-2 difference once and counts
pairs on the interior points (the built graph is its oracle in the tests).
Unit-distance graphs are capped at MAX_UNIT_DISTANCE_VERTICES vertices and
the Cayley boxes and the hexagon pattern graph at MAX_CAYLEY_VERTICES,
checked before anything is allocated.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from operator import add, mul, sub
from typing import Callable, Iterable, Optional, Sequence

from .constructions import (
    CertificateError,
    GaugeNorm,
    HexagonPattern,
    an_vertices_scaled,
    dn_vertices_scaled,
    gauge_an,
    gauge_dn,
    polytope_an,
    row_values,
)
from .geometry import (
    Vec,
    an_half_dual_scale,
    count_an_half_dual_scaled,
    count_dn_half_dual_scaled,
    count_planar_coset_in_box,
    dn_half_dual_scale,
    enumerate_an_half_dual_scaled,
    enumerate_dn_half_dual_scaled,
    from_scaled,
    planar_coset_in_box,
)


class GeometricGraph:
    """Finite vertex list + bitset adjacency.

    ``points`` are scaled integers sorted lexicographically; ``scale`` is the
    common denominator; ``box_radius`` and ``step_extent`` carry the margin
    metadata (a vertex has its full k-step neighborhood present whenever all
    its coordinates are within box_radius - k*step_extent).  ``symmetries``
    are vertex-index lists (vertex i maps to vertex symmetries[k][i]) that
    generate a group of automorphisms; the MIS search checks each one and
    branches on its orbits.
    """

    def __init__(
        self,
        scale: int,
        points: Sequence[tuple],
        adj: Sequence[int],
        box_radius: Optional[Fraction] = None,
        step_extent: Optional[Fraction] = None,
        tags: Optional[Sequence[str]] = None,
        symmetries: Sequence[Sequence[int]] = (),
    ):
        self.scale = scale
        self.points = list(points)
        self.adj = list(adj)
        self.box_radius = box_radius
        self.step_extent = step_extent
        self.tags = list(tags) if tags is not None else None
        self.symmetries = [list(s) for s in symmetries]
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

    def interior_bound_scaled(self, k: int) -> int:
        """The k-step margin at ``scale``, floored: integers compare to it exactly."""
        if self.box_radius is None or self.step_extent is None:
            raise ValueError("graph carries no box metadata")
        return math.floor((self.box_radius - k * self.step_extent) * self.scale)

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

# Largest vertex count a unit-distance graph may have: 2^14 bitmasks of
# 2^14 bits would take 32 MiB were the adjacency complete.  The cube
# certificate builds no graph (it checks the complete graph by orbits) but
# keeps this cap on its 2^n points as its accepted input range.
MAX_UNIT_DISTANCE_VERTICES = 1 << 14

# Largest box of an A_n / D_n Cayley graph: 2^16 points admit A_5 and D_5
# at radius 3/2 (29,917 and 24,583) and refuse A_6 and D_6 (196,645 and
# 164,305).  The hexagon pattern graph has degree at most 6 and shares the
# cap.
MAX_CAYLEY_VERTICES = 1 << 16


def _check_size(count: int, limit: int = MAX_UNIT_DISTANCE_VERTICES, kind: str = "unit-distance") -> None:
    if count > limit:
        raise ValueError(f"{kind} graph of {count} vertices exceeds the limit of {limit}")


def _unit_edges(points: Sequence[tuple], rows, t: int) -> list:
    """Adjacency bitmasks: j ~ i iff a.(p_i - p_j) <= t for every row a,
    with at least one equality.

    Row by row, with v_j = a.p_j, the condition a.(p_i - p_j) <= t reads
    v_j >= v_i - t and its equality v_j = v_i - t; both are read off one
    bitmask per value (the equality) and their suffix unions (the bound),
    resolved once per distinct value.
    """
    n = len(points)
    within = [(1 << n) - 1] * n
    on_face = [0] * n
    for vals in row_values(rows, points):
        at = {}
        for j, v in enumerate(vals):
            at[v] = at.get(v, 0) | (1 << j)
        keys = sorted(at)
        suffix = [0] * (len(keys) + 1)
        for k in range(len(keys) - 1, -1, -1):
            suffix[k] = suffix[k + 1] | at[keys[k]]
        bound = {v: suffix[bisect_left(keys, v - t)] for v in keys}
        face = {v: at.get(v - t, 0) for v in keys}
        for i, v in enumerate(vals):
            within[i] &= bound[v]
            on_face[i] |= face[v]
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
    _check_size(len(pts))
    return GeometricGraph(
        scale,
        pts,
        _unit_edges(pts, gauge.rows, gauge.level * scale),
        box_radius=box_radius,
        step_extent=step_extent,
    )


# ---------------------------------------------------------------------------
# Family-level constructions


def an_unit_distance_graph(n: int, radius) -> GeometricGraph:
    """Box-restricted subgraph of the unit-distance graph on (1/2)A_n^#."""
    radius = Fraction(radius)
    _check_size(count_an_half_dual_scaled(n, radius))
    data = polytope_an(n)
    pts = enumerate_an_half_dual_scaled(n, radius)
    g = build_unit_distance_graph(
        an_half_dual_scale(n), pts, data.gauge, box_radius=radius, step_extent=data.vertex_extent()
    )
    # generators of the point group S_{n+1} x {+-1}: the swap of coordinates
    # 0 and 1, the (n+1)-cycle and negation; each maps the box, the lattice
    # and the gauge onto themselves
    maps = (lambda p: (p[1], p[0]) + p[2:], lambda p: p[1:] + p[:1], lambda p: tuple(-c for c in p))
    g.symmetries = [[g.index[f(p)] for p in g.points] for f in maps]
    return g


def hex_step_extent(pattern: HexagonPattern) -> Fraction:
    """Max per-coordinate displacement along one pattern-graph edge: the
    largest coordinate of a step of ``pattern.steps``."""
    return Fraction(max(abs(x) for row in pattern.steps for d, _ in row for x in d), pattern.scale())


def hex_pattern_graph(pattern: HexagonPattern, radius) -> GeometricGraph:
    """The auxiliary graph of the planar pipeline, with class tags.

    Vertices: ((1/2)L + {0, v0, v1}) within the box.  Each vertex is joined
    to the box points its coset's ``pattern.steps`` reach, so the result is
    exactly the induced subgraph of the infinite pattern graph.  All points
    are integer tuples at ``pattern.scale()``.  Raises ValueError above
    MAX_CAYLEY_VERTICES vertices.
    """
    radius = Fraction(radius)
    _check_size(_hex_vertex_count(pattern, radius), MAX_CAYLEY_VERTICES, "pattern")
    pts, cosets = _hex_vertices(pattern, radius)
    bit = {p: 1 << i for i, p in enumerate(pts)}
    adj = []
    for p in pts:
        m = 0
        for d, _ in pattern.steps[cosets[p]]:
            m |= bit.get((p[0] + d[0], p[1] + d[1]), 0)
        adj.append(m)
    tags = ["ABB"[cosets[p]] for p in pts]
    return GeometricGraph(pattern.scale(), pts, adj, radius, hex_step_extent(pattern), tags)


def _hex_vertex_count(pattern: HexagonPattern, radius: Fraction) -> int:
    """len(_hex_vertices(pattern, radius)[0]), without enumerating: the three
    cosets are disjoint (the pattern checks it), so their counts add up."""
    p, q = pattern.half_basis_scaled
    bound = radius * pattern.scale()
    return sum(count_planar_coset_in_box(p, q, o, bound) for o in pattern.coset_offsets_scaled)


def _hex_vertices(pattern: HexagonPattern, radius: Fraction):
    """Scaled vertex tuples of ((1/2)L + {0, v0, v1}) in the box, sorted,
    with their cosets, numbered as in ``pattern.steps``."""
    bound = radius * pattern.scale()
    cosets = {}
    for c, off in enumerate(pattern.coset_offsets_scaled):
        for p in planar_coset_in_box(*pattern.half_basis_scaled, off, bound):
            cosets[p] = c
    return sorted(cosets), cosets


def hex_unit_distance_graph(pattern: HexagonPattern, radius) -> GeometricGraph:
    """Box subgraph of the unit-distance graph on the pattern's vertex set;
    raises ValueError above MAX_UNIT_DISTANCE_VERTICES vertices."""
    radius = Fraction(radius)
    _check_size(_hex_vertex_count(pattern, radius))
    pts, cosets = _hex_vertices(pattern, radius)
    ext = pattern.cell.vertex_extent()
    g = build_unit_distance_graph(pattern.scale(), pts, pattern.gauge, box_radius=radius, step_extent=ext)
    g.tags = ["ABB"[cosets[p]] for p in g.points]
    return g


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


class PropertyDViolation:
    def __init__(self, u: Vec, w: Vec, graph_distance: int, gauge_value: Fraction):
        self.u, self.w, self.graph_distance, self.gauge_value = u, w, graph_distance, gauge_value

    def __eq__(self, other):
        return type(other) is PropertyDViolation and vars(self) == vars(other)


class PropertyDReport:
    def __init__(self, mode: str, checked_pairs: int, interior_vertices: int, violations: list):
        self.mode, self.checked_pairs = mode, checked_pairs
        self.interior_vertices, self.violations = interior_vertices, violations

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


def an_property_d(n: int, radius) -> PropertyDReport:
    """Strong Property D of the box Cayley graph on (1/2)A_n^# generated by
    (1/2)V_P; raises ValueError above MAX_CAYLEY_VERTICES box points."""
    radius = Fraction(radius)
    _check_size(count_an_half_dual_scaled(n, radius), MAX_CAYLEY_VERTICES, "Cayley")
    # the cell vertices at scale n+1 are (1/2)V_P at the lattice's scale 2(n+1)
    return _cayley_property_d(
        an_half_dual_scale(n), an_vertices_scaled(n), gauge_an(n), radius,
        lambda r: enumerate_an_half_dual_scaled(n, r),
    )


def dn_property_d(n: int, radius) -> PropertyDReport:
    """Strong Property D of the box Cayley graph on (1/2)D_n^# generated by
    (1/2)V_P; raises ValueError above MAX_CAYLEY_VERTICES box points."""
    radius = Fraction(radius)
    _check_size(count_dn_half_dual_scaled(n, radius), MAX_CAYLEY_VERTICES, "Cayley")
    # the cell vertices at scale 2 are (1/2)V_P at the lattice's scale 4
    return _cayley_property_d(
        dn_half_dual_scale(n), dn_vertices_scaled(n), gauge_dn(n), radius,
        lambda r: enumerate_dn_half_dual_scaled(n, r),
    )


def linear_key(xs, ys) -> Callable:
    """The key sum_i p_i (2r + 1)^i of an integer tuple p, with r the largest
    |x_i| over xs plus the largest |y_i| over ys: linear, and one-to-one on
    the tuples x + y and x - y for x in xs and y in ys."""
    reach = max((abs(c) for x in xs for c in x), default=0) + max(abs(c) for y in ys for c in y)
    powers = [(2 * reach + 1) ** i for i in range(len(ys[0]))]
    return lambda p: sum(map(mul, p, powers))


def _cayley_property_d(scale: int, generators, gauge: GaugeNorm, radius: Fraction, lattice_box) -> PropertyDReport:
    """check_property_d(g, gauge, "strong") for g the Cayley graph (i ~ j iff
    p_i - p_j is a generator) on the lattice points with every coordinate
    within radius, without building g.

    lattice_box(r) lists the scaled lattice points with every coordinate
    within r, sorted.  The group is abelian, so a vertex u within
    radius - 2*ext (ext the generators' largest coordinate) has both steps
    of every 2-walk in the box and exactly u - D2 at graph distance 2,
    D2 = (S+S) minus S and 0: each d in D2 is tested once.  Raises
    ValueError if the generators are not closed under negation and
    CertificateError if one is not a lattice point (the box would then miss
    some u - d).
    """
    gens = set(generators)
    if any(tuple(-c for c in g) not in gens for g in gens):
        raise ValueError("generator set not symmetric")
    ext = Fraction(max(abs(c) for g in gens for c in g), scale)
    off = sorted(gens.difference(lattice_box(ext)))
    if off:
        raise CertificateError(f"generator {off[0]} is not a point of the lattice")
    d2 = sorted(d for d in {tuple(map(add, a, b)) for a in gens for b in gens} - gens if any(d))
    is_unit = gauge.unit_checker(scale)
    failing = [d for d in d2 if not is_unit(d)]
    inner = radius - 2 * ext
    interior = lattice_box(inner) if inner >= 0 else []
    # the key is one-to-one on every u and u - d, so u - d is interior iff
    # key(u) - key(d) is an interior key
    key = linear_key(interior, d2)
    keys = [key(u) for u in interior]
    inside = set(keys)
    # as in check_property_d, a pair of two interior points is checked from
    # its larger end only: u - d < u iff d is positive in tuple order
    zero = (0,) * len(d2[0])
    positive = [key(d) for d in d2 if d > zero]
    checked = len(interior) * len(d2) - sum(len(inside.intersection([k - dk for k in keys])) for dk in positive)
    found = []
    for d in failing:
        dk, value = key(d), gauge.value_scaled(d, scale)
        found += [(u, tuple(map(sub, u, d)), value) for u, k in zip(interior, keys) if d < zero or k - dk not in inside]
    found.sort()
    violations = [PropertyDViolation(from_scaled(u, scale), from_scaled(w, scale), 2, v) for u, w, v in found]
    return PropertyDReport("strong", checked, len(interior), violations)
