"""Reference helpers shared by the tests: brute-force lattice boxes, the
subset-sum count of the A_n box, the exact Fraction coset enumerator, the full-tie-set closest-point search, the
Fraction gauge functional lists, the Fraction cell vertices and boundary
catalog, the box graphs' margin metadata (step extents, interior
vertices, class-B masks), the box Cayley graphs on the half dual lattices,
the hexagon pattern graph on a box and the Property D check on a built
graph, the cube's complete unit-distance graph built by the edge scan, the
Fraction hexagon step table, the ring-sweep hexagon pattern graph and the
box-based hexagon certificate, the avoiding-set decomposition into cliques with
disjoint neighborhoods, the per-mask neighborhood count, the rescanning
min-degree greedy, the pairwise independence check, the exhaustive
chromatic number, Vec views of the integer kernels, and a fault injected
into the D_n closed-form reference table."""

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations, permutations, product
from operator import add
from typing import Iterable, Optional, Sequence

from voronorm.coloring import boundary_catalog
from voronorm.constructions import (
    GaugeNorm,
    HexagonPattern,
    an_vertices_scaled,
    dn_vertices_scaled,
    gauge_sup,
    hexagon_pattern,
)
import voronorm.density as density
from voronorm.density import (
    HEX_EXPECTED_DELTAS,
    CertEntry,
    CrossCheckMismatch,
    UnknownComponentType,
    _certificate,
    _classify_component,
    hexagon_expected_bound,
)
from voronorm.geometry import (
    DegenerateCell,
    PlanarLattice,
    Vec,
    an_half_dual_scale,
    dn_half_dual_scale,
    enumerate_an_half_dual_scaled,
    enumerate_dn_half_dual_scaled,
    from_scaled,
    planar_coset_in_box,
    reduce_planar_basis,
    scaled_ints,
    to_scaled,
)
from voronorm.graphs import (
    GeometricGraph,
    PropertyDReport,
    PropertyDViolation,
    _bits,
    build_unit_distance_graph,
)


def coset_in_box(b0: Vec, b1: Vec, offset: Vec, radius: F) -> list:
    """The points offset + c0*b0 + c1*b1 with both coordinates in
    [-radius, radius], on exact Fractions, over the Cramer coefficient box."""
    det = b0[0] * b1[1] - b0[1] * b1[0]
    reach = radius + max(map(abs, offset))
    r0 = reach * (abs(b1[0]) + abs(b1[1])) / abs(det)
    r1 = reach * (abs(b0[0]) + abs(b0[1])) / abs(det)
    out = []
    for c0 in range(-math.floor(r0), math.floor(r0) + 1):
        for c1 in range(-math.floor(r1), math.floor(r1) + 1):
            p = offset + b0 * c0 + b1 * c1
            if max(map(abs, p)) <= radius:
                out.append(p)
    return out


def box_points(lattice, radius) -> list:
    """Every lattice point with all coordinates in [-radius, radius], sorted:
    the integer box filtered by ``contains``, or the planar coset scan."""
    if lattice.family == "planar":
        return sorted(coset_in_box(lattice.b0, lattice.b1, zero_vec(2), F(radius)))
    b = math.floor(radius)
    return [v for v in map(Vec, product(range(-b, b + 1), repeat=lattice.ambient_dim)) if lattice.contains(v)]


def an_box_count_by_subset_sum(n: int, radius) -> int:
    """The points of (1/2)A_n^# in the box, counted by one subset-sum pass
    per coordinate residue: the zero-sum (n+1)-tuples over its values."""
    m = n + 1
    bound = math.floor(F(radius) * an_half_dual_scale(n))
    total = 0
    for r in range(m):
        vals = range(-bound + (r + bound) % m, bound + 1, m)
        ways = {0: 1}
        for _ in range(m):
            nxt: dict = {}
            for s, c in ways.items():
                for v in vals:
                    nxt[s + v] = nxt.get(s + v, 0) + c
            ways = nxt
        total += ways.get(0, 0)
    return total


def _closest_integer_points(w: Sequence[int], d: int, sum_zero: bool = False, even_sum: bool = False) -> list:
    """All integer tuples z minimizing |z - w/d|^2, optionally constrained to
    zero sum (w must then have zero sum) or even sum.  Pure integer
    arithmetic: the cost of z is the sum of (z_i*d - w_i)^2.  The search
    starts from the cost of a feasible rounding t of w/d."""
    m = len(w)
    t = [(2 * c + d) // (2 * d) for c in w]  # nearest integers, half-ties up
    s = sum(t)
    if sum_zero and s != 0:
        # step the |s| coordinates where the step costs least
        step = -1 if s > 0 else 1
        for i in sorted(range(m), key=lambda i: step * (t[i] * d - w[i]))[: abs(s)]:
            t[i] += step
    if even_sum and s % 2:
        # re-round the coordinate farthest from its nearest integer
        i = max(range(m), key=lambda i: abs(w[i] - t[i] * d))
        t[i] += 1 if w[i] >= t[i] * d else -1
    best = [sum((z * d - c) ** 2 for z, c in zip(t, w))]
    hits: list = []
    last = m - 1

    def leaf(partial: int, prefix: tuple, z: int) -> None:
        cost = partial + (z * d - w[last]) ** 2
        if cost > best[0]:
            return
        if cost < best[0]:
            best[0] = cost
            hits.clear()
        hits.append(prefix + (z,))

    def dfs(i: int, partial: int, prefix: tuple, psum: int) -> None:
        if i == last:
            if sum_zero:
                leaf(partial, prefix, -psum)
                return
            c0 = (2 * w[i] + d) // (2 * d)
            step = 1
            if even_sum:
                par = psum % 2
                if c0 % 2 != par:
                    c0_up, c0_down = c0 + 1, c0 - 1
                else:
                    c0_up, c0_down = c0, c0 - 2
                step = 2
            else:
                c0_up, c0_down = c0, c0 - 1
            z = c0_up
            while (z * d - w[i]) ** 2 <= best[0] - partial:
                leaf(partial, prefix, z)
                z += step
            z = c0_down
            while (z * d - w[i]) ** 2 <= best[0] - partial:
                leaf(partial, prefix, z)
                z -= step
            return
        c0 = (2 * w[i] + d) // (2 * d)
        z = c0
        while True:
            cost = (z * d - w[i]) ** 2
            if partial + cost > best[0]:
                break
            dfs(i + 1, partial + cost, prefix + (z,), psum + z)
            z += 1
        z = c0 - 1
        while True:
            cost = (z * d - w[i]) ** 2
            if partial + cost > best[0]:
                break
            dfs(i + 1, partial + cost, prefix + (z,), psum + z)
            z -= 1

    dfs(0, 0, (), 0)
    return hits


def closest_points(lattice, x: Vec) -> list:
    """All lattice points closest to x, sorted: the full tie set, from the
    integer branch-and-bound for Z^n, A_n and D_n and from a box search
    around x for a planar lattice.  Rounding the basis coordinates of x
    reaches a point within (|b0| + |b1|)/2 of x, so every closest point lies
    in the box of half-width |b0|_1 + |b1|_1 around x."""
    if lattice.family == "planar":
        reach = sum(map(abs, lattice.b0)) + sum(map(abs, lattice.b1))
        pts = [p + x for p in coset_in_box(lattice.b0, lattice.b1, -x, reach)]
        least = min((p - x).norm2() for p in pts)
        return sorted(p for p in pts if (p - x).norm2() == least)
    w, d = scaled_ints(x)
    ties = _closest_integer_points(w, d, sum_zero=lattice.family == "an", even_sum=lattice.family == "dn")
    return sorted(from_scaled(p, lattice.scale) for p in ties)


def zero_vec(dim: int) -> Vec:
    return Vec([0] * dim)


def basis_vec(dim: int, i: int) -> Vec:
    return Vec([1 if j == i else 0 for j in range(dim)])


def functionals_an(n: int) -> tuple:
    """The A_n gauge as functionals (a, c): e_j - e_i over c = 1, i != j."""
    m = n + 1
    return tuple((basis_vec(m, j) - basis_vec(m, i), F(1)) for i, j in permutations(range(m), 2))


def functionals_dn(n: int) -> tuple:
    """The D_n gauge as functionals (a, c): +-e_i +-e_j over c = 1, i < j."""
    return tuple(
        (basis_vec(n, i) * si + basis_vec(n, j) * sj, F(1))
        for i, j in combinations(range(n), 2)
        for si, sj in product((1, -1), repeat=2)
    )


def functionals_sup(n: int) -> tuple:
    """The cube gauge as functionals (a, c): +-e_i over c = 1."""
    return tuple((basis_vec(n, i) * s, F(1)) for i in range(n) for s in (1, -1))


def functionals_planar(basis) -> tuple:
    """The hexagon gauge as functionals (v, <v, v>/2) over the six face
    vectors v: the facet inequalities 2<x, v> <= <v, v>."""
    return tuple((v, v.norm2() / 2) for v in basis.face_vectors())


def functional_value(functionals, x: Vec) -> F:
    """The gauge of x on Fractions: max over (a, c) of <a, x>/c."""
    return max(a.dot(x) / c for a, c in functionals)


def vertex(g, v: Vec) -> int:
    """Index of the point v among the vertices of g."""
    return g.index[to_scaled(v, g.scale)]


def project_to_hyperplane(u: Vec) -> Vec:
    """Orthogonal projection onto the zero-sum hyperplane of R^m."""
    shift = u.sum() / u.dim
    return Vec(a - shift for a in u)


def vertices_an(n: int) -> list:
    """The A_n cell vertices: projections of the nonconstant 0/1 vectors."""
    cube = map(Vec, product((0, 1), repeat=n + 1))
    return sorted(project_to_hyperplane(u) for u in cube if any(u) and not all(u))


def vertices_dn(n: int) -> list:
    """The D_n cell vertices: +-e_i and (+-1/2, ..., +-1/2)."""
    half = F(1, 2)
    out = [basis_vec(n, i) * s for i in range(n) for s in (1, -1)]
    return sorted(out + [Vec(signs) for signs in product((half, -half), repeat=n)])


def vertices_cube(n: int) -> list:
    return sorted(Vec(s) for s in product((1, -1), repeat=n))


def fraction_catalog(family: str, n: int = 0, pattern=None) -> list:
    """The boundary catalog on Fractions: cell vertices, facet centers and
    the gauge-1 midpoints between them, with each family's centers by hand."""
    if family == "an":
        verts, funcs = vertices_an(n), functionals_an(n)
        centers = [(basis_vec(n + 1, i) - basis_vec(n + 1, j)) / 2 for i, j in permutations(range(n + 1), 2)]
    elif family == "dn":
        verts, funcs = vertices_dn(n), functionals_dn(n)
        pairs = product(combinations(range(n), 2), product((1, -1), repeat=2))
        centers = [(basis_vec(n, i) * si + basis_vec(n, j) * sj) / 2 for (i, j), (si, sj) in pairs]
    elif family == "cube":
        verts, funcs = vertices_cube(n), functionals_sup(n)
        centers = [basis_vec(n, i) * s for i in range(n) for s in (1, -1)]
    else:
        verts, funcs, centers = list(pattern.v), functionals_planar(pattern.basis), [f / 2 for f in pattern.face]
    mids = [(c + v) / 2 for c in centers for v in verts]
    return sorted(set(verts + centers + [m for m in mids if functional_value(funcs, m) == 1]))


def catalog_points(coloring) -> list:
    """The coloring's integer boundary catalog, read as Vecs."""
    steps, scale = boundary_catalog(coloring)
    return [from_scaled(b, scale) for b in steps]


def vertex_extent(data) -> F:
    """Max per-coordinate extent of the cell of a ``PolytopeData``
    (attained at a vertex)."""
    return F(max(abs(c) for v in data.vertices for c in v), data.scale)


def neighbors(g: GeometricGraph, i: int) -> list:
    """The neighbours of vertex i, ascending."""
    return _bits(g.adj[i])


def interior_bound_scaled(g: GeometricGraph, k: int, ext: F) -> int:
    """The k-step margin of g's box at ``g.scale``, floored, for steps of
    per-coordinate extent at most ext: a vertex whose coordinates are all
    within it has its full k-step neighbourhood in the box."""
    if g.box_radius is None:
        raise ValueError("graph carries no box metadata")
    return math.floor((g.box_radius - k * ext) * g.scale)


def interior_indices(g: GeometricGraph, k: int, ext: F) -> list:
    """The vertices with their full k-step neighbourhood in g's box."""
    bound = interior_bound_scaled(g, k, ext)
    return [i for i, p in enumerate(g.points) if all(abs(c) <= bound for c in p)]


def is_interior(g: GeometricGraph, i: int, k: int, ext: F) -> bool:
    """Whether vertex i has its full k-step neighborhood in g's box."""
    bound = interior_bound_scaled(g, k, ext)
    return all(abs(c) <= bound for c in g.points[i])


def class_mask(g: GeometricGraph, pattern: HexagonPattern, tag: str = "B") -> int:
    """Bitmask of the vertices of the hexagon box graph g in class ``tag``:
    "A" for (1/2)L, "B" for the cosets v0 + (1/2)L and v1 + (1/2)L."""
    cosets = pattern_cosets(pattern, g.box_radius)
    return sum(1 << i for i, p in enumerate(g.points) if "ABB"[cosets[p]] == tag)


def cayley_step_extent(family: str, n: int) -> F:
    """The largest coordinate of the generators (1/2)V_P of the A_n or D_n
    Cayley graph: the margin step of its box."""
    if family == "an":
        scale, gens = an_half_dual_scale(n), an_vertices_scaled(n)
    else:
        scale, gens = dn_half_dual_scale(n), dn_vertices_scaled(n)
    return F(max(abs(c) for g in gens for c in g), scale)


def build_cayley_graph(scale: int, points, generators, box_radius) -> GeometricGraph:
    """Cayley graph on scaled integer points: i ~ j iff p_i - p_j is a
    generator.  The generator set must be closed under negation."""
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
    return GeometricGraph(scale, pts, adj, box_radius=F(box_radius))


def an_cayley_graph(n: int, radius) -> GeometricGraph:
    """Box Cayley graph on (1/2)A_n^# generated by (1/2)V_P: the graph
    whose Property D `an_property_d` checks without building it."""
    pts = enumerate_an_half_dual_scaled(n, F(radius))
    return build_cayley_graph(an_half_dual_scale(n), pts, an_vertices_scaled(n), radius)


def dn_cayley_graph(n: int, radius) -> GeometricGraph:
    """Box Cayley graph on (1/2)D_n^# generated by (1/2)V_P."""
    pts = enumerate_dn_half_dual_scaled(n, F(radius))
    return build_cayley_graph(dn_half_dual_scale(n), pts, dn_vertices_scaled(n), radius)


def cube_graph(n: int) -> GeometricGraph:
    """The unit-distance graph on the 0/1 cube under the sup norm, built by
    the edge scan: the brute-force oracle of ``cube_certificate``, which
    checks that this graph is complete without building it."""
    return build_unit_distance_graph(1, product((0, 1), repeat=n), gauge_sup(n))


def two_step_candidates(g: GeometricGraph, u: int) -> int:
    """Bitmask of vertices at graph distance exactly 2 from u."""
    reach = 0
    for v in neighbors(g, u):
        reach |= g.adj[v]
    reach &= ~g.adj[u]
    reach &= ~(1 << u)
    return reach


def check_property_d(g: GeometricGraph, gauge: GaugeNorm, ext: F, mode: str = "strong", b_mask: int = 0) -> PropertyDReport:
    """Property D on the built box graph g, whose steps have per-coordinate
    extent at most ext: the oracle of the shipped kernel.

    strong: every pair at graph distance 2 (at least one endpoint interior).
    weak: only pairs sharing a common neighbor in b_mask (the class-B
    vertices).  Violations are data, not errors.
    """
    is_unit = gauge.unit_checker(g.scale)
    interior = set(interior_indices(g, 2, ext))
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


def graph_distance_2_pairs(g, ext: F, interior_k: int = 2):
    """All unordered pairs at graph distance 2 with at least one interior
    endpoint, with their common neighbor sets; deterministic order."""
    interior = set(interior_indices(g, interior_k, ext))
    for u in sorted(interior):
        for w in _bits(two_step_candidates(g, u)):
            if w in interior and w < u:
                continue
            yield u, w, _bits(g.adj[u] & g.adj[w])


def hexagon_oracle_patterns() -> list:
    """The patterns the hexagon oracles are compared on: 55 random
    Gauss-reduced bases with coordinates p/q, |p| <= 6 and q in 1..3
    (skipping the rectangular and boundary cases that
    ``reduce_planar_basis`` rejects), then the mirrored basis 3,0,1,-3 and
    the fractional basis 1/2,0,1/6,1/2."""
    rnd = random.Random(27)
    raws = []
    while len(raws) < 55:
        raw = [F(rnd.randint(-6, 6), rnd.randint(1, 3)) for _ in range(4)]
        try:
            reduce_planar_basis(Vec(raw[:2]), Vec(raw[2:]))
        except DegenerateCell:
            continue
        raws.append(raw)
    raws += [(3, 0, 1, -3), (F(1, 2), 0, F(1, 6), F(1, 2))]
    return [hexagon_pattern(reduce_planar_basis(Vec(r[:2]), Vec(r[2:]))) for r in raws]


def fraction_hexagon_steps(pattern: HexagonPattern) -> tuple:
    """``HexagonPattern.steps`` on Fraction vectors: the coset of each s_i
    is the first offset o of 0, v0, v1 with s_i - o in the lattice (1/2)L,
    tested by ``PlanarLattice.contains``."""
    half, offsets = PlanarLattice(*pattern.a_generators()), (zero_vec(2),) + pattern.class_b_offsets()
    at = [next((c for c, o in enumerate(offsets) if half.contains(p - o)), None) for p in pattern.s]
    s, scale = pattern.s, pattern.scale()
    table = [[(to_scaled(p, scale), at[i]) for i, p in enumerate(s)]]
    for c in (1, 2):
        row = []
        for i in [i for i in range(6) if at[i] == c]:
            row.append((to_scaled(-s[i], scale), 0))
            row += [(to_scaled(s[j] - s[i], scale), at[j]) for j in ((i - 1) % 6, (i + 1) % 6)]
        table.append(row)
    return tuple(tuple(dict.fromkeys(row)) for row in table)


def ring_sweep_step_extent(pattern: HexagonPattern) -> F:
    """Max per-coordinate displacement over the edges (a, a + s_i) and
    (a + s_i, a + s_{i+1}): the largest coordinate of the s_i and of the
    s_{i+1} - s_i."""
    s = pattern.s_scaled
    disp = list(s) + [tuple(b - a for a, b in zip(s[i], s[(i + 1) % 6])) for i in range(6)]
    return F(max(abs(c) for d in disp for c in d), pattern.scale())


def hex_pattern_graph(pattern: HexagonPattern, radius) -> GeometricGraph:
    """The hexagon pattern graph in the box: each point of
    ((1/2)L + {0, v0, v1}) is joined to the box points its coset's
    ``pattern.steps`` reach, so the result is exactly the induced subgraph
    of the infinite pattern graph, on integer tuples at ``pattern.scale()``."""
    cosets = pattern_cosets(pattern, radius)
    pts = sorted(cosets)
    bit = {p: 1 << i for i, p in enumerate(pts)}
    adj = []
    for p in pts:
        m = 0
        for d, _ in pattern.steps[cosets[p]]:
            m |= bit.get((p[0] + d[0], p[1] + d[1]), 0)
        adj.append(m)
    return GeometricGraph(pattern.scale(), pts, adj, box_radius=F(radius))


def pattern_cosets(pattern: HexagonPattern, radius) -> dict:
    """Coset (0 for (1/2)L, 1 and 2 for the translates by v0 and v1) of
    every pattern point within the box, keyed by its scaled tuple."""
    bound = F(radius) * pattern.scale()
    cosets = {}
    for c, off in enumerate(pattern.coset_offsets_scaled):
        for p in planar_coset_in_box(*pattern.half_basis_scaled, off, bound):
            cosets[p] = c
    return cosets


def ring_sweep_pattern_graph(pattern: HexagonPattern, radius) -> GeometricGraph:
    """The hexagon pattern graph from its definition: the edges (a, a + s_i)
    and (a + s_i, a + s_{i+1}) for every a in (1/2)L of the box enlarged by
    one step extent, kept where both ends lie in the box."""
    radius = F(radius)
    scale = pattern.scale()
    step_ext = ring_sweep_step_extent(pattern)
    cosets = pattern_cosets(pattern, radius)
    pts = sorted(cosets)
    bit = {p: 1 << i for i, p in enumerate(pts)}
    adj = dict.fromkeys(pts, 0)
    for a in planar_coset_in_box(*pattern.half_basis_scaled, (0, 0), (radius + step_ext) * scale):
        ring = [tuple(map(add, a, si)) for si in pattern.s_scaled]
        for t1, t2 in zip([a] * 6 + ring, ring + ring[1:] + ring[:1]):
            if t1 in bit and t2 in bit:
                adj[t1] |= bit[t2]
                adj[t2] |= bit[t1]
    return GeometricGraph(scale, pts, [adj[p] for p in pts], box_radius=radius)


class MarginViolation(ValueError):
    """A vertex set reaches too close to the box boundary."""


def connected_avoiding_subsets(g: GeometricGraph, gauge: GaugeNorm, base: int, max_size: int, ext: F):
    """Connected subsets of the box graph g containing ``base`` whose
    members are pairwise not at gauge distance 1; members must stay within
    the 2-step margin (steps of extent ext)."""
    is_unit = gauge.unit_checker(g.scale)

    def unit(i, j):
        return is_unit(tuple(a - b for a, b in zip(g.points[i], g.points[j])))

    results = []
    interior2 = interior_bound_scaled(g, 2, ext)

    def ok_margin(i):
        return all(abs(c) <= interior2 for c in g.points[i])

    def grow(current: tuple):
        results.append(current)
        if len(current) == max_size:
            return
        cand = 0
        for v in current:
            cand |= g.adj[v]
        for w in _bits(cand):
            if w in current:
                continue
            if not ok_margin(w):
                continue
            if any(unit(w, v) for v in current):
                continue
            grow(tuple(sorted(current + (w,))))

    if ok_margin(base):
        grow((base,))
    # grow() revisits the same subset through different orders; dedupe
    return sorted(set(results))


def box_hexagon_certificate(pattern: HexagonPattern):
    """The hexagon certificate on a finite stand-in for the pattern graph:
    the ring-sweep graph in the box of radius 7 step extents, searched
    around one representative per coset that lies 5 steps deep (the origin,
    and per class-B coset the point least by (max |coordinate|, point)),
    with every grown member re-checked against the 2-step margin."""
    ext = ring_sweep_step_extent(pattern)
    radius = 7 * ext
    g = ring_sweep_pattern_graph(pattern, radius)
    cosets = pattern_cosets(pattern, radius)
    bound5 = interior_bound_scaled(g, 5, ext)
    zero = g.index.get((0, 0))
    if zero is None or not all(abs(c) <= bound5 for c in g.points[zero]):
        raise MarginViolation("origin not deep enough in the box")
    bases = [zero]
    for off in pattern.coset_offsets_scaled[1:]:
        deep = planar_coset_in_box(*pattern.half_basis_scaled, off, bound5)
        if not deep:
            raise MarginViolation("no deep-interior class-B vertex")
        bases.append(g.index[min(deep, key=lambda p: (max(map(abs, p)), p))])

    found: dict = {}
    b_mask = class_mask(g, pattern)
    for base in bases:
        for subset in connected_avoiding_subsets(g, pattern.gauge, base, 4, ext):
            if len(subset) >= 4:
                raise UnknownComponentType(f"avoiding connected subset of size {len(subset)}")
            kind = _classify_component(pattern, [(g.points[i], cosets[g.points[i]]) for i in subset])
            m = 0
            for c in subset:
                m |= g.adj[c] | (1 << c)
            nb = (m & b_mask).bit_count()
            delta = F(len(subset), nb)
            prev = found.setdefault(kind, (len(subset), nb, delta))
            if prev != (len(subset), nb, delta):
                raise CrossCheckMismatch(f"type {kind}: densities {prev[2]} vs {delta} within one pattern")
    missing = sorted(set(HEX_EXPECTED_DELTAS) - set(found))
    if missing:
        raise UnknownComponentType(f"component types never realized: {missing}")
    entries = []
    for kind, (size, nb, delta) in sorted(found.items()):
        expected = HEX_EXPECTED_DELTAS[kind]
        if delta != expected:
            raise CrossCheckMismatch(f"type {kind}: density {delta}, expected {expected}")
        entries.append(CertEntry(kind, size, nb, delta, expected))
    notes = ["class-B density weight 2/3 applied (B is twice as dense as A)"]
    return _certificate("hexagon", 2, "class-B", entries, hexagon_expected_bound(), F(2, 3), notes)


class NotAvoiding(ValueError):
    """The vertex set contains a pair at gauge distance exactly 1."""


@dataclass
class Decomposition:
    components: list  # lists of vertex indices
    all_cliques: Optional[bool]
    neighborhoods_disjoint: bool


def decompose_avoiding_set(
    g: GeometricGraph,
    gauge: GaugeNorm,
    members: Iterable[int],
    ext: F,
    b_mask: Optional[int] = None,
) -> Decomposition:
    """Split a distance-1-avoiding vertex set into connected components of
    the auxiliary graph, whose steps have extent ext, and check the
    disjoint-neighborhood property.

    Raises NotAvoiding when two members are at gauge distance exactly 1.
    With no b_mask it also checks that every component is a clique; with
    one it counts neighborhoods within b_mask (the class-B vertices).
    """
    members = sorted(set(members))
    for c in members:
        if not is_interior(g, c, 2, ext):
            raise MarginViolation(f"vertex {g.coords(c)} too close to the boundary")
    for i, j in combinations(members, 2):
        d = tuple(a - b for a, b in zip(g.points[i], g.points[j]))
        if gauge.value_scaled(d, g.scale) == 1:
            raise NotAvoiding(f"{g.coords(i)} and {g.coords(j)} at distance 1")
    member_mask = 0
    for c in members:
        member_mask |= 1 << c
    components = []
    seen = 0
    for c in members:
        if seen & (1 << c):
            continue
        comp = 1 << c
        frontier = comp
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= g.adj[v] & member_mask & ~comp
            comp |= nxt
            frontier = nxt
        seen |= comp
        components.append(_bits(comp))
    all_cliques: Optional[bool] = None
    if b_mask is None:
        all_cliques = all(
            all(g.adj[i] & (1 << j) for i, j in combinations(comp, 2))
            for comp in components
        )
    hoods = []
    for comp in components:
        m = 0
        for c in comp:
            m |= g.adj[c] | (1 << c)
        if b_mask is not None:
            m &= b_mask
        hoods.append(m)
    disjoint = True
    for a, b in combinations(hoods, 2):
        if a & b:
            disjoint = False
    return Decomposition(components, all_cliques, disjoint)


def counts_for_subset(counts, subset_mask: int) -> int:
    """The number of points whose target mask meets subset_mask, summed
    over every mask of the histogram."""
    return sum(c for m, c in counts.items() if m & subset_mask)


def greedy_independent_rescan(adj, cand: int) -> int:
    """Min-degree greedy independent set that recounts every candidate's
    degree within cand for each pick: least degree, lowest index first."""
    chosen = 0
    while cand:
        best_v = min(_bits(cand), key=lambda v: (adj[v] & cand).bit_count())
        chosen |= 1 << best_v
        cand &= ~(adj[best_v] | (1 << best_v))
    return chosen


def is_independent_pairwise(g: GeometricGraph, indices: Iterable[int]) -> bool:
    """Whether no two of the indices are adjacent, testing every pair."""
    idx = list(indices)
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if g.adj[idx[a]] & (1 << idx[b]):
                return False
    return True


def chromatic_number(g: GeometricGraph, indices: Optional[Iterable[int]] = None) -> tuple:
    """(chi, coloring) of the subgraph induced on indices (all vertices when
    None): the least k for which plain backtracking over the vertices in
    index order finds a k-coloring, and that coloring as a dict."""
    verts = sorted(indices) if indices is not None else list(range(g.n))
    mask = sum(1 << v for v in verts)

    def extend(i: int, k: int, assign: dict) -> bool:
        if i == len(verts):
            return True
        v = verts[i]
        used = {assign[u] for u in _bits(g.adj[v] & mask) if u in assign}
        for c in range(k):
            if c not in used:
                assign[v] = c
                if extend(i + 1, k, assign):
                    return True
                del assign[v]
        return False

    k = 0
    while True:
        assign: dict = {}
        if extend(0, k, assign):
            return k, assign
        k += 1


def corrupt_dn_singleton_reference(monkeypatch) -> None:
    """Make ``dn_reference_neighborhood`` count the singleton {0} one too
    many, so that it disagrees with the brute force."""
    reference = density.dn_reference_neighborhood

    def off_by_one(n, has_v1, type2_count):
        size, count = reference(n, has_v1, type2_count)
        return size, count + (size == 1)

    monkeypatch.setattr(density, "dn_reference_neighborhood", off_by_one)
