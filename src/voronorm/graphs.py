"""Finite geometric graphs: box-restricted unit-distance graphs, and
Property D (graph distance 2 forces gauge distance 1) on the periodic
auxiliary graphs of the proofs.

Vertices are stored as scaled integer tuples (one denominator per graph,
the family's scale) and adjacency as per-vertex bitmasks, so every distance
test is pure integer arithmetic.  Unit-distance edges come from one bitset
kernel on the gauge's integer rows and level; a pair-by-pair scan is its
oracle in the tests.  One Property D kernel checks all three families on
their periodic graphs, given by classes of points and the steps out of
each class, without building a graph: the A_n / D_n Cayley graphs are one
class stepped by the generators, and the hexagon pattern graph is the
three cosets stepped by ``HexagonPattern.steps``.  It tests each distinct
distance-2 difference once per class and counts pairs on the interior
points; the check on the built box graph is its oracle in the tests.
Unit-distance graphs are capped at MAX_UNIT_DISTANCE_VERTICES vertices, and
the Property D boxes and generator lists at MAX_CAYLEY_VERTICES, counted
before anything is allocated (a count of at least 2^n by its exponent first).
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import mul, sub
from typing import Callable, Iterable, Optional, Sequence

from .constructions import (
    CertificateError,
    GaugeNorm,
    HexagonPattern,
    an_vertices_scaled,
    dn_vertices_scaled,
    gauge_an,
    gauge_dn,
    point_group_generators,
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
    common denominator; ``box_radius`` is the radius of the box the points
    were taken from, when they were.  ``symmetries`` are vertex-index lists
    (vertex i maps to vertex symmetries[k][i]) that generate a group of
    automorphisms; the MIS search checks each one and branches on its
    orbits.
    """

    def __init__(
        self,
        scale: int,
        points: Sequence[tuple],
        adj: Sequence[int],
        box_radius: Optional[Fraction] = None,
        symmetries: Sequence[Sequence[int]] = (),
    ):
        self.scale = scale
        self.points = list(points)
        self.adj = list(adj)
        self.box_radius = box_radius
        self.symmetries = [list(s) for s in symmetries]
        self.index = {p: i for i, p in enumerate(self.points)}

    @property
    def n(self) -> int:
        return len(self.points)

    def coords(self, i: int) -> Vec:
        return from_scaled(self.points[i], self.scale)

    def degree(self, i: int) -> int:
        return self.adj[i].bit_count()

    def edge_count(self) -> int:
        return sum(self.degree(i) for i in range(self.n)) // 2

    def edges(self):
        for i in range(self.n):
            for j in _bits(self.adj[i]):
                if j > i:
                    yield i, j


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

# Largest box of a Property D check: 2^16 points admit A_5 and D_5 at
# radius 3/2 (29,917 and 24,583) and refuse A_6 and D_6 (196,645 and
# 164,305).  The hexagon pattern graph has degree at most 6 and shares the
# cap.
MAX_CAYLEY_VERTICES = 1 << 16


def _check_size(count: int, limit: int = MAX_UNIT_DISTANCE_VERTICES, kind: str = "unit-distance") -> None:
    if count > limit:
        raise ValueError(f"{kind} graph of {count} vertices exceeds the limit of {limit}")


def _check_an_box(n: int, radius: Fraction, limit: int = MAX_UNIT_DISTANCE_VERTICES, kind: str = "unit-distance") -> None:
    """Refuse the box of (1/2)A_n^# above limit points.  At radius 1/2 or more
    it holds, at scale 2(n+1), the origin and for each r in 1..n the C(n+1, r)
    points with r coordinates r - (n+1) and the rest r: at least 2^n."""
    if radius >= Fraction(1, 2) and n >= limit.bit_length():
        raise ValueError(f"{kind} graph of at least 2^{n} vertices exceeds the limit of {limit}")
    _check_size(count_an_half_dual_scaled(n, radius), limit, kind)


# Largest n at which a cap on a count of at least 2^n computes the count; a
# larger n is refused by its exponent (2^(10^8) has too many digits to print).
MAX_COUNTED_EXPONENT = 1024


def check_power_count(
    n: int,
    count: Callable[[int], int],
    limit: int = MAX_UNIT_DISTANCE_VERTICES,
    message: str = "unit-distance graph of {count} vertices exceeds the limit of {limit}",
) -> None:
    """Raise ValueError when count(n), a count of at least 2^n, exceeds
    limit; message names the count as {count} and the limit as {limit}.
    Above MAX_COUNTED_EXPONENT, 2^n alone exceeds every cap, so count is
    not called and the message names the count as "at least 2^n"."""
    if n > MAX_COUNTED_EXPONENT:
        raise ValueError(message.format(count=f"at least 2^{n}", limit=limit))
    if (c := count(n)) > limit:
        raise ValueError(message.format(count=c, limit=limit))


def check_cayley_generators(family: str, n: int) -> None:
    """Refuse the Cayley graph on (1/2)A_n^# or (1/2)D_n^# when its
    generators (1/2)V_P, 2^(n+1) - 2 for "an" and 2^n + 2n for "dn",
    exceed MAX_CAYLEY_VERTICES; counted before any is built."""
    name, count = ("A", lambda n: 2 ** (n + 1) - 2) if family == "an" else ("D", lambda n: 2**n + 2 * n)
    message = f"{name}_{n} has {{count}} Cayley generators, over the limit of {{limit}}"
    check_power_count(n, count, MAX_CAYLEY_VERTICES, message)


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
) -> GeometricGraph:
    """Graph on the given scaled integer points (coordinates times
    ``scale``) with edges at gauge distance exactly 1.

    Raises ValueError above MAX_UNIT_DISTANCE_VERTICES distinct points.
    """
    pts = sorted(set(points))
    _check_size(len(pts))
    return GeometricGraph(scale, pts, _unit_edges(pts, gauge.rows, gauge.level * scale), box_radius=box_radius)


# ---------------------------------------------------------------------------
# Family-level constructions


def an_unit_distance_graph(n: int, radius) -> GeometricGraph:
    """Box-restricted subgraph of the unit-distance graph on (1/2)A_n^#.

    A box of fewer than two points has no pair, so no edge, and builds no
    gauge (its n(n+1) rows are the cost of a narrow box at large n)."""
    radius = Fraction(radius)
    _check_an_box(n, radius)
    pts = enumerate_an_half_dual_scaled(n, radius)
    scale = an_half_dual_scale(n)
    if len(pts) < 2:
        g = GeometricGraph(scale, pts, [0] * len(pts), box_radius=radius)
    else:
        g = build_unit_distance_graph(scale, pts, gauge_an(n), box_radius=radius)
    g.symmetries = [[g.index[f(p)] for p in g.points] for _, f in point_group_generators("an", n)]
    return g


def hex_step_extent(pattern: HexagonPattern) -> Fraction:
    """Max per-coordinate displacement along one pattern-graph edge: the
    largest coordinate of a step of ``pattern.steps``."""
    return Fraction(max(abs(x) for row in pattern.steps for d, _ in row for x in d), pattern.scale())


def _hex_vertex_count(pattern: HexagonPattern, radius: Fraction) -> int:
    """The number of pattern points ((1/2)L + {0, v0, v1}) in the box,
    without enumerating: the three cosets are disjoint (the pattern checks
    it), so their counts add up."""
    p, q = pattern.half_basis_scaled
    bound = radius * pattern.scale()
    return sum(count_planar_coset_in_box(p, q, o, bound) for o in pattern.coset_offsets_scaled)


def _hex_boxes(pattern: HexagonPattern) -> list:
    """Per coset of ``pattern.steps``, the lister of its scaled points with
    every coordinate within r."""
    (p, q), scale = pattern.half_basis_scaled, pattern.scale()
    return [lambda r, o=o: planar_coset_in_box(p, q, o, r * scale) for o in pattern.coset_offsets_scaled]


def hex_unit_distance_graph(pattern: HexagonPattern, radius) -> GeometricGraph:
    """Box subgraph of the unit-distance graph on the pattern's vertex set;
    raises ValueError above MAX_UNIT_DISTANCE_VERTICES vertices."""
    radius = Fraction(radius)
    _check_size(_hex_vertex_count(pattern, radius))
    pts = [u for box in _hex_boxes(pattern) for u in box(radius)]
    return build_unit_distance_graph(pattern.scale(), pts, pattern.gauge, box_radius=radius)


# ---------------------------------------------------------------------------
# Property D


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


def an_property_d(n: int, radius) -> PropertyDReport:
    """Strong Property D of the box Cayley graph on (1/2)A_n^# generated by
    (1/2)V_P; raises ValueError above MAX_CAYLEY_VERTICES box points or
    generators."""
    radius = Fraction(radius)
    _check_an_box(n, radius, MAX_CAYLEY_VERTICES, "Cayley")
    check_cayley_generators("an", n)
    # the cell vertices at scale n+1 are (1/2)V_P at the lattice's scale 2(n+1)
    return _cayley_property_d(
        an_half_dual_scale(n), an_vertices_scaled(n), gauge_an(n), radius,
        lambda r: enumerate_an_half_dual_scaled(n, r),
    )


def dn_property_d(n: int, radius) -> PropertyDReport:
    """Strong Property D of the box Cayley graph on (1/2)D_n^# generated by
    (1/2)V_P; raises ValueError above MAX_CAYLEY_VERTICES box points or
    generators."""
    radius = Fraction(radius)
    _check_size(count_dn_half_dual_scaled(n, radius), MAX_CAYLEY_VERTICES, "Cayley")
    check_cayley_generators("dn", n)
    # the cell vertices at scale 2 are (1/2)V_P at the lattice's scale 4
    return _cayley_property_d(
        dn_half_dual_scale(n), dn_vertices_scaled(n), gauge_dn(n), radius,
        lambda r: enumerate_dn_half_dual_scaled(n, r),
    )


def hexagon_property_d(pattern: HexagonPattern, radius, mode: str = "strong") -> PropertyDReport:
    """Property D of the hexagon pattern graph in the box: the cosets
    (1/2)L, v0 + (1/2)L and v1 + (1/2)L stepped by ``pattern.steps``; weak
    reads only the 2-walks through a class-B coset.  Raises ValueError
    above MAX_CAYLEY_VERTICES pattern points in the box, counted per coset
    before any is enumerated."""
    radius = Fraction(radius)
    _check_size(_hex_vertex_count(pattern, radius), MAX_CAYLEY_VERTICES, "pattern")
    return periodic_property_d(pattern.scale(), pattern.steps, _hex_boxes(pattern), pattern.gauge, radius, mode)


def linear_key(xs, ys) -> Callable:
    """The key sum_i p_i (2r + 1)^i of an integer tuple p, with r the largest
    |x_i| over xs plus the largest |y_i| over ys: linear, and one-to-one on
    the tuples x + y and x - y for x in xs and y in ys."""
    reach = max((abs(c) for x in xs for c in x), default=0) + max(abs(c) for y in ys for c in y)
    powers = [(2 * reach + 1) ** i for i in range(len(ys[0]))]
    return lambda p: sum(map(mul, p, powers))


def _cayley_property_d(scale: int, generators, gauge: GaugeNorm, radius: Fraction, lattice_box) -> PropertyDReport:
    """Strong Property D of the Cayley graph (i ~ j iff p_i - p_j is a
    generator) on the lattice points with every coordinate within radius:
    one class, whose steps are the generators.  lattice_box(r) lists the
    scaled lattice points with every coordinate within r.  Raises
    CertificateError if a generator is not a lattice point (the box would
    then miss some u - d)."""
    gens = set(generators)
    off = sorted(gens.difference(lattice_box(Fraction(max(abs(c) for g in gens for c in g), scale))))
    if off:
        raise CertificateError(f"generator {off[0]} is not a point of the lattice")
    return periodic_property_d(scale, (tuple((g, 0) for g in gens),), (lattice_box,), gauge, radius, "strong")


def periodic_property_d(scale: int, steps, boxes, gauge: GaugeNorm, radius: Fraction, mode: str) -> PropertyDReport:
    """Distance-2 pairs must be at gauge distance exactly 1, on the graph
    whose vertices are the scaled points of the classes c (boxes[c](r)
    lists those with every coordinate within r) and which joins a point p
    of class c to p + d, of class k, for each (d, k) in steps[c]; restricted
    to the box of radius, without building it.  Violations are data, not
    errors.

    strong: every pair at graph distance 2 with at least one endpoint u
    interior, i.e. within radius - 2*ext (ext the steps' largest
    coordinate), so that every 2-walk from u stays in the box.  weak: only
    the pairs joined by a 2-walk through a point of a class other than 0.
    The graph is periodic, so an interior u of class c has exactly u - D2[c]
    at graph distance 2, and each d in D2[c] is tested once.  Raises
    CertificateError if a step has no reverse step.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"unknown mode {mode!r}")
    zero = (0,) * len(steps[0][0][0])
    out_of = [set(row) for row in steps]
    d2 = []
    for c, row in enumerate(steps):
        back = [(tuple(-x for x in d), k) for d, k in row]
        for (d, k), (nd, _) in zip(row, back):
            if (nd, c) not in out_of[k]:
                raise CertificateError(f"step {d} from class {c} to class {k} has no reverse step")
        # u - w for each w = u + d + e reached by a 2-walk, less u's neighbours and u
        walks = {tuple(map(sub, nd, e)) for nd, k in back if mode == "strong" or k for e, _ in steps[k]}
        d2.append(sorted(walks - {nd for nd, _ in back} - {zero}))
    ext = Fraction(max(abs(x) for row in steps for d, _ in row for x in d), scale)
    inner = radius - 2 * ext
    interior = [box(inner) if inner >= 0 else [] for box in boxes]
    # the key is one-to-one on every u and u - d, so u - d is interior iff
    # key(u) - key(d) is an interior key
    key = linear_key([u for pts in interior for u in pts], [zero] + [d for ds in d2 for d in ds])
    keys = [[key(u) for u in pts] for pts in interior]
    inside = set().union(*keys)
    is_unit = gauge.unit_checker(scale)
    checked, found = 0, []
    for pts, ks, ds in zip(interior, keys, d2):
        # a pair of two interior points is checked from its larger end
        # only: u - d < u iff d is positive in tuple order
        checked += len(pts) * len(ds)
        checked -= sum(len(inside.intersection([k - dk for k in ks])) for dk in [key(d) for d in ds if d > zero])
        for d in ds:
            if not is_unit(d):
                dk, value = key(d), gauge.value_scaled(d, scale)
                found += [(u, tuple(map(sub, u, d)), value) for u, k in zip(pts, ks) if d < zero or k - dk not in inside]
    found.sort()
    violations = [PropertyDViolation(from_scaled(u, scale), from_scaled(w, scale), 2, v) for u, w, v in found]
    return PropertyDReport(mode, checked, sum(map(len, interior)), violations)
