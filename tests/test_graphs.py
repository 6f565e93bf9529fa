import random
import time
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voronorm.coloring import WitnessResult
from voronorm.constructions import (
    CertificateError,
    an_vertices_scaled,
    dn_vertices_scaled,
    gauge_an,
    gauge_dn,
    gauge_sup,
    hexagon_pattern,
)
from voronorm.geometry import (
    Vec,
    an_half_dual_scale,
    dn_half_dual_scale,
    enumerate_an_half_dual_scaled,
    enumerate_dn_half_dual_scaled,
    reduce_planar_basis,
    to_scaled,
)
from voronorm.graphs import (
    _cayley_property_d,
    _unit_edges,
    an_property_d,
    an_unit_distance_graph,
    build_unit_distance_graph,
    dn_property_d,
    hex_step_extent,
    hexagon_property_d,
    periodic_property_d,
)
from voronorm.reports import witness_edge_list
from oracles import (
    an_cayley_graph,
    build_cayley_graph,
    cayley_step_extent,
    check_property_d,
    class_mask,
    cube_graph,
    dn_cayley_graph,
    graph_distance_2_pairs,
    hex_pattern_graph,
    hexagon_oracle_patterns,
    interior_indices,
    is_interior,
    neighbors,
    ring_sweep_pattern_graph,
    ring_sweep_step_extent,
    vertex,
    zero_vec,
)


def test_cube_graph_complete():
    for n in (2, 3, 4):
        g = cube_graph(n)
        assert g.n == 2**n
        assert all(g.degree(i) == g.n - 1 for i in range(g.n))


def test_no_edge_below_unit_distance():
    g = build_unit_distance_graph(2, [(0, 0), (1, 0)], gauge_sup(2))
    assert g.edge_count() == 0


def _edges_naive(points, rows, t) -> list:
    """Oracle: decide every pair i < j on a.(p_i - p_j) <= t for every row
    a with at least one equality, in pure integer arithmetic."""
    n = len(points)
    adj = [0] * n
    for i in range(n):
        pi = points[i]
        for j in range(i + 1, n):
            d = tuple(a - b for a, b in zip(pi, points[j]))
            ok_le = True
            any_eq = False
            for a in rows:
                v = sum(ai * di for ai, di in zip(a, d))
                if v > t:
                    ok_le = False
                    break
                if v == t:
                    any_eq = True
            if ok_le and any_eq:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def test_fast_scan_equals_naive():
    b = reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))
    pat = hexagon_pattern(b)
    g = hex_pattern_graph(pat, 4)
    big = 2**62
    cases = [
        (6, enumerate_an_half_dual_scaled(2, F(3, 2)), gauge_an(2)),
        (g.scale, g.points, pat.gauge),
        (1, product((0, 1), repeat=4), gauge_sup(4)),
        (8, enumerate_an_half_dual_scaled(3, F(3, 4)), gauge_an(3)),
        (4, enumerate_dn_half_dual_scaled(4, F(1, 2)), gauge_dn(4)),
        # coordinates near ±2^62, where fixed-width int64 arithmetic needs an overflow guard
        (3, [(big + x, y - big) for x, y in product(range(-3, 4), repeat=2)] + [(-big, big)], gauge_sup(2)),
    ]
    for scale, points, gauge in cases:
        pts = sorted(set(points))
        t = gauge.level * scale
        adj = _unit_edges(pts, gauge.rows, t)
        assert any(adj)
        assert adj == _edges_naive(pts, gauge.rows, t)


def _zero_sum(c):
    return tuple(c) + (-sum(c),)


# gauge, ambient dimension, coordinate span in units of the scale
UNIT_GAUGES = {
    "sup3": (gauge_sup(3), 3, 1),
    "an3": (gauge_an(3), 4, 1),
    "dn4": (gauge_dn(4), 4, 1),
    "planar": (hexagon_pattern(reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))).gauge, 2, 2),
}


@pytest.mark.parametrize("name", sorted(UNIT_GAUGES))
@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(data=st.data())
def test_unit_edges_match_naive_scan(name, data):
    gauge, m, span = UNIT_GAUGES[name]
    scale = data.draw(st.integers(1, 4))
    coord = st.integers(-span * scale, span * scale)
    if gauge.require_zero_sum:
        point = st.lists(coord, min_size=m - 1, max_size=m - 1).map(_zero_sum)
    else:
        point = st.lists(coord, min_size=m, max_size=m).map(tuple)
    pts = sorted(set(data.draw(st.lists(point, min_size=8, max_size=24))))
    t = gauge.level * scale
    assert _unit_edges(pts, gauge.rows, t) == _edges_naive(pts, gauge.rows, t)


def test_an_cayley_interior_degree():
    g = an_cayley_graph(2, F(3, 2))
    for i in interior_indices(g, 1, cayley_step_extent("an", 2)):
        assert g.degree(i) == 6
    g3 = an_cayley_graph(3, F(3, 2))
    expected = 2**4 - 2
    for i in interior_indices(g3, 1, cayley_step_extent("an", 3)):
        assert g3.degree(i) == expected


def test_dn_cayley_interior_degree():
    g = dn_cayley_graph(4, F(3, 2))
    for i in interior_indices(g, 1, cayley_step_extent("dn", 4)):
        assert g.degree(i) == 24


def test_generator_sets_symmetric():
    for gens in (an_vertices_scaled(3), dn_vertices_scaled(4)):
        s = set(gens)
        assert all(tuple(-c for c in g) in s for g in s)


def test_cayley_rejects_asymmetric_generators():
    with pytest.raises(ValueError):
        build_cayley_graph(1, [(0, 0)], [(1, 0)], F(1))


def test_cayley_single_vertex_box_no_edges():
    g = build_cayley_graph(1, [(0, 0)], [(1, 0), (-1, 0)], F(1, 2))
    assert g.n == 1 and g.edge_count() == 0


def _naive_cayley_adj(points, gens):
    """Oracle: decide every ordered pair, i ~ j iff p_i - p_j is a generator.

    Differences and generators are packed into one integer key each (mixed
    radix over the range a difference can take), so each row is one
    vectorized membership test.
    """
    P = np.array(points, dtype=np.int64)
    span = 2 * int(np.abs(P).max())
    gens = [g for g in gens if max(map(abs, g)) <= span]
    radix = (2 * span + 1) ** np.arange(P.shape[1], dtype=np.int64)
    gen_keys = (np.array(gens, dtype=np.int64) + span) @ radix
    adj = []
    for p in P:
        hits = np.flatnonzero(np.isin((p - P + span) @ radix, gen_keys))
        adj.append(sum(1 << int(j) for j in hits))
    return adj


@pytest.mark.parametrize(
    "build, enumerate_scaled, n",
    [
        (an_cayley_graph, enumerate_an_half_dual_scaled, 2),
        (an_cayley_graph, enumerate_an_half_dual_scaled, 3),
        (dn_cayley_graph, enumerate_dn_half_dual_scaled, 4),
    ],
)
def test_cayley_build_matches_naive_pair_scan(build, enumerate_scaled, n):
    g = build(n, F(3, 2))
    assert g.points == sorted(set(enumerate_scaled(n, F(3, 2))))
    gens = an_vertices_scaled(n) if build is an_cayley_graph else dn_vertices_scaled(n)
    assert g.adj == _naive_cayley_adj(g.points, gens)
    for i in range(g.n):
        assert all(g.adj[j] >> i & 1 for j in neighbors(g, i))


def test_cayley_edges_translation_invariant():
    g, ext = an_cayley_graph(2, F(3, 2)), cayley_step_extent("an", 2)
    rnd = random.Random(2)
    gens = an_vertices_scaled(2)
    interior = interior_indices(g, 2, ext)
    for _ in range(40):
        i = rnd.choice(interior)
        t = rnd.choice(gens)
        j = g.index.get(tuple(a + b for a, b in zip(g.points[i], t)))
        assert j is not None
        ni = {tuple(x - y for x, y in zip(g.points[k], g.points[i])) for k in neighbors(g, i)}
        nj = {
            tuple(x - y for x, y in zip(g.points[k], g.points[j]))
            for k in neighbors(g, j)
            if is_interior(g, k, 0, ext)
        }
        # all displacement vectors around a fully interior vertex coincide
        if is_interior(g, j, 1, ext):
            assert ni == nj


def test_margin_soundness_cayley():
    g, ext = dn_cayley_graph(4, F(3, 2)), cayley_step_extent("dn", 4)
    gens = dn_vertices_scaled(4)
    for i in interior_indices(g, 1, ext)[:40]:
        for t in gens:
            assert g.index.get(tuple(a + b for a, b in zip(g.points[i], t))) is not None
    for i in interior_indices(g, 2, ext)[:10]:
        for t in gens:
            for u in gens:
                q = tuple(a + b + c for a, b, c in zip(g.points[i], t, u))
                assert g.index.get(q) is not None


def test_interior_requires_metadata():
    g = cube_graph(2)
    with pytest.raises(ValueError):
        interior_indices(g, 1, F(1))


# ---------------------------------------------------------------------------
# hexagon pattern graph


def test_hex_pattern_graph_matches_ring_sweep_oracle():
    # the graph read off the step table is the one swept from the rings
    # a + s_i of an enlarged box, at the radii the tests and the commands use
    for pat in hexagon_oracle_patterns():
        ext = hex_step_extent(pat)
        assert ext == ring_sweep_step_extent(pat), pat.basis
        for radius in (6, 3 * ext, 7 * ext):
            g, want = hex_pattern_graph(pat, radius), ring_sweep_pattern_graph(pat, radius)
            got = (g.points, g.adj, g.box_radius)
            assert got == (want.points, want.adj, want.box_radius), (pat.basis, radius)


def test_hex_pattern_interior_neighborhoods():
    b = reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))
    pat = hexagon_pattern(b)
    g = hex_pattern_graph(pat, 6)
    a_mask = class_mask(g, pat, "A")
    for i in interior_indices(g, 1, hex_step_extent(pat)):
        assert g.degree(i) == 6
        if a_mask >> i & 1:
            assert g.adj[i] & a_mask == 0
        else:
            assert (g.adj[i] & a_mask).bit_count() == 3


def test_hex_pattern_b_vertex_neighbors_identity():
    b = reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))
    pat = hexagon_pattern(b)
    g = hex_pattern_graph(pat, 6)
    i_s0 = vertex(g, pat.s[0])
    got = {g.points[j] for j in neighbors(g, i_s0)}
    expected = {
        to_scaled(p, g.scale)
        for p in (
            zero_vec(2),
            pat.face[0] / 2,
            pat.face[5] / 2,
            pat.s[5],
            pat.s[1],
            pat.v[0],
        )
    }
    assert got == expected


def test_hex_pattern_edges_translation_invariant():
    b = reduce_planar_basis(Vec([4, 0]), Vec([1, 4]))
    pat = hexagon_pattern(b)
    g, ext = hex_pattern_graph(pat, 6), hex_step_extent(pat)
    t = to_scaled(pat.basis.b0 / 2, g.scale)
    moved = 0
    for i in interior_indices(g, 2, ext):
        j = g.index.get(tuple(a + b for a, b in zip(g.points[i], t)))
        if j is None or not is_interior(g, j, 1, ext):
            continue
        moved += 1
        ni = {tuple(x - y for x, y in zip(g.points[k], g.points[i])) for k in neighbors(g, i)}
        nj = {tuple(x - y for x, y in zip(g.points[k], g.points[j])) for k in neighbors(g, j)}
        assert ni == nj
    assert moved > 5


# ---------------------------------------------------------------------------
# distance-2 pairs and property D


def _graph_from_points(points, gauge):
    """Unit-distance graph on integer points (scale 1), in the box of
    radius 10."""
    return build_unit_distance_graph(1, points, gauge, box_radius=F(10))


def test_distance_2_pairs_path():
    g = _graph_from_points([(0,), (1,), (2,)], gauge_sup(1))
    pairs = list(graph_distance_2_pairs(g, F(1), interior_k=0))
    assert len(pairs) == 1
    u, w, common = pairs[0]
    assert (g.points[u], g.points[w]) == ((0,), (2,))
    assert common == [vertex(g, Vec([1]))]


def test_distance_2_pairs_triangle():
    g = _graph_from_points([(0, 0), (1, 0), (0, 1)], gauge_sup(2))
    assert list(graph_distance_2_pairs(g, F(1), interior_k=0)) == []


@pytest.mark.parametrize("n", [2, 3])
def test_property_d_strong_an(n):
    rep = an_property_d(n, F(3, 2))
    assert rep.holds
    assert rep.checked_pairs > 0


def test_property_d_strong_dn4():
    rep = dn_property_d(4, F(3, 2))
    assert rep.holds
    assert rep.checked_pairs > 0


ORACLE_BOXES = [
    ("an", 2, F(3, 2)),
    ("an", 2, F(7, 4)),
    ("an", 2, F(2)),
    ("an", 2, F(3)),  # interior coordinates larger than any difference
    ("an", 3, F(3, 2)),
    ("an", 3, F(7, 4)),
    ("an", 3, F(2)),
    ("an", 4, F(3, 2)),
    ("dn", 4, F(3, 2)),
    ("dn", 4, F(7, 4)),
]


def _kernel(family, n, radius, gauge):
    """The shipped Property D kernel on the family's generators, with any gauge."""
    if family == "an":
        box = lambda r: enumerate_an_half_dual_scaled(n, r)
        return _cayley_property_d(an_half_dual_scale(n), an_vertices_scaled(n), gauge, radius, box)
    box = lambda r: enumerate_dn_half_dual_scaled(n, r)
    return _cayley_property_d(dn_half_dual_scale(n), dn_vertices_scaled(n), gauge, radius, box)


def _fields(rep):
    return rep.mode, rep.interior_vertices, rep.checked_pairs, rep.violations


# the oracle boxes and A_2..A_4, D_4 at radii 1/2 to 2; at 1/2 no A_n box
# has a vertex whose 2-walks stay inside it
CAYLEY_GRID = {(f, n, r) for f, n in (("an", 2), ("an", 3), ("an", 4), ("dn", 4)) for r in (F(1, 2), F(1), F(3, 2), F(2))}


@pytest.mark.parametrize("family, n, radius", ORACLE_BOXES + sorted(CAYLEY_GRID - set(ORACLE_BOXES)))
def test_property_d_matches_oracle_cayley_graph(family, n, radius):
    if family == "an":
        rep, g, gauge = an_property_d(n, radius), an_cayley_graph(n, radius), gauge_an(n)
    else:
        rep, g, gauge = dn_property_d(n, radius), dn_cayley_graph(n, radius), gauge_dn(n)
    ext = cayley_step_extent(family, n)
    assert _fields(rep) == _fields(check_property_d(g, gauge, ext))
    assert rep.holds and (rep.checked_pairs > 0) == (radius >= 2 * ext)


# the sup gauge at the lattice's scale puts every distance-2 difference of
# A_n, and some of D_4's, off its unit sphere; on the larger boxes the
# violation records alone take seconds
@pytest.mark.parametrize("family, n, radius", [b for b in ORACLE_BOXES if b[1] == 2] + [("an", 3, F(3, 2)), ("dn", 4, F(3, 2))])
def test_property_d_violations_match_oracle_cayley_graph(family, n, radius):
    m = n + 1 if family == "an" else n
    g = an_cayley_graph(n, radius) if family == "an" else dn_cayley_graph(n, radius)
    rep = _kernel(family, n, radius, gauge_sup(m))
    # the violations compare as (u, w, graph distance, gauge value), in order
    assert rep.violations
    assert _fields(rep) == _fields(check_property_d(g, gauge_sup(m), cayley_step_extent(family, n)))


def test_property_d_rejects_generator_off_the_lattice():
    # (1, -1, 0)/6 has zero sum but mixed residues modulo 3: not in (1/2)A_2^#
    gens = an_vertices_scaled(2) + [(1, -1, 0), (-1, 1, 0)]
    with pytest.raises(CertificateError, match="not a point of the lattice"):
        _cayley_property_d(6, gens, gauge_an(2), F(3, 2), lambda r: enumerate_an_half_dual_scaled(2, r))


def test_property_d_rejects_asymmetric_generators():
    # a generator set not closed under negation is a program fault, not a
    # usage error: the kernel finds a step with no reverse step
    gens = an_vertices_scaled(2)[1:]
    with pytest.raises(CertificateError, match="has no reverse step"):
        _cayley_property_d(6, gens, gauge_an(2), F(3, 2), lambda r: enumerate_an_half_dual_scaled(2, r))


def test_property_d_hexagon():
    b = reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))
    pat = hexagon_pattern(b)
    strong = hexagon_property_d(pat, 6, "strong")
    assert not strong.holds
    # the classic violating pair: a+s_i against a+s_{i+3} = a-s_i
    expect = {tuple(2 * s) for s in pat.s}
    diffs = {tuple(v.u - v.w) for v in strong.violations} | {
        tuple(v.w - v.u) for v in strong.violations
    }
    assert diffs & expect
    weak = hexagon_property_d(pat, 6, "weak")
    assert weak.holds
    assert weak.checked_pairs > 0


def test_property_d_rejects_unknown_mode():
    steps = (tuple((g, 0) for g in an_vertices_scaled(2)),)
    box = lambda r: enumerate_an_half_dual_scaled(2, r)
    with pytest.raises(ValueError, match="unknown mode 'both'"):
        periodic_property_d(6, steps, (box,), gauge_an(2), F(3, 2), "both")
    with pytest.raises(ValueError, match="unknown mode 'both'"):
        hexagon_property_d(hexagon_pattern(reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))), 6, "both")


# the shipped kernel on the hexagon pattern graph against the check on the
# built box graph: every basis of the oracle list at the radii the tests
# and the commands use, a radius with no interior point among them
@pytest.mark.parametrize("mode", ["strong", "weak"])
def test_hexagon_property_d_matches_oracle_box_graph(mode):
    for pat in hexagon_oracle_patterns():
        ext = hex_step_extent(pat)
        for radius in (ext, 2 * ext, 3 * ext, 7 * ext, 6):
            g = hex_pattern_graph(pat, radius)
            want = check_property_d(g, pat.gauge, ext, mode, class_mask(g, pat))
            assert _fields(hexagon_property_d(pat, radius, mode)) == _fields(want), (pat.basis, radius)



# ---------------------------------------------------------------------------
# export


def _edge_list(g) -> str:
    # the witness edge-list writer, with every vertex of g in the witness
    return witness_edge_list(WitnessResult(True, 0, list(range(g.n))), g)


def test_edge_list_format():
    g = _graph_from_points([(0, 0), (1, 0), (0, 1)], gauge_sup(2))
    lines = _edge_list(g).strip().split("\n")
    assert len(lines) == 3
    for line in lines:
        a, b = line.split(" ")
        for part in (a, b):
            coords = part.split(",")
            assert len(coords) == 2
            for c in coords:
                p, q = c.split("/")
                int(p), int(q)


def test_edge_list_round_trip():
    from fractions import Fraction

    g = an_unit_distance_graph(2, 1)
    parsed = set()
    for line in _edge_list(g).strip().split("\n"):
        a, b = line.split(" ")
        pa = Vec(Fraction(c) for c in a.split(","))
        pb = Vec(Fraction(c) for c in b.split(","))
        parsed.add((vertex(g, pa), vertex(g, pb)))
    assert parsed == set(g.edges())


def test_dn_box_is_counted_before_enumerating():
    # 5^9 + 4^9 points: refused from the count, before the box is enumerated
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="Cayley graph of 2215269 vertices exceeds the limit"):
        dn_property_d(9, 1)
    assert time.monotonic() - t0 < 2


def test_unit_distance_graph_an_box2_edges():
    g = an_unit_distance_graph(2, 1)
    # neighbors of the origin are exactly the gauge-1 points of the vertex set
    i0 = vertex(g, zero_vec(3))
    gauge = gauge_an(2)
    for j in range(g.n):
        d = gauge.value(g.coords(j) - g.coords(i0))
        assert ((g.adj[i0] >> j) & 1) == (1 if d == 1 else 0)
