import math
import random
from fractions import Fraction as F
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from voronorm.constructions import (
    CertificateError,
    HexagonPattern,
    InputOffHyperplane,
    PolytopeData,
    an_vertices_scaled,
    cube_vertices_scaled,
    dn_vertices_scaled,
    gauge_an,
    gauge_dn,
    gauge_planar,
    gauge_sup,
    hexagon_pattern,
    point_group_generators,
    polytope_an,
    polytope_cube,
    polytope_dn,
    row_values,
)
from voronorm.geometry import (
    AnLattice,
    DegenerateCell,
    DnLattice,
    PlanarLattice,
    Vec,
    ZnLattice,
    from_scaled,
    reduce_planar_basis,
    scaled_ints,
)
from voronorm.coloring import _CELLS
from oracles import (
    box_points,
    closest_points,
    fraction_hexagon_steps,
    functional_value,
    functionals_an,
    functionals_dn,
    functionals_planar,
    functionals_sup,
    project_to_hyperplane,
    vertices_an,
    vertices_cube,
    vertices_dn,
    vertex_extent,
    zero_vec,
)


def test_gauge_an_values():
    g = gauge_an(2)
    assert g.value(project_to_hyperplane(Vec([0, 1, 1]))) == 1
    assert g.value(zero_vec(3)) == 0
    assert g.value(Vec([1, -1, 0])) == 2


def test_gauge_an_off_hyperplane():
    with pytest.raises(InputOffHyperplane):
        gauge_an(2).value(Vec([1, 0, 0]))


def test_scaled_gauge_paths_check_the_hyperplane():
    # every scaled A_n path, the sampler's step guard included, refuses a
    # point off the zero-sum hyperplane
    g = gauge_an(2)
    with pytest.raises(InputOffHyperplane):
        g.is_unit_scaled((1, 0, 0), 1)
    with pytest.raises(InputOffHyperplane):
        g.is_unit_scaled((6, 0, 0), 6)
    with pytest.raises(InputOffHyperplane):
        g.unit_step((1, 0, 0))
    with pytest.raises(InputOffHyperplane):
        g.value_scaled((1, 0, 0), 1)


def test_gauge_dn_values():
    g = gauge_dn(4)
    assert g.value(Vec([1, 0, 0, 0])) == 1
    assert g.value(Vec([F(1, 2)] * 4)) == 1
    assert g.value(Vec([F(3, 2), F(1, 2), F(1, 2), F(1, 2)])) == 2


def test_gauge_sup_values():
    g = gauge_sup(2)
    assert g.value(Vec([1, 0])) == 1
    assert g.value(Vec([F(1, 2), F(-1, 2)])) == F(1, 2)
    assert g.value(Vec([1, 1])) == 1


def test_gauge_planar_values():
    b = reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))
    g = gauge_planar(b)
    assert g.value(b.b0 / 2) == 1
    assert g.value(b.b0) == 2
    pat = hexagon_pattern(b)
    assert g.value(pat.v[0]) == 1


def test_hexagon_vertex_equidistant():
    # a cell vertex is equidistant from 0 and (at least) two lattice points
    b = reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))
    pat = hexagon_pattern(b)
    lat = b.lattice()
    for v in pat.v:
        ties = closest_points(lat, v)
        assert zero_vec(2) in ties
        assert len(ties) >= 3


def _cell_vertices(polytope, n: int) -> list:
    """The cell's integer vertices, read as Vecs."""
    data = polytope(n)
    return [from_scaled(v, data.scale) for v in data.vertices]


def test_vertex_counts():
    assert len(_cell_vertices(polytope_an, 2)) == 6
    assert len(_cell_vertices(polytope_an, 3)) == 14
    verts = _cell_vertices(polytope_dn, 4)
    assert len(verts) == 24
    type1 = [v for v in verts if max(map(abs, v)) == 1]
    assert len(type1) == 8 and len(verts) - len(type1) == 16


@pytest.mark.parametrize("n", [2, 3, 4])
def test_an_vertices_on_boundary(n):
    g = gauge_an(n)
    for v in _cell_vertices(polytope_an, n):
        assert g.value(v) == 1


@pytest.mark.parametrize("n", [4, 5])
def test_dn_vertices_on_boundary(n):
    g = gauge_dn(n)
    for v in _cell_vertices(polytope_dn, n):
        assert g.value(v) == 1


def test_vertices_closed_under_symmetry():
    rnd = random.Random(0)
    va = set(_cell_vertices(polytope_an, 3))
    for _ in range(10):
        perm = list(range(4))
        rnd.shuffle(perm)
        assert {Vec(v[i] for i in perm) for v in va} == va
    assert {-v for v in va} == va
    vd = set(_cell_vertices(polytope_dn, 4))
    assert {Vec((v[1], v[0], v[2], v[3])) for v in vd} == vd
    assert {Vec((-v[0], -v[1], v[2], v[3])) for v in vd} == vd


def _group_order(maps, points) -> int:
    """The order of the group that maps generate, as permutations of the
    finite set points (each map must send it onto itself), by breadth-first
    closure."""
    index = {p: i for i, p in enumerate(points)}
    assert all({f(p) for p in points} == set(points) for f in maps)
    gens = [[index[f(p)] for p in points] for f in maps]
    seen = {tuple(range(len(points)))}
    frontier = list(seen)
    while frontier:
        reached = []
        for a in frontier:
            for g in gens:
                c = tuple([a[i] for i in g])
                if c not in seen:
                    seen.add(c)
                    reached.append(c)
        frontier = reached
    return len(seen)


@pytest.mark.parametrize("n", range(1, 7))
def test_cube_generators_close_to_the_signed_permutations(n):
    # on {+-e_i} the signed permutations act faithfully, 2^n n! of them
    gens = point_group_generators("cube", n)
    names = ["the sign change of coordinate 0", "the n-cycle", "the swap (0 1)"]
    assert [name for name, _ in gens] == names[: 2 if n == 1 else 3]
    maps = [f for _, f in gens]
    units = [tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (1, -1)]
    assert _group_order(maps, units) == 2**n * math.factorial(n)
    for points in (gauge_sup(n).rows, cube_vertices_scaled(n)):
        assert all({f(p) for p in points} == set(points) for f in maps)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_an_generators_close_to_the_point_group(n):
    # S_{n+1} x {+-1} acts faithfully on the cell vertices, and maps the
    # gauge rows onto themselves
    gens = point_group_generators("an", n)
    assert [name for name, _ in gens] == ["the swap (0 1)", "the (n+1)-cycle", "negation"]
    maps = [f for _, f in gens]
    assert _group_order(maps, an_vertices_scaled(n)) == 2 * math.factorial(n + 1)
    assert all({f(a) for a in gauge_an(n).rows} == set(gauge_an(n).rows) for f in maps)


def test_point_group_generators_reject_an_unknown_family():
    with pytest.raises(ValueError, match="unknown family 'hexagon'"):
        point_group_generators("hexagon", 2)


def test_integer_vertex_builders_match_fraction_oracles():
    # one builder per family: the cell vertices at the cell's scale, which
    # are also the Cayley generators (1/2)V_P at twice that scale
    for n in range(2, 13):
        assert [from_scaled(v, n + 1) for v in an_vertices_scaled(n)] == vertices_an(n)
    for n in range(4, 10):
        assert [from_scaled(v, 2) for v in dn_vertices_scaled(n)] == vertices_dn(n)
    for n in range(1, 8):
        assert [from_scaled(v, 1) for v in cube_vertices_scaled(n)] == vertices_cube(n)


def test_closed_form_cross_check():
    rnd = random.Random(7)
    ga, gd, gs = gauge_an(3), gauge_dn(4), gauge_sup(3)
    fa, fd, fs = functionals_an(3), functionals_dn(4), functionals_sup(3)
    for _ in range(50):
        x = Vec([F(rnd.randint(-24, 24), 6) for _ in range(4)])
        xa = project_to_hyperplane(x)
        for g, funcs, v in ((ga, fa, xa), (gd, fd, x), (gs, fs, Vec(x[:3]))):
            if any(v):
                # unit_step scales by the closed form; is_unit_scaled decides
                # value == 1 on the scaled integers
                z, e = g.unit_step(scaled_ints(v)[0])
                u = from_scaled(z, e)
                assert u == v / functional_value(funcs, v)
                for w, unit in ((u, True), (u * 2, False), (u / 3, False)):
                    assert g.is_unit_scaled(*scaled_ints(w)) == unit


def test_unit_checker_agrees_with_functional_list():
    # the scaled fast paths must match the functional-list evaluation
    rnd = random.Random(13)
    b = reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))
    cases = [
        (gauge_an(2), functionals_an(2), 6, 3, True),
        (gauge_dn(4), functionals_dn(4), 4, 4, False),
        (gauge_sup(3), functionals_sup(3), 2, 3, False),
        (gauge_planar(b), functionals_planar(b), 12, 2, False),
    ]
    for gauge, funcs, scale, dim, zero_sum in cases:
        check = gauge.unit_checker(scale)
        hits = 0
        for _ in range(400):
            d = [rnd.randint(-2 * scale, 2 * scale) for _ in range(dim)]
            if zero_sum:
                d[-1] = -sum(d[:-1])
            d = tuple(d)
            want = functional_value(funcs, from_scaled(d, scale)) == 1
            assert check(d) == want, d
            hits += want
        assert hits > 0  # the sample actually exercised the unit sphere


def _hexagon_row_gauge(b0, b1):
    basis = reduce_planar_basis(Vec(b0), Vec(b1))
    return hexagon_pattern(basis).gauge, 2, functionals_planar(basis)


# name: (gauge, ambient dimension, Fraction functional list of the oracle)
ROW_GAUGES = {
    "hexagon-3,0,1,3": _hexagon_row_gauge([3, 0], [1, 3]),
    "hexagon-4,0,1,4": _hexagon_row_gauge([4, 0], [1, 4]),
    "hexagon-5,0,2,5": _hexagon_row_gauge([5, 0], [2, 5]),
    "an3": (gauge_an(3), 4, functionals_an(3)),
    "dn4": (gauge_dn(4), 4, functionals_dn(4)),
    "cube3": (gauge_sup(3), 3, functionals_sup(3)),
}


@pytest.mark.parametrize("name", sorted(ROW_GAUGES))
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_cached_rows_match_fraction_value(name, data):
    # value_scaled, the unit predicate and unit_step read the one form of
    # each gauge, which is the max of its rows; the rows on the one level and
    # the functional list on Fractions are the oracles
    gauge, m, funcs = ROW_GAUGES[name]

    def on_system(y, scale):
        dots = [sum(a * c for a, c in zip(row, y)) for row in gauge.rows]
        t = gauge.level * scale
        return all(v <= t for v in dots) and any(v == t for v in dots)

    scale = data.draw(st.integers(1, 24))
    y = data.draw(st.lists(st.integers(-40, 40), min_size=m, max_size=m))
    if gauge.require_zero_sum:
        y[-1] = -sum(y[:-1])
    value = functional_value(funcs, from_scaled(y, scale))
    assert gauge.form(y) == max(sum(map(mul, a, y)) for a in gauge.rows)
    assert gauge.value_scaled(y, scale) == gauge.value(from_scaled(y, scale)) == value
    assert gauge.unit_checker(scale)(y) == on_system(y, scale) == (value == 1)
    if any(y):
        # the same point scaled onto the unit sphere, and off it by a factor
        z, e = gauge.unit_step(y)
        assert from_scaled(z, e) == from_scaled(y, scale) / value
        assert gauge.is_unit_scaled(z, e) and on_system(z, e)
        assert not gauge.is_unit_scaled(z, 2 * e) and not on_system([2 * c for c in z], e)


@pytest.mark.parametrize("name", sorted(ROW_GAUGES))
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_row_values_match_dense_dot_products(name, data):
    # the planar rows have coefficients other than +-1; coordinates near
    # +-2^62 are where fixed-width int64 would wrap
    gauge, m, _ = ROW_GAUGES[name]
    big = 2**62
    coord = st.integers(-50, 50).flatmap(lambda c: st.sampled_from([c, c + big, c - big]))
    width = m - 1 if gauge.require_zero_sum else m
    point = st.lists(coord, min_size=width, max_size=width)
    if gauge.require_zero_sum:
        point = point.map(lambda c: c + [-sum(c)])
    points = [tuple(p) for p in data.draw(st.lists(point, max_size=12))]
    rows = gauge.rows
    assert list(row_values(rows, points)) == [[sum(map(mul, a, p)) for p in points] for a in rows]


def _row_gauges():
    """(name, gauge, facet count) for the gauges of every accepted cell."""
    families = (
        ("an", range(2, 9), gauge_an, an_vertices_scaled, lambda n: n * (n + 1)),
        ("dn", range(4, 9), gauge_dn, dn_vertices_scaled, lambda n: 2 * n * (n - 1)),
        ("cube", range(1, 12), gauge_sup, cube_vertices_scaled, lambda n: 2 * n),
    )
    for fam, dims, gauge, vertices, facets in families:
        for n in dims:
            # the facet factor of the catalog count |V|*|F|
            assert _CELLS[fam][1](n) == len(vertices(n)) * facets(n)
            yield f"{fam}{n}", gauge(n), facets(n)
    for name in sorted(ROW_GAUGES):
        if name.startswith("hexagon"):
            yield name, ROW_GAUGES[name][0], 6


def test_rows_are_symmetric_with_positive_levels():
    # GaugeNorm relies on these: the one level positive, the rows closed
    # under negation, and one row per facet; the level is the least common
    # denominator of the rows, so it shares no factor with every entry
    for name, gauge, facets in _row_gauges():
        rows = set(gauge.rows)
        assert len(rows) == len(gauge.rows) == facets, name
        assert gauge.level > 0, name
        assert math.gcd(gauge.level, *(c for a in rows for c in a)) == 1, name
        for a in rows:
            assert tuple(-c for c in a) in rows, (name, a)


def _sample_gauge_vs_voronoi(gauge, lattice, dim, project, count, seed):
    rnd = random.Random(seed)
    for _ in range(count):
        x = Vec([F(rnd.randint(-30, 30), rnd.choice([4, 5, 6, 8])) for _ in range(dim)])
        if project:
            x = project_to_hyperplane(x)
        assert (gauge.value(x) <= 1) == (zero_vec(x.dim) in closest_points(lattice, x))


def test_gauge_agrees_with_voronoi_membership():
    """gauge(x) <= 1 iff x is in the Voronoi cell, via nearest-point oracle."""
    _sample_gauge_vs_voronoi(gauge_an(2), AnLattice(2), 3, True, 1000, 1)
    _sample_gauge_vs_voronoi(gauge_dn(4), DnLattice(4), 4, False, 1000, 2)
    b = reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))
    _sample_gauge_vs_voronoi(gauge_planar(b), b.lattice(), 2, False, 1000, 3)
    # cube: the cell of 2Z^n
    g = gauge_sup(3)
    rnd = random.Random(4)
    for _ in range(1000):
        x = Vec([F(rnd.randint(-30, 30), rnd.choice([4, 5, 6, 8])) for _ in range(3)])
        near = closest_points(ZnLattice(3), x / 2)
        assert (g.value(x) <= 1) == (zero_vec(3) in [p * 2 for p in near])


def test_polytope_data_builders():
    for data in (polytope_an(3), polytope_dn(4), polytope_cube(3)):
        data.check_vertices_on_boundary()
        assert vertex_extent(data) <= 1
        # the integer check agrees with the Fraction gauge on every vertex
        assert all(data.gauge.value(from_scaled(v, data.scale)) == 1 for v in data.vertices)


def test_large_polytopes_pass_the_vertex_check():
    for data in (polytope_an(8), polytope_dn(8), polytope_cube(10)):
        data.check_vertices_on_boundary()
        assert all(data.gauge.value_scaled(v, data.scale) == 1 for v in data.vertices)


def _hexagon_cell(raw):
    return hexagon_pattern(reduce_planar_basis(Vec(raw[0]), Vec(raw[1]))).cell


def _move_vertices(data, moves):
    """data with vertex i times moves[i], every vertex at the scale times
    the common denominator of the factors."""
    q = math.lcm(*(f.denominator for f in moves.values()))
    vertices = tuple(tuple(int(c * moves.get(i, 1) * q) for c in v) for i, v in enumerate(data.vertices))
    return PolytopeData(data.family, data.lattice, data.gauge, data.scale * q, vertices)


def _not_on_boundary(data, i):
    return f"vertex {from_scaled(data.vertices[i], data.scale)} is not on the boundary"


# first-position cases keep the plain builder ids, so those test ids stay stable
MOVED_VERTEX_CASES = [
    pytest.param(builder, n, position, id=f"{builder.__name__}-{n}" + ("" if position == "first" else f"-{position}"))
    for builder, n in [(polytope_an, 3), (polytope_dn, 4), (polytope_cube, 3)]
    for position in ("first", "middle", "last")
]


@pytest.mark.parametrize("builder,n,position", MOVED_VERTEX_CASES)
@pytest.mark.parametrize("factor", [F(1, 2), F(3, 2)])
def test_check_vertices_on_boundary_rejects_moved_vertex(builder, n, position, factor):
    data = builder(n)
    i = {"first": 0, "middle": len(data.vertices) // 2, "last": len(data.vertices) - 1}[position]
    bad = _move_vertices(data, {i: factor})
    assert data.gauge.value(from_scaled(bad.vertices[i], bad.scale)) == factor
    with pytest.raises(CertificateError) as exc:
        bad.check_vertices_on_boundary()
    assert str(exc.value) == _not_on_boundary(bad, i)


@pytest.mark.parametrize(
    "make", [lambda: polytope_an(3), lambda: polytope_dn(4), lambda: _hexagon_cell(BASES[0])], ids=["an3", "dn4", "hexagon"]
)
@pytest.mark.parametrize("low,high", [(F(1, 2), F(3, 2)), (F(3, 2), F(1, 2))])
def test_check_vertices_on_boundary_names_the_lowest_moved_vertex(make, low, high):
    # one vertex falls inside the cell, the other outside: whichever it is,
    # the message names the one of lower index
    data = make()
    i, j = 1, len(data.vertices) - 2
    bad = _move_vertices(data, {i: low, j: high})
    with pytest.raises(CertificateError) as exc:
        bad.check_vertices_on_boundary()
    assert str(exc.value) == _not_on_boundary(bad, i)


@pytest.mark.parametrize(
    "make,old,new",
    [
        (lambda: polytope_cube(3), (-1, -1, -1), (-1, -1, -2)),
        (lambda: polytope_an(3), (3, -1, -1, -1), (3, 0, -1, -2)),
        (lambda: polytope_dn(4), (2, 0, 0, 0), (2, 1, 0, 0)),
        # v0 pushed past itself along the edge from v1: on face[0]'s line, beyond face[5]
        (lambda: _hexagon_cell(BASES[0]), 0, 1),
    ],
    ids=["cube3", "an3", "dn4", "hexagon"],
)
def test_check_vertices_on_boundary_rejects_vertex_on_one_face_beyond_another(make, old, new):
    data = make()
    if isinstance(old, int):
        old, new = data.vertices[old], tuple(2 * a - b for a, b in zip(data.vertices[old], data.vertices[new]))
    i = data.vertices.index(old)
    bad = PolytopeData(data.family, data.lattice, data.gauge, data.scale, data.vertices[:i] + (new,) + data.vertices[i + 1 :])
    t = bad.gauge.level * bad.scale
    dots = [sum(map(mul, a, new)) for a in bad.gauge.rows]
    assert t in dots and max(dots) > t
    with pytest.raises(CertificateError) as exc:
        bad.check_vertices_on_boundary()
    assert str(exc.value) == _not_on_boundary(bad, i)


@pytest.mark.parametrize("raw", [((3, 0), (1, 3)), ((5, 0), (2, 5))])
def test_planar_cell_vertex_check(raw):
    # the hexagon is the gauge whose level exceeds 1 and whose rows have
    # entries other than +-1
    cell = _hexagon_cell(raw)
    assert cell.gauge.level > 1
    assert any(abs(c) > 1 for a in cell.gauge.rows for c in a)
    cell.check_vertices_on_boundary()
    for i in range(6):
        for factor in (F(1, 2), F(3, 2)):
            bad = _move_vertices(cell, {i: factor})
            with pytest.raises(CertificateError) as exc:
                bad.check_vertices_on_boundary()
            assert str(exc.value) == _not_on_boundary(bad, i)


# ---------------------------------------------------------------------------
# hexagon pattern


BASES = [((3, 0), (1, 3)), ((4, 0), (1, 4)), ((5, 0), (2, 5)), ((3, 0), (1, -3))]


@pytest.mark.parametrize("raw", BASES)
def test_hexagon_pattern_invariants(raw):
    b = reduce_planar_basis(Vec(raw[0]), Vec(raw[1]))
    pat = hexagon_pattern(b)
    L = pat.lattice
    for i in range(6):
        assert pat.face[i] == pat.v[i] + pat.v[(i + 1) % 6]
        assert pat.face[(i + 3) % 6] == -pat.face[i]
        assert pat.s[i] == (pat.v[(i - 1) % 6] + pat.v[(i + 1) % 6]) / 2
        assert L.contains(pat.v[(i + 2) % 6] - pat.v[i])
        assert pat.gauge.value(pat.v[i]) == 1
        assert pat.gauge.value(pat.s[i]) < 1


@pytest.mark.parametrize("raw", BASES[:2])
def test_hexagon_exactly_seven_interior_points(raw):
    # V = (1/2)L + {0, v0, v1}; exactly 0 and the six s_i lie strictly inside
    b = reduce_planar_basis(Vec(raw[0]), Vec(raw[1]))
    pat = hexagon_pattern(b)
    half = PlanarLattice(b.b0 / 2, b.b1 / 2)
    ext = max(max(map(abs, v)) for v in pat.v)
    inside = set()
    for off in [zero_vec(2), pat.v[0], pat.v[1]]:
        for p in box_points(half, 2 * ext):
            q = p + off
            if pat.gauge.value(q) < 1:
                inside.add(q)
    assert inside == {zero_vec(2), *pat.s}


@pytest.mark.parametrize("field", ["v", "s"])
def test_hexagon_pattern_rejects_mislabeled_points(field):
    # rotating the vertex or interior labels breaks face[i] = v[i] + v[i+1]
    # or s[i] = (v[i-1] + v[i+1]) / 2, a certificate guard
    pat = hexagon_pattern(reduce_planar_basis(Vec([3, 0]), Vec([1, 3])))
    points = getattr(pat, field)
    fields = {"basis": pat.basis, "face": pat.face, "v": pat.v, "s": pat.s, "gauge": pat.gauge}
    bad = HexagonPattern(**{**fields, field: points[1:] + points[:1]})
    with pytest.raises(CertificateError):
        bad._validate()


@pytest.mark.parametrize("raw", ["3,0,1,3", "4,0,1,4", "5,0,2,5", "7,0,3,8"])
def test_steps_match_fraction_oracle(raw):
    b = [F(c) for c in raw.split(",")]
    pat = hexagon_pattern(reduce_planar_basis(Vec(b[:2]), Vec(b[2:])))
    assert pat.steps == fraction_hexagon_steps(pat)


_RATIONAL = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.tuples(_RATIONAL, _RATIONAL, _RATIONAL, _RATIONAL))
def test_steps_match_fraction_oracle_on_random_bases(raw):
    # the integer coset keys against PlanarLattice.contains on Fractions,
    # on reduced bases of every shape and denominator
    try:
        pat = hexagon_pattern(reduce_planar_basis(Vec(raw[:2]), Vec(raw[2:])))
    except DegenerateCell:
        assume(False)
    assert pat.steps == fraction_hexagon_steps(pat)


def test_hexagon_pattern_cell():
    pat = hexagon_pattern(reduce_planar_basis(Vec([F(3, 2), 0]), Vec([F(1, 2), F(3, 2)])))
    assert pat.cell.scale == pat.scale()
    assert [from_scaled(v, pat.cell.scale) for v in pat.cell.vertices] == list(pat.v)
    assert vertex_extent(pat.cell) == max(max(map(abs, v)) for v in pat.v)


def test_hexagon_b_cosets_decomposition():
    b = reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))
    pat = hexagon_pattern(b)
    half = PlanarLattice(b.b0 / 2, b.b1 / 2)
    v0, v1 = pat.class_b_offsets()
    assert not half.contains(v0)
    assert not half.contains(v1)
    assert not half.contains(v0 - v1)
    # all six s_i fall into the two class-B cosets
    for s in pat.s:
        assert half.contains(s - v0) or half.contains(s - v1)
