import functools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from voronorm import coloring as coloring_module
from voronorm.coloring import (
    ColoringReport,
    ColoringViolation,
    WITNESS_NODE_BUDGET,
    _color_scaled,
    _colorable,
    _random_scaled_point,
    _random_unit_step,
    boundary_catalog,
    chromatic_report,
    chromatic_witness_search,
    color,
    coset_coloring,
    coset_index,
    nearest_half_cell_center,
    verify_chromatic_number,
    verify_coloring,
)
from voronorm.constructions import CertificateError, hexagon_pattern
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
    to_scaled,
)
from voronorm.graphs import GeometricGraph, _bits, hex_unit_distance_graph
import oracles
from oracles import box_points, catalog_points, closest_points, fraction_catalog, project_to_hyperplane, zero_vec


def _pattern():
    return hexagon_pattern(reduce_planar_basis(Vec([3, 0]), Vec([1, 3])))


def _basis_vecs(coloring) -> list:
    """The coloring's integer basis of Lambda, read as Vecs."""
    return [from_scaled(b, coloring.lattice.scale) for b in coloring.basis]


def test_color_zero_coset():
    for fam, n in (("an", 2), ("dn", 4), ("cube", 3)):
        c = coset_coloring(fam, n)
        dim = c.lattice.ambient_dim
        assert color(c, zero_vec(dim)) == 0


def test_color_lattice_periodic():
    cases = [
        (coset_coloring("an", 2), project_to_hyperplane(Vec([F(1, 3), F(2, 5), 0]))),
        (coset_coloring("dn", 4), Vec([F(1, 3), F(2, 5), 0, F(1, 7)])),
        (coset_coloring("cube", 2), Vec([F(1, 3), F(2, 5)])),
        (coset_coloring("hexagon", pattern=_pattern()), Vec([F(1, 3), F(2, 5)])),
    ]
    for coloring, x in cases:
        for g in _basis_vecs(coloring):
            assert color(coloring, x) == color(coloring, x + g)
            assert color(coloring, x) == color(coloring, x - g * 3)


def test_color_takes_exactly_2n_values():
    c = coset_coloring("an", 2)
    seen = {color(c, z / 2) for z in box_points(AnLattice(2), 2)}
    assert seen == set(range(4))
    c = coset_coloring("cube", 3)
    seen = {color(c, Vec(z)) for z in box_points(ZnLattice(3), 2)}
    assert seen == set(range(8))
    c = coset_coloring("dn", 4)
    seen = {color(c, z / 2) for z in box_points(DnLattice(4), 2)}
    assert seen == set(range(16))


def test_half_cell_assignment_is_nearest():
    # the assigned center's cell contains the point: gauge(x - lam) <= 1/2
    rnd = random.Random(3)
    c = coset_coloring("cube", 2)
    for _ in range(100):
        x = Vec([F(rnd.randint(-40, 40), 8), F(rnd.randint(-40, 40), 8)])
        lam = nearest_half_cell_center(c, x)
        assert c.gauge.value(x - lam) <= F(1, 2)


def test_boundary_catalog_on_boundary():
    for coloring in (
        coset_coloring("an", 3),
        coset_coloring("dn", 4),
        coset_coloring("cube", 3),
        coset_coloring("hexagon", pattern=_pattern()),
    ):
        cat = catalog_points(coloring)
        assert len(cat) >= 10
        for b in cat:
            assert coloring.gauge.value(b) == 1


@pytest.mark.parametrize(
    "fam,n", [("an", 2), ("an", 3), ("an", 4), ("an", 5), ("dn", 4), ("dn", 5)] + [("cube", n) for n in range(1, 5)]
)
def test_integer_catalog_matches_fraction_oracle(fam, n):
    steps, scale = boundary_catalog(coset_coloring(fam, n))
    # every step is even, so the base points steps[i]/2 stay on the scale
    assert all(c % 2 == 0 for b in steps for c in b)
    assert [from_scaled(b, scale) for b in steps] == fraction_catalog(fam, n)


def _hexagon_bases():
    q = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.tuples(q, q, q, q).filter(lambda b: b[0] * b[3] != b[1] * b[2])


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(raw=_hexagon_bases())
def test_integer_catalog_matches_fraction_oracle_hexagon(raw):
    try:
        pattern = hexagon_pattern(reduce_planar_basis(Vec(raw[:2]), Vec(raw[2:])))
    except DegenerateCell:
        return
    steps, scale = boundary_catalog(coset_coloring("hexagon", pattern=pattern))
    assert all(c % 2 == 0 for b in steps for c in b)
    assert [from_scaled(b, scale) for b in steps] == fraction_catalog("hexagon", pattern=pattern)


@pytest.mark.parametrize(
    "fam,n,pairs", [("an", 9, 91_980), ("dn", 9, 76_320), ("cube", 12, 98_304), ("an", 20, 880_803_000)]
)
def test_coset_coloring_refuses_large_catalogs(fam, n, pairs, monkeypatch):
    # refused on the closed-form count, before any vertex is built
    monkeypatch.setattr(coloring_module, "_CELLS", {k: (None, c) for k, (_, c) in coloring_module._CELLS.items()})
    with pytest.raises(ValueError, match=f"{pairs} vertex-facet pairs exceeds the limit of 65536"):
        coset_coloring(fam, n)


def test_catalog_limit_admits_the_largest_accepted_cells():
    counts = {fam: count for fam, (_, count) in coloring_module._CELLS.items()}
    assert (counts["an"](8), counts["dn"](8), counts["cube"](11)) == (36_720, 30_464, 45_056)
    assert max(counts["an"](8), counts["dn"](8), counts["cube"](11)) <= coloring_module.MAX_CATALOG_PAIRS
    for fam, n in (("an", 3), ("dn", 4), ("cube", 3)):
        cell = coset_coloring(fam, n).cell
        assert counts[fam](n) == len(cell.vertices) * len(cell.gauge.rows)


@pytest.mark.parametrize(
    "fam,n",
    [("an", 2), ("an", 3), ("dn", 4), ("cube", 2), ("cube", 3)],
)
def test_verify_coloring_families(fam, n):
    rep = verify_coloring(coset_coloring(fam, n), 300, seed=7)
    assert rep.holds


@pytest.mark.parametrize("fam,n,catalog_pairs", [("an", 8, 68586), ("dn", 8, 54432), ("cube", 11, 172186)])
def test_verify_coloring_largest_admitted_cells(fam, n, catalog_pairs):
    # A_8, D_8 and the 11-cube are the largest cells under MAX_CATALOG_PAIRS
    rep = verify_coloring(coset_coloring(fam, n), 1, 1)
    assert rep.holds
    assert rep.catalog_pairs == catalog_pairs


def test_verify_coloring_hexagon():
    rep = verify_coloring(coset_coloring("hexagon", pattern=_pattern()), 300, seed=7)
    assert rep.holds
    assert rep.color_count == 4


# ---------------------------------------------------------------------------
# the integer sampler against the Fraction sampler it replaced


def _random_fraction(rng: random.Random, span: int = 3) -> F:
    den = rng.choice((2, 3, 4, 5, 7, 8, 9, 12, 16))
    return F(rng.randint(-span * den, span * den), den)


def _random_point(coloring, rng: random.Random) -> Vec:
    m = coloring.lattice.ambient_dim if coloring.family != "cube" else coloring.dim
    v = Vec([_random_fraction(rng) for _ in range(m)])
    if coloring.family == "an":
        return project_to_hyperplane(v)
    return v


def _random_boundary_vector(coloring, rng: random.Random) -> Vec:
    while True:
        d = _random_point(coloring, rng)
        if any(c != 0 for c in d):
            return d / coloring.gauge.value(d)


def _verify_coloring_oracle(coloring, samples: int, seed: int) -> ColoringReport:
    """The sampling and catalog loop on Fractions, one public ``color`` call
    per point."""
    rng = random.Random(seed)
    violations = []
    for _ in range(samples):
        x = _random_point(coloring, rng)
        b = _random_boundary_vector(coloring, rng)
        if not coloring.gauge.is_unit_scaled(*scaled_ints(b)):
            raise CertificateError(f"sampled step {b} is not at gauge distance 1")
        cx, cy = color(coloring, x), color(coloring, x + b)
        if cx == cy:
            violations.append(ColoringViolation(x, x + b, cx))
    catalog = catalog_points(coloring)
    base_points = [zero_vec(catalog[0].dim)]
    base_points += [b / 2 for b in catalog[:6]]
    cat_pairs = 0
    for x in base_points:
        for b in catalog:
            cat_pairs += 1
            cx, cy = color(coloring, x), color(coloring, x + b)
            if cx == cy:
                violations.append(ColoringViolation(x, x + b, cx))
    return ColoringReport(coloring.family, coloring.dim, coloring.color_count, samples, cat_pairs, violations)


# the families of the benchmark's `color` jobs
WORKLOAD_COLORINGS = {
    "an2": coset_coloring("an", 2),
    "an3": coset_coloring("an", 3),
    "an4": coset_coloring("an", 4),
    "dn4": coset_coloring("dn", 4),
    "cube2": coset_coloring("cube", 2),
    "cube3": coset_coloring("cube", 3),
    "cube4": coset_coloring("cube", 4),
    "hexagon": coset_coloring("hexagon", pattern=_pattern()),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_COLORINGS))
def test_sampler_matches_fraction_oracle(name):
    # the same RNG calls give the same x, step and colours, point by point
    coloring = WORKLOAD_COLORINGS[name]
    for seed in range(1, 11):
        new, old = random.Random(seed), random.Random(seed)
        for _ in range(25):
            xw, xd = _random_scaled_point(coloring, new)
            bw, bd = _random_unit_step(coloring, new)
            x, b = _random_point(coloring, old), _random_boundary_vector(coloring, old)
            assert (from_scaled(xw, xd), from_scaled(bw, bd)) == (x, b)
            assert _color_scaled(coloring, xw, xd) == color(coloring, x)
            yw = [a * bd + c * xd for a, c in zip(xw, bw)]
            assert _color_scaled(coloring, yw, xd * bd) == color(coloring, x + b)
        assert new.getstate() == old.getstate()
        assert verify_coloring(coloring, 25, seed) == _verify_coloring_oracle(coloring, 25, seed)


@pytest.mark.parametrize("name", ["an3", "hexagon"])
def test_violations_match_fraction_oracle(name, monkeypatch):
    # with every colour collapsed to 0 each pair is a violation, so the
    # reports compare the points and colours of every sampled and catalog pair
    monkeypatch.setattr(coloring_module, "_parity_index", lambda coords: 0)
    coloring = WORKLOAD_COLORINGS[name]
    rep = verify_coloring(coloring, 30, 5)
    assert len(rep.violations) == rep.sampled_pairs + rep.catalog_pairs
    assert rep == _verify_coloring_oracle(coloring, 30, 5)


# ---------------------------------------------------------------------------
# the integer coloring against the exact Fraction oracle

# derandomized so that every run of the suite draws the same examples
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=120)


def _coords_in_basis(basis, target: Vec) -> list:
    """Exact coordinates of target in the given basis (consistent,
    full-column-rank system; raises on inconsistency)."""
    m = target.dim
    k = len(basis)
    rows = [[basis[j][i] for j in range(k)] + [target[i]] for i in range(m)]
    # Gaussian elimination with exact fractions
    piv_cols = []
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivval = rows[r][c]
        rows[r] = [a / pivval for a in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv_cols.append(c)
        r += 1
    if len(piv_cols) != k:
        raise ValueError("basis is not full rank")
    for i in range(r, m):
        if rows[i][k] != 0:
            raise ValueError("target not in the span of the basis")
    sol = [F(0)] * k
    for i, c in enumerate(piv_cols):
        sol[c] = rows[i][k]
    return sol


def _oracle_center(coloring, x: Vec) -> Vec:
    """The least point of the full tie set of Lambda closest to 2x, halved."""
    if coloring.family == "cube":
        # Lambda = 2Z^n: scale down, decode in Z^n, scale back
        cands = [p * 2 for p in closest_points(coloring.lattice, x)]
    else:
        cands = closest_points(coloring.lattice, x * 2)
    return min(cands) / 2


def _oracle_index(coloring, lam: Vec) -> int:
    coords = _coords_in_basis(_basis_vecs(coloring), lam * 2)
    assert all(c.denominator == 1 for c in coords)
    return sum((c.numerator % 2) << i for i, c in enumerate(coords))


ORACLE_COLORINGS = {
    "an2": coset_coloring("an", 2),
    "an3": coset_coloring("an", 3),
    "an4": coset_coloring("an", 4),
    "dn4": coset_coloring("dn", 4),
    "cube2": coset_coloring("cube", 2),
    "cube3": coset_coloring("cube", 3),
    "hexagon": coset_coloring("hexagon", pattern=_pattern()),
    # a rational basis: the planar decoder works at scale 2
    "hexagon-half": coset_coloring(
        "hexagon", pattern=hexagon_pattern(reduce_planar_basis(Vec([F(3, 2), 0]), Vec([F(1, 2), F(3, 2)])))
    ),
}


def _in_domain(coloring, comps) -> Vec:
    v = Vec(comps)
    return project_to_hyperplane(v) if coloring.family == "an" else v


def _points(coloring):
    """Generic rationals, half-integer points, and points of (1/2)Lambda plus
    a half or whole boundary vector of the catalog (the half steps land on
    half-cell boundaries, where the closest-point tie sets are largest)."""
    basis = _basis_vecs(coloring)
    m = len(basis[0])
    small = st.sampled_from([1, 2, 3, 4, 6, 8]).flatmap(
        lambda d: st.integers(-3 * d, 3 * d).map(lambda k: F(k, d))
    )
    halves = st.integers(-6, 6).map(lambda k: F(k, 2))
    catalog = catalog_points(coloring)
    ties = st.tuples(
        st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)),
        st.sampled_from(catalog),
        st.sampled_from([F(1, 2), F(1), F(0)]),
    ).map(
        lambda t: sum((g * F(a, 2) for a, g in zip(t[0], basis)), zero_vec(m)) + t[1] * t[2]
    )
    return st.one_of(
        st.lists(small, min_size=m, max_size=m).map(lambda c: _in_domain(coloring, c)),
        st.lists(halves, min_size=m, max_size=m).map(lambda c: _in_domain(coloring, c)),
        ties,
    )


@pytest.mark.parametrize("name", sorted(ORACLE_COLORINGS))
@PROPERTY
@given(data=st.data())
def test_color_matches_fraction_oracle(name, data):
    coloring = ORACLE_COLORINGS[name]
    x = data.draw(_points(coloring))
    lam = _oracle_center(coloring, x)
    assert nearest_half_cell_center(coloring, x) == lam
    assert coset_index(coloring, lam) == _oracle_index(coloring, lam)
    assert color(coloring, x) == _oracle_index(coloring, lam)


def test_coset_index_rejects_points_off_half_lattice():
    c = coset_coloring("dn", 4)
    assert coset_index(c, Vec([F(1, 2), F(1, 2), 0, 0])) == 1
    with pytest.raises(ValueError):
        coset_index(c, Vec([F(1, 2), 0, 0, 0]))  # 2*lam has odd sum
    with pytest.raises(ValueError):
        coset_index(coset_coloring("an", 2), Vec([F(1, 2), 0, 0]))  # off the hyperplane
    with pytest.raises(ValueError):
        coset_index(coset_coloring("cube", 2), Vec([F(1, 3), 0]))
    with pytest.raises(ValueError):
        coset_index(c, Vec([0, 0, 0]))


BRUTE_LATTICES = {
    "z1": ZnLattice(1),
    "z3": ZnLattice(3),
    "a2": AnLattice(2),
    "a3": AnLattice(3),
    "a4": AnLattice(4),
    "d4": DnLattice(4),
    "planar": PlanarLattice(Vec([3, 0]), Vec([1, 3])),
    "planar-half": PlanarLattice(Vec([F(3, 2), 0]), Vec([F(1, 2), F(3, 2)])),
    "planar-skew": PlanarLattice(Vec([1, 3]), Vec([F(5, 2), -1])),  # negative determinant
}


@functools.cache
def _box_points(name: str) -> tuple:
    """Every lattice point with coordinates in [-4, 4], as integers at a
    common scale; each closest point to a target in [-1, 1]^m lies in it."""
    pts = box_points(BRUTE_LATTICES[name], 4)
    scale = math.lcm(*(a.denominator for p in pts for a in p))
    return pts, [to_scaled(p, scale) for p in pts], scale


@pytest.mark.parametrize("name", sorted(BRUTE_LATTICES))
@PROPERTY
@given(data=st.data())
def test_closest_lattice_points_match_box_search(name, data):
    lattice = BRUTE_LATTICES[name]
    pts, ints, scale = _box_points(name)
    m = lattice.ambient_dim
    coord = st.sampled_from([1, 2, 3, 4, 6]).flatmap(lambda d: st.integers(-d, d).map(lambda k: F(k, d)))
    x = Vec(data.draw(st.lists(coord, min_size=m, max_size=m)))
    if lattice.family == "an":
        x = project_to_hyperplane(x)
    d = math.lcm(*(a.denominator for a in x))
    w = [int(a * d) * scale for a in x]
    costs = [sum((c * d - t) ** 2 for c, t in zip(p, w)) for p in ints]
    least = min(costs)
    assert closest_points(lattice, x) == sorted(p for p, c in zip(pts, costs) if c == least)


COORDINATE_LATTICES = {
    **{f"z{n}": ZnLattice(n) for n in range(1, 12)},
    **{f"a{n}": AnLattice(n) for n in range(2, 9)},
    **{f"d{n}": DnLattice(n) for n in range(3, 9)},
    **{name: lat for name, lat in BRUTE_LATTICES.items() if lat.family == "planar"},
}


@pytest.mark.parametrize("name", sorted(COORDINATE_LATTICES))
@PROPERTY
@given(data=st.data())
def test_coordinates_invert_the_basis_sum(name, data):
    # the oracle is the basis sum itself: p = sum a_i * int_basis[i]
    lattice = COORDINATE_LATTICES[name]
    basis = lattice.int_basis
    a = data.draw(st.lists(st.integers(-9, 9), min_size=len(basis), max_size=len(basis)))
    p = tuple(sum(c * b[i] for c, b in zip(a, basis)) for i in range(lattice.ambient_dim))
    assert lattice.coordinates(p) == a


def _fraction_cramer(lattice, x: Vec) -> tuple:
    """Exact (c0, c1) with x = c0*b0 + c1*b1, on Fractions."""
    b0, b1 = lattice.b0, lattice.b1
    det = b0[0] * b1[1] - b0[1] * b1[0]
    return (x[0] * b1[1] - x[1] * b1[0]) / det, (b0[0] * x[1] - b0[1] * x[0]) / det


@pytest.mark.parametrize("name", sorted(n for n, lat in BRUTE_LATTICES.items() if lat.family == "planar"))
@PROPERTY
@given(data=st.data())
def test_planar_contains_matches_fraction_cramer(name, data):
    # free points and halves, thirds and sixths of basis combinations, so
    # that lattice points and points just off the lattice both occur
    lattice = BRUTE_LATTICES[name]
    coord = st.sampled_from([1, 2, 3, 4, 6]).flatmap(lambda d: st.integers(-3 * d, 3 * d).map(lambda k: F(k, d)))
    x = data.draw(
        st.one_of(
            st.tuples(coord, coord).map(Vec),
            st.tuples(coord, coord).map(lambda c: lattice.b0 * c[0] + lattice.b1 * c[1]),
        )
    )
    assert lattice.contains(x) == all(c.denominator == 1 for c in _fraction_cramer(lattice, x))


# ---------------------------------------------------------------------------
# exact chromatic numbers


def _graph_from_edges(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return GeometricGraph(1, [(i,) for i in range(n)], adj)


def _proper_coloring_check(g, assignment: dict) -> bool:
    for v, c in assignment.items():
        for u in _bits(g.adj[v]):
            if u in assignment and assignment[u] == c:
                return False
    return True


def test_chromatic_number_known_graphs():
    # the decider answers False one color short of chi and True at chi; the
    # oracle finds chi and a proper coloring that uses all chi colors
    k4 = _graph_from_edges(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    c5 = _graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    bip = _graph_from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    for g, chi in ((k4, 4), (c5, 3), (bip, 2)):
        assert not _colorable(g, range(g.n), chi - 1, WITNESS_NODE_BUDGET)
        assert _colorable(g, range(g.n), chi, WITNESS_NODE_BUDGET)
        k, assignment = oracles.chromatic_number(g)
        assert k == chi and len(assignment) == g.n
        assert _proper_coloring_check(g, assignment)
        assert len(set(assignment.values())) == chi


@st.composite
def _small_graphs_and_subsets(draw):
    n = draw(st.integers(0, 9))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    verts = draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    return _graph_from_edges(n, edges), verts


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(graph=_small_graphs_and_subsets(), k=st.integers(1, 4))
def test_colorable_matches_chromatic_number_oracle(graph, k):
    g, verts = graph
    assert _colorable(g, verts, k, WITNESS_NODE_BUDGET) == (oracles.chromatic_number(g, verts)[0] <= k)
    assert _colorable(g, range(g.n), k, WITNESS_NODE_BUDGET) == (oracles.chromatic_number(g)[0] <= k)


def test_colorable_raises_past_its_budget():
    # 2-coloring C5 fails only after more than one search node
    c5 = _graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    with pytest.raises(TimeoutError):
        _colorable(c5, range(5), 2, 1)
    assert not _colorable(c5, range(5), 2, 100)


def test_verify_chromatic_number_independent_path():
    c5 = _graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert verify_chromatic_number(c5, range(5), 3)
    assert not verify_chromatic_number(c5, range(5), 2)
    assert not verify_chromatic_number(c5, range(5), 4)  # 3-colorable, so not exactly 4


def test_witness_search_trivial():
    g = hex_unit_distance_graph(_pattern(), 2)
    res = chromatic_witness_search(g, _pattern().gauge, 1)
    assert res.found and res.vertex_count == 1


def test_witness_search_k4_hexagon():
    pat = _pattern()
    g = hex_unit_distance_graph(pat, 3)
    res = chromatic_witness_search(g, pat.gauge, 4)
    assert res.found
    assert res.verified
    assert res.vertex_count >= 4
    # independent re-check through the verification code path
    assert verify_chromatic_number(g, res.vertex_indices, 4)


def test_witness_search_k5_not_found():
    pat = _pattern()
    g = hex_unit_distance_graph(pat, 3)
    res = chromatic_witness_search(g, pat.gauge, 5, node_budget=100_000)
    assert not res.found


# ---------------------------------------------------------------------------
# chromatic reports


def test_chromatic_reports():
    assert (lambda r: (r.upper, r.lower, r.conclusion))(chromatic_report("an", 2)) == (4, 4, "tight")
    assert (lambda r: (r.upper, r.lower, r.conclusion))(chromatic_report("an", 3)) == (8, 8, "tight")
    assert (lambda r: (r.upper, r.lower, r.conclusion))(chromatic_report("cube", 3)) == (8, 8, "tight")
    r = chromatic_report("dn", 4)
    assert (r.upper, r.lower, r.conclusion) == (16, 15, "gap")
    r = chromatic_report("hexagon", pattern=_pattern())
    assert (r.upper, r.lower, r.conclusion) == (4, 4, "tight")
