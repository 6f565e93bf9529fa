import functools
import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from voronorm.coloring import DRAW_DENS, DRAW_SCALE, boundary_catalog, coset_coloring
from voronorm.constructions import hexagon_pattern
from voronorm.geometry import (
    AnLattice,
    DegenerateCell,
    DimensionMismatch,
    DnLattice,
    PlanarLattice,
    Vec,
    ZnLattice,
    count_an_half_dual_scaled,
    count_dn_half_dual_scaled,
    count_planar_coset_in_box,
    enumerate_an_half_dual_scaled,
    enumerate_dn_half_dual_scaled,
    from_scaled,
    planar_coset_in_box,
    reduce_planar_basis,
    to_scaled,
)
import oracles
from oracles import box_points, closest_points, coset_in_box, zero_vec


# ---------------------------------------------------------------------------
# planar basis reduction


def test_reduce_example():
    b = reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))
    assert (b.b0, b.b1, b.b2) == (Vec([3, 0]), Vec([1, 3]), Vec([-2, 3]))
    ip2 = 2 * b.b0.dot(b.b1)
    assert 0 < ip2 < b.b0.norm2() <= b.b1.norm2()


def test_reduce_unimodular_input_same_output():
    # (4,3) = (1,3) + (3,0): same lattice, same reduced basis
    a = reduce_planar_basis(Vec([3, 0]), Vec([4, 3]))
    b = reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))
    assert (a.b0, a.b1, a.b2) == (b.b0, b.b1, b.b2)


def test_reduce_rejects_rectangular():
    with pytest.raises(DegenerateCell):
        reduce_planar_basis(Vec([1, 0]), Vec([0, 1]))


def test_reduce_rejects_boundary_case():
    # 2<b0,b1> = |b0|^2
    with pytest.raises(DegenerateCell):
        reduce_planar_basis(Vec([2, 0]), Vec([1, 2]))


def test_reduce_rejects_dependent():
    with pytest.raises(DegenerateCell):
        reduce_planar_basis(Vec([2, 1]), Vec([4, 2]))


def test_reduce_fractional_basis():
    scaled = reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))
    b = reduce_planar_basis(Vec([F(3, 2), 0]), Vec([F(1, 2), F(3, 2)]))
    assert (b.b0, b.b1, b.b2) == (scaled.b0 / 2, scaled.b1 / 2, scaled.b2 / 2)


def test_reduce_spans_same_lattice():
    rnd = random.Random(3)
    for _ in range(25):
        b0 = Vec([rnd.randint(-5, 5), rnd.randint(-5, 5)])
        b1 = Vec([rnd.randint(-5, 5), rnd.randint(-5, 5)])
        if b0[0] * b1[1] - b0[1] * b1[0] == 0:
            continue
        try:
            red = reduce_planar_basis(b0, b1)
        except DegenerateCell:
            continue
        before = PlanarLattice(b0, b1)
        after = red.lattice()
        for v in (b0, b1):
            assert after.contains(v)
        for v in (red.b0, red.b1):
            assert before.contains(v)


def test_reduce_matches_exhaustive_shortest_basis():
    # oracle: shortest vector, then the shortest vector independent of it
    b = reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))
    lat = b.lattice()
    pts = [p for p in box_points(lat, 12) if p != zero_vec(2)]
    shortest = min(p.norm2() for p in pts)
    assert b.b0.norm2() == shortest
    second = min(
        p.norm2()
        for p in pts
        if p[0] * b.b0[1] - p[1] * b.b0[0] != 0
    )
    assert b.b1.norm2() == second


def test_face_vectors_are_voronoi_relevant():
    """Each +-b0, +-b1, +-b2 supports a facet: its midpoint is in the cell
    and equality holds only against 0 and the vector itself."""
    b = reduce_planar_basis(Vec([3, 0]), Vec([1, 3]))
    lat = b.lattice()
    ball = [p for p in box_points(lat, 13)]
    for v in b.face_vectors():
        m = v / 2
        d0 = m.norm2()
        for w in ball:
            dw = (m - w).norm2()
            assert dw >= d0 - (0 if w in (zero_vec(2), v) else F(0))
            if w not in (zero_vec(2), v):
                assert dw > d0, (v, w)


# ---------------------------------------------------------------------------
# integer lattice bases


def _gram_det(basis) -> F:
    """Determinant of the Gram matrix of basis, by elimination; the matrix is
    positive definite for independent vectors, so no pivot vanishes."""
    g = [[F(sum(a * b for a, b in zip(u, v))) for v in basis] for u in basis]
    det = F(1)
    for c in range(len(g)):
        det *= g[c][c]
        for i in range(c + 1, len(g)):
            g[i] = [a - g[i][c] / g[c][c] * b for a, b in zip(g[i], g[c])]
    return det


@pytest.mark.parametrize(
    "lattice, disc",
    [(ZnLattice(3), 1), (AnLattice(2), 3), (AnLattice(5), 6), (DnLattice(4), 4), (DnLattice(7), 4)],
    ids=["z3", "a2", "a5", "d4", "d7"],
)
def test_int_basis_spans_the_lattice(lattice, disc):
    # n lattice vectors whose Gram determinant is the lattice's discriminant
    # (1, n+1 and 4: Conway-Sloane, SPLAG ch. 4) form a basis of it
    basis = lattice.int_basis
    assert len(basis) == lattice.n and {len(b) for b in basis} == {lattice.ambient_dim}
    assert all(lattice.contains(Vec(b)) for b in basis)
    assert _gram_det(basis) == disc


def test_lattice_dimension_floor():
    for cls, least in ((ZnLattice, 1), (AnLattice, 2), (DnLattice, 3)):
        assert cls(least).n == least
        with pytest.raises(ValueError, match=f"n >= {least} required"):
            cls(least - 1)


# ---------------------------------------------------------------------------
# closest lattice points


def test_closest_zn_examples():
    assert closest_points(ZnLattice(2), Vec([F(1, 4), F(1, 4)])) == [zero_vec(2)]
    assert closest_points(ZnLattice(1), Vec([F(1, 2)])) == [Vec([0]), Vec([1])]


def test_closest_dn_tie_set():
    got = closest_points(DnLattice(4), Vec([1, 0, 0, 0]))
    want = sorted(
        Vec(t)
        for t in [
            (0, 0, 0, 0),
            (1, 1, 0, 0),
            (1, -1, 0, 0),
            (1, 0, 1, 0),
            (1, 0, -1, 0),
            (1, 0, 0, 1),
            (1, 0, 0, -1),
            (2, 0, 0, 0),
        ]
    )
    assert got == want


def test_closest_points_all_same_distance():
    rnd = random.Random(11)
    lattices = [ZnLattice(3), DnLattice(4), AnLattice(3)]
    for lat in lattices:
        for _ in range(20):
            m = lat.ambient_dim
            x = Vec([F(rnd.randint(-40, 40), rnd.choice([3, 4, 6, 8])) for _ in range(m)])
            if lat.family == "an":
                s = x.sum() / m
                x = Vec([a - s for a in x])
            pts = closest_points(lat, x)
            assert pts == sorted(pts)
            d = (x - pts[0]).norm2()
            assert all((x - p).norm2() == d for p in pts)
            assert all(lat.contains(p) for p in pts)


def test_closest_an_off_hyperplane_raises():
    with pytest.raises(DimensionMismatch):
        AnLattice(2).nearest_scaled([1, 0, 0], 1)


@pytest.mark.parametrize(
    "lattice",
    [ZnLattice(3), AnLattice(2), DnLattice(4), PlanarLattice(Vec([3, 0]), Vec([1, 3]))],
    ids=["z3", "a2", "d4", "planar"],
)
def test_nearest_scaled_rejects_wrong_length(lattice):
    m = lattice.ambient_dim
    for w in ([0] * (m - 1), [0] * (m + 1)):
        with pytest.raises(DimensionMismatch):
            lattice.nearest_scaled(w, 1)


def test_closest_planar_brute_force():
    lat = PlanarLattice(Vec([3, 0]), Vec([1, 3]))
    rnd = random.Random(5)
    allpts = [lat.b0 * a + lat.b1 * b for a in range(-8, 9) for b in range(-8, 9)]
    for _ in range(30):
        x = Vec([F(rnd.randint(-60, 60), 7), F(rnd.randint(-60, 60), 9)])
        got = closest_points(lat, x)
        dmin = min((x - p).norm2() for p in allpts)
        want = sorted(p for p in allpts if (x - p).norm2() == dmin)
        assert got == want


DECODER_LATTICES = {
    "z1": ZnLattice(1),
    "z3": ZnLattice(3),
    **{f"a{n}": AnLattice(n) for n in range(2, 9)},
    **{f"d{n}": DnLattice(n) for n in range(4, 9)},
    "planar": PlanarLattice(Vec([3, 0]), Vec([1, 3])),
    "planar-half": PlanarLattice(Vec([F(3, 2), 0]), Vec([F(1, 2), F(3, 2)])),
    "planar-skew": PlanarLattice(Vec([1, 3]), Vec([F(5, 2), -1])),  # negative determinant
}


@functools.cache
def _catalog_inputs(name: str) -> tuple:
    """The base points and steps of the coloring's catalog check, with the
    catalog's scale: the check decodes 2(base + step) over that scale."""
    lattice = DECODER_LATTICES[name]
    steps, scale = boundary_catalog(coset_coloring(lattice.family, lattice.n))
    return [(0,) * len(steps[0])] + [tuple(c // 2 for c in b) for b in steps[:6]], steps, scale


def _decoder_inputs(name: str):
    """(w, d) pairs: points on the sampler's denominator DRAW_SCALE (for A_n
    projected as the sampler does, over DRAW_SCALE*(n+1)), half-integer
    points, lattice points and their halves, and for A_n and D_n the
    catalog check's own inputs, which carry the largest tie sets."""
    lattice = DECODER_LATTICES[name]
    m, basis, an = lattice.ambient_dim, lattice.int_basis, lattice.family == "an"

    def sampled(w):
        s = sum(w)
        return ([c * m - s for c in w], DRAW_SCALE * m) if an else (w, DRAW_SCALE)

    coord = st.sampled_from(DRAW_DENS).flatmap(
        lambda den: st.integers(-6 * den, 6 * den).map(lambda k: k * (DRAW_SCALE // den))
    )
    halves = st.lists(st.integers(-6, 6), min_size=m, max_size=m)
    coeffs = st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis))
    kinds = [
        st.lists(coord, min_size=m, max_size=m).map(sampled),
        halves.map(lambda h: (h[:-1] + [-sum(h[:-1])] if an else h, 2)),
        st.tuples(coeffs, st.sampled_from([1, 2])).map(
            lambda t: ([sum(a * b[i] for a, b in zip(t[0], basis)) for i in range(m)], t[1] * lattice.scale)
        ),
    ]
    if lattice.family in ("an", "dn"):
        bases, steps, scale = _catalog_inputs(name)
        kinds.append(
            st.tuples(st.sampled_from(bases), st.sampled_from(steps)).map(
                lambda t: ([2 * (a + b) for a, b in zip(*t)], scale)
            )
        )
    return st.one_of(kinds)


@pytest.mark.parametrize("name", sorted(DECODER_LATTICES))
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_nearest_scaled_is_least_of_oracle_tie_set(name, data):
    lattice = DECODER_LATTICES[name]
    w, d = data.draw(_decoder_inputs(name))
    want = min(closest_points(lattice, from_scaled(w, d)))
    assert lattice.nearest_scaled(w, d) == to_scaled(want, lattice.scale)


# ---------------------------------------------------------------------------
# lattice membership: ``contains`` over the integer box scan of the oracle


def test_box_zn():
    assert len(box_points(ZnLattice(2), 1)) == 9


def test_box_an2():
    pts = box_points(AnLattice(2), 1)
    assert len(pts) == 7
    assert zero_vec(3) in pts
    from itertools import permutations

    for p in set(permutations((1, -1, 0))):
        assert Vec(p) in pts


def test_box_dn4_matches_exhaustive_scan():
    # oracle: exhaustive scan of {-1,0,1}^4 with even coordinate sum
    want = sorted(Vec(t) for t in product((-1, 0, 1), repeat=4) if sum(t) % 2 == 0)
    got = box_points(DnLattice(4), 1)
    assert got == want
    assert len(got) == 41  # frozen from the oracle above
    assert zero_vec(4) in got
    # ... and contains the 24 permutations of (+-1, +-1, 0, 0)
    two_nonzero = [p for p in got if sum(1 for c in p if c != 0) == 2]
    assert len(two_nonzero) == 24


_RATIONAL = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    st.tuples(_RATIONAL, _RATIONAL, _RATIONAL, _RATIONAL),
    st.sampled_from([F(1, 3), F(1), F(2), F(7, 2)]),
)
def test_planar_coset_in_box_matches_fraction_oracle(raw, k):
    # the hexagon's half basis and its three coset offsets 0, v0, v1, at
    # radii that are multiples k of the cell's vertex extent
    try:
        pat = hexagon_pattern(reduce_planar_basis(Vec(raw[:2]), Vec(raw[2:])))
    except DegenerateCell:
        assume(False)
    scale = pat.scale()
    b0h, b1h = pat.a_generators()
    radius = k * max(max(map(abs, v)) for v in pat.v)
    for off in (zero_vec(2),) + pat.class_b_offsets():
        want = sorted(to_scaled(p, scale) for p in coset_in_box(b0h, b1h, off, radius))
        got = planar_coset_in_box(*pat.half_basis_scaled, to_scaled(off, scale), radius * scale)
        assert sorted(got) == want
        assert len(set(got)) == len(got)
        if k >= 1:
            # the box holds the offset itself (zero, or a cell vertex)
            assert want
    # the lattice L itself, at the scale of its integer basis
    lat = pat.lattice
    want = sorted(to_scaled(p, lat.scale) for p in coset_in_box(lat.b0, lat.b1, zero_vec(2), radius))
    assert sorted(planar_coset_in_box(*lat.int_basis, (0, 0), radius * lat.scale)) == want


_SMALL = st.integers(-9, 9)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.tuples(_SMALL, _SMALL, _SMALL, _SMALL),
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
    st.fractions(min_value=-3, max_value=40, max_denominator=7),
)
def test_planar_coset_count_matches_enumeration(pq, offset, bound):
    p, q = pq[:2], pq[2:]
    assume(p[0] * q[1] - p[1] * q[0] != 0)
    assert count_planar_coset_in_box(p, q, offset, bound) == len(planar_coset_in_box(p, q, offset, bound))


# ---------------------------------------------------------------------------
# half dual lattices (graph vertex sets)


def test_an_half_dual_characterization():
    n = 2
    pts = enumerate_an_half_dual_scaled(n, 1)
    assert pts == sorted(set(pts))
    for y in pts:
        assert sum(y) == 0
        assert len({c % (n + 1) for c in y}) == 1
        assert all(abs(c) <= 2 * (n + 1) for c in y)
    # contains the halved dual basis vectors (n+1)e_i - ones
    assert (2, -1, -1) in pts
    # and the lattice A_n itself, scaled
    assert (6, -6, 0) in pts


def test_dn_half_dual_characterization():
    pts = enumerate_dn_half_dual_scaled(4, 1)
    for y in pts:
        parities = {c % 2 for c in y}
        assert len(parities) == 1
        assert all(abs(c) <= 4 for c in y)
    assert (1, 1, 1, 1) in pts  # (1/2,...,1/2)/2 scaled by 4
    assert (2, 0, 0, 0) in pts  # (1/2,0,0,0) scaled by 4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_an_half_dual_count_matches_enumeration(n):
    for radius in (0, F(1, 4), F(1, 2), F(2, 3), F(3, 4), 1, F(5, 4)):
        assert count_an_half_dual_scaled(n, radius) == len(enumerate_an_half_dual_scaled(n, radius)), radius


@pytest.mark.parametrize("n", range(2, 9))
def test_an_half_dual_count_matches_subset_sum(n):
    # one to five values per residue, and boxes at and just off the radii
    # 1/4 and 1/2 where a residue first holds two and three values
    radii = (0, F(1, 7), F(1, 4), F(1, 3), F(1, 2), F(3, 5), 1, F(5, 4), F(7, 4), 2)
    for radius in radii:
        assert count_an_half_dual_scaled(n, radius) == oracles.an_box_count_by_subset_sum(n, radius), radius


@pytest.mark.parametrize("n", [4, 5])
def test_dn_half_dual_count_matches_enumeration(n):
    for radius in (0, F(1, 4), F(1, 2), F(3, 4), 1, F(5, 4)):
        assert count_dn_half_dual_scaled(n, radius) == len(enumerate_dn_half_dual_scaled(n, radius)), radius


def in_voronoi_cell(lattice, x: Vec) -> bool:
    """Whether x is at least as close to 0 as to every other lattice point."""
    return zero_vec(x.dim) in closest_points(lattice, x)


def test_voronoi_membership_helper():
    lat = ZnLattice(2)
    assert in_voronoi_cell(lat, Vec([F(1, 2), F(1, 2)]))
    assert not in_voronoi_cell(lat, Vec([F(3, 4), 0]))
