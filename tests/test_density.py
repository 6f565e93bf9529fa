import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from voronorm import geometry, graphs
from voronorm.constructions import an_vertices_scaled, dn_vertices_scaled, gauge_an, hexagon_pattern
import voronorm.density as density
from voronorm.density import (
    BoundViolated,
    ChainClique,
    CrossCheckMismatch,
    HEX_EXPECTED_DELTAS,
    UnknownComponentType,
    _avoiding_subsets,
    _classify_component,
    an_brute_neighborhood_counts,
    an_neighborhood_size_formula,
    dn_brute_neighborhood_counts,
    dn_cmax_points_scaled,
    enumerate_chain_cliques,
    verify_an_bound,
    verify_dn_bound,
    verify_hexagon_bound,
)
from voronorm.geometry import (
    Vec,
    an_half_dual_scale,
    dn_half_dual_scale,
    enumerate_an_half_dual_scaled,
    enumerate_dn_half_dual_scaled,
    reduce_planar_basis,
)
from voronorm.graphs import GeometricGraph, hex_step_extent
from voronorm.independence import max_independent_set
from voronorm.reports import certificate_dict
from oracles import (
    NotAvoiding,
    an_cayley_graph,
    box_hexagon_certificate,
    cayley_step_extent,
    class_mask,
    corrupt_dn_singleton_reference,
    counts_for_subset,
    decompose_avoiding_set,
    graph_distance_2_pairs,
    hex_pattern_graph,
    hexagon_oracle_patterns,
    interior_bound_scaled,
    is_interior,
    neighbors,
    pattern_cosets,
    ring_sweep_pattern_graph,
    ring_sweep_step_extent,
    vertex,
    zero_vec,
)


# ---------------------------------------------------------------------------
# chain cliques


def test_enumerate_chain_cliques_counts():
    assert len(enumerate_chain_cliques(2)) == 4
    assert len(enumerate_chain_cliques(3)) == 8
    weights = [c.weights for c in enumerate_chain_cliques(2)]
    assert weights == [(), (1,), (1, 2), (2,)]


def test_chain_cliques_are_cliques_in_cayley_graph():
    gens = set(an_vertices_scaled(3))
    for clique in enumerate_chain_cliques(3):
        pts = clique.points_scaled()
        for a, b in combinations(pts, 2):
            assert tuple(x - y for x, y in zip(a, b)) in gens


def test_formula_examples():
    assert an_neighborhood_size_formula(2, (1, 2)) == 12
    assert an_neighborhood_size_formula(2, (1,)) == 10
    assert an_neighborhood_size_formula(2, (2,)) == 10
    assert an_neighborhood_size_formula(2, ()) == 7
    assert an_neighborhood_size_formula(3, (1, 2, 3)) == 32


@pytest.mark.parametrize("n", [2, 3, 4])
def test_formula_matches_brute_force(n):
    brute = an_brute_neighborhood_counts(n)
    for clique in enumerate_chain_cliques(n):
        assert brute[clique.weights] == an_neighborhood_size_formula(n, clique.weights)


def _union_count(points, gens):
    pts = set()
    zero = tuple([0] * len(points[0]))
    for c in points:
        for g in list(gens) + [zero]:
            pts.add(tuple(a + b for a, b in zip(c, g)))
    return len(pts)


@pytest.mark.parametrize("n", [2, 3])
def test_brute_force_matches_union_materialization(n):
    # second independent oracle: materialize C + (S u {0}) and count
    gens = set(an_vertices_scaled(n))
    brute = an_brute_neighborhood_counts(n)
    for clique in enumerate_chain_cliques(n):
        assert brute[clique.weights] == _union_count(clique.points_scaled(), gens)


def test_neighborhood_lower_bound_invariant():
    # |N[C]| >= (s+1) 2^n with equality exactly for the full chain
    for n in (2, 3, 4, 5):
        for clique in enumerate_chain_cliques(n):
            s = len(clique.weights)
            nb = an_neighborhood_size_formula(n, clique.weights)
            assert nb >= (s + 1) * 2**n
            is_full = clique.weights == tuple(range(1, n + 1))
            assert (nb == (s + 1) * 2**n) == is_full


def test_density_invariant_under_coordinate_permutation():
    # canonical-form enumeration loses nothing: permuted cliques have the
    # same neighborhood size (union-materialization oracle)
    rnd = random.Random(9)
    n = 3
    gens = set(an_vertices_scaled(n))
    for clique in enumerate_chain_cliques(n):
        base = _union_count(clique.points_scaled(), gens)
        for _ in range(5):
            perm = list(range(n + 1))
            rnd.shuffle(perm)
            pts = [tuple(p[i] for i in perm) for p in clique.points_scaled()]
            gperm = {tuple(g[i] for i in perm) for g in gens}
            assert gperm == gens  # generator set is permutation invariant
            assert _union_count(pts, gens) == base


def test_verify_an_bound_regular_hexagon_values():
    cert = verify_an_bound(2)
    assert cert.matches_expected
    assert {e.density for e in cert.entries} == {F(1, 7), F(1, 5), F(1, 4)}
    assert cert.maximizers == ["{0,1,2}"]


@pytest.mark.parametrize("n", [3, 4])
def test_verify_an_bound_small(n):
    cert = verify_an_bound(n)
    assert cert.assembled_bound == F(1, 2**n)
    assert cert.maximizers == ["{0," + ",".join(map(str, range(1, n + 1))) + "}"]


def test_verify_an_bound_cross_check_beyond_default_range():
    # the certificate cross-checks the closed form at every n; this checks
    # the translate count against it directly past n = 6, up to the n <= 12
    # limit of the chain cliques
    for n in range(7, 13):
        brute = an_brute_neighborhood_counts(n)
        for clique in enumerate_chain_cliques(n):
            assert brute[clique.weights] == an_neighborhood_size_formula(n, clique.weights), (n, clique.weights)


def test_verify_an_cross_check_detects_corruption(monkeypatch):
    import voronorm.density as density

    good = an_brute_neighborhood_counts(2)
    bad = dict(good)
    bad[(1,)] += 1
    monkeypatch.setattr(density, "an_brute_neighborhood_counts", lambda n: bad)
    with pytest.raises(CrossCheckMismatch):
        density.verify_an_bound(2)


# ---------------------------------------------------------------------------
# box-scan oracle for the brute-force neighbourhood counts


def _box_scan_counts(targets, gens, points, subset_masks):
    """|N[C]| by scanning every lattice point of a box that holds all the
    translates: a point counts for C when it equals or is adjacent to some
    target whose bit is in C's mask."""
    gen_set = set(gens)
    hist = Counter()
    for y in points:
        m = 0
        for b, q in enumerate(targets):
            if y == q or tuple(a - c for a, c in zip(y, q)) in gen_set:
                m |= 1 << b
        if m:
            hist[m] += 1
    return {key: counts_for_subset(hist, mask) for key, mask in subset_masks.items()}


def _reach(targets, gens):
    zero = tuple([0] * len(targets[0]))
    return max(abs(c + g) for t in targets for gen in [zero, *gens] for c, g in zip(t, gen))


def _an_targets(n):
    targets = [tuple([0] * (n + 1))]
    return targets + [ChainClique(n, (w,)).points_scaled()[1] for w in range(1, n + 1)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_an_brute_counts_match_box_scan(n):
    gens = an_vertices_scaled(n)
    targets = _an_targets(n)
    box = enumerate_an_half_dual_scaled(n, F(_reach(targets, gens), an_half_dual_scale(n)))
    masks = {c.weights: 1 | sum(1 << w for w in c.weights) for c in enumerate_chain_cliques(n)}
    assert an_brute_neighborhood_counts(n) == _box_scan_counts(targets, gens, box, masks)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_dn_brute_counts_match_box_scan(n):
    gens = dn_vertices_scaled(n)
    targets = dn_cmax_points_scaled(n)
    box = enumerate_dn_half_dual_scaled(n, F(_reach(targets, gens), dn_half_dual_scale(n)))
    brute = dn_brute_neighborhood_counts(n)
    masks = {extra: 1 | sum(1 << (i + 1) for i in extra) for extra in brute}
    assert brute == _box_scan_counts(targets, gens, box, masks)


@pytest.mark.parametrize("n", range(2, 11))
def test_an_subset_sum_counts_match_per_clique_sum(n):
    # the one subset-sum pass against a sum over every mask of the
    # histogram for each clique on its own
    hist = density._translate_mask_counts(_an_targets(n), an_vertices_scaled(n))
    masks = {c.weights: 1 | sum(1 << w for w in c.weights) for c in enumerate_chain_cliques(n)}
    assert an_brute_neighborhood_counts(n) == {key: counts_for_subset(hist, m) for key, m in masks.items()}


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(data=st.data(), bits=st.integers(1, 8))
def test_meeting_counts_match_per_mask_sum(data, bits):
    masks = st.integers(0, (1 << bits) - 1)
    hist = Counter(data.draw(st.dictionaries(masks, st.integers(1, 1000), max_size=40)))
    meets = density._meeting_counts(hist, bits)
    assert meets == [counts_for_subset(hist, s) for s in range(1 << bits)]


# ---------------------------------------------------------------------------
# D_n


def test_dn_brute_counts_n4():
    brute = dn_brute_neighborhood_counts(4)
    assert brute[()] == 25
    assert brute[(0,)] == brute[(1,)] == brute[(2,)] == 40
    assert brute[(0, 1)] == brute[(0, 2)] == brute[(1, 2)] == 51
    assert brute[(0, 1, 2)] == 60


def test_dn_brute_matches_union_materialization():
    for n in (4, 5):
        gens = set(dn_vertices_scaled(n))
        brute = dn_brute_neighborhood_counts(n)
        targets = dn_cmax_points_scaled(n)
        for extra in brute:
            pts = [targets[0]] + [targets[i + 1] for i in extra]
            assert brute[extra] == _union_count(pts, gens)


def test_verify_dn_bound_headline_and_no_mismatch():
    cert = verify_dn_bound(4)
    assert cert.assembled_bound == F(1, 15)
    assert cert.matches_expected
    assert cert.maximizers == ["{0,v1/2,v2/2,v3/2}"]
    # the singleton's closed neighborhood is 0 plus all 2n + 2^n generators
    singleton = [e for e in cert.entries if e.label == "{0}"][0]
    assert singleton.density == F(1, 25)
    assert singleton.expected_density == F(1, 25)
    assert singleton.matches
    assert cert.mismatched_entries() == []
    assert cert.notes == []


def test_dn_cmax_is_clique():
    gens = set(dn_vertices_scaled(4))
    pts = dn_cmax_points_scaled(4)
    for a, b in combinations(pts, 2):
        assert tuple(x - y for x, y in zip(a, b)) in gens


# ---------------------------------------------------------------------------
# hexagon certificate


@pytest.mark.parametrize(
    "raw", [((3, 0), (1, 3)), ((4, 0), (1, 4)), ((5, 0), (2, 5)), ((3, 0), (1, -3))]
)
def test_verify_hexagon_bound(raw):
    pat = hexagon_pattern(reduce_planar_basis(Vec(raw[0]), Vec(raw[1])))
    cert = verify_hexagon_bound(pat)
    assert cert.assembled_bound == F(1, 4)
    assert cert.max_density == F(3, 8)
    assert {e.label: e.density for e in cert.entries} == HEX_EXPECTED_DELTAS
    assert all(e.matches for e in cert.entries)


# ---------------------------------------------------------------------------
# certificate guards


def _hexagon_3013():
    return hexagon_pattern(reduce_planar_basis(Vec([3, 0]), Vec([1, 3])))


@pytest.mark.parametrize(
    "bound_name, run",
    [
        ("an_expected_bound", lambda: verify_an_bound(3)),
        ("dn_expected_bound", lambda: verify_dn_bound(4)),
        ("hexagon_expected_bound", lambda: verify_hexagon_bound(_hexagon_3013())),
    ],
    ids=["an", "dn", "hexagon"],
)
def test_assembled_bound_above_the_expected_bound_is_refused(monkeypatch, bound_name, run):
    # an expected bound just below the assembled one must fail the
    # certificate, for each family through the one shared assembler
    expected = getattr(density, bound_name)
    monkeypatch.setattr(density, bound_name, lambda *args: expected(*args) * F(99, 100))
    with pytest.raises(BoundViolated, match="assembled bound"):
        run()


def test_dn_reference_mismatch_raises(monkeypatch):
    # a closed-form singleton count off by one against the brute force must
    # fail the certificate, as an A_n mismatch does
    corrupt_dn_singleton_reference(monkeypatch)
    with pytest.raises(CrossCheckMismatch, match=r"D_4 subset \{0\}: closed form 26, brute force 25"):
        verify_dn_bound(4)


def test_classify_rejects_foreign_shapes():
    pat = _hexagon_3013()
    a_pair = [((0, 0), 0), (pat.half_basis_scaled[0], 0)]
    with pytest.raises(UnknownComponentType):
        _classify_component(pat, a_pair)  # an A-A pair is outside the taxonomy


def test_component_search_matches_brute_force_enumeration():
    """Oracle for the connected-avoiding-subset search on the infinite
    graph: enumerate all subsets of size <= 3 of the deep-interior vertices
    of the ring-sweep box graph directly."""
    pat = _hexagon_3013()
    ext = ring_sweep_step_extent(pat)
    radius = 7 * ext
    g = ring_sweep_pattern_graph(pat, radius)
    cosets = pattern_cosets(pat, radius)
    is_unit = pat.gauge.unit_checker(g.scale)
    bound2 = interior_bound_scaled(g, 2, ext)
    deep = [i for i in range(g.n) if all(abs(c) <= bound2 for c in g.points[i])]

    def avoiding(sub):
        return not any(
            is_unit(tuple(a - b for a, b in zip(g.points[i], g.points[j])))
            for i, j in combinations(sub, 2)
        )

    def connected(sub):
        if len(sub) == 1:
            return True
        seen = {sub[0]}
        frontier = [sub[0]]
        inside = set(sub)
        while frontier:
            nxt = []
            for v in frontier:
                for u in neighbors(g, v):
                    if u in inside and u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        return seen == inside

    brute = []
    for size in (1, 2, 3):
        for sub in combinations(deep, size):
            if connected(list(sub)) and avoiding(sub):
                brute.append(tuple(sorted((g.points[i], cosets[g.points[i]]) for i in sub)))
    assert {_classify_component(pat, members) for members in brute} == set(HEX_EXPECTED_DELTAS)
    # the search finds exactly the subsets through each of its base points;
    # every such subset lies within two steps of its base, inside the margin
    for base in zip(pat.coset_offsets_scaled, range(3)):
        assert _avoiding_subsets(pat, base, 3) == sorted(m for m in brute if base in m)


def test_certificate_matches_box_oracle():
    # the certificate grown on the infinite pattern graph is the one the
    # radius-7 box graph gives, field for field in its report
    for pat in hexagon_oracle_patterns():
        want = certificate_dict(box_hexagon_certificate(pat))
        assert certificate_dict(verify_hexagon_bound(pat)) == want, pat.basis


def test_hexagon_certificate_builds_no_graph(monkeypatch):
    pat = _hexagon_3013()
    want = certificate_dict(box_hexagon_certificate(pat))

    def refuse(*args, **kwargs):
        raise RuntimeError("the certificate built a box")

    monkeypatch.setattr(GeometricGraph, "__init__", refuse)
    monkeypatch.setattr(geometry, "planar_coset_in_box", refuse)
    monkeypatch.setattr(graphs, "planar_coset_in_box", refuse)
    assert certificate_dict(verify_hexagon_bound(_hexagon_3013())) == want


# ---------------------------------------------------------------------------
# avoiding-set decomposition


AN2_EXT = cayley_step_extent("an", 2)


def _an2_graph():
    return an_cayley_graph(2, F(3, 2))


def test_decompose_singleton():
    g = _an2_graph()
    dec = decompose_avoiding_set(g, gauge_an(2), [vertex(g, zero_vec(3))], AN2_EXT)
    assert len(dec.components) == 1
    assert dec.all_cliques
    assert dec.neighborhoods_disjoint


def test_decompose_rejects_distance_one_pair():
    g = _an2_graph()
    gauge = gauge_an(2)
    i0 = vertex(g, zero_vec(3))
    # a vertex at graph distance 2 from 0 sits at gauge distance exactly 1
    two = [
        w
        for u, w, _ in graph_distance_2_pairs(g, AN2_EXT)
        if u == i0 and is_interior(g, w, 2, AN2_EXT)
    ]
    assert two
    with pytest.raises(NotAvoiding):
        decompose_avoiding_set(g, gauge, [i0, two[0]], AN2_EXT)


def test_decompose_mis_witness_into_disjoint_cliques():
    from voronorm.graphs import an_unit_distance_graph

    gu = an_unit_distance_graph(2, F(3, 2))
    res = max_independent_set(gu)
    gc = an_cayley_graph(2, F(3, 2))
    members = [vertex(gc, gu.coords(i)) for i in res.witness]
    members = [m for m in members if m is not None and is_interior(gc, m, 2, AN2_EXT)]
    dec = decompose_avoiding_set(gc, gauge_an(2), members, AN2_EXT)
    assert dec.all_cliques
    assert dec.neighborhoods_disjoint


def test_decompose_hexagon_class_b_neighborhoods():
    pat = hexagon_pattern(reduce_planar_basis(Vec([3, 0]), Vec([1, 3])))
    g = hex_pattern_graph(pat, 6)
    i0 = vertex(g, zero_vec(2))
    is0 = vertex(g, pat.s[0])
    is3 = vertex(g, pat.s[3])
    dec = decompose_avoiding_set(g, pat.gauge, [i0, is0, is3], hex_step_extent(pat), class_mask(g, pat))
    assert len(dec.components) == 1  # the BAB component
    assert dec.neighborhoods_disjoint
