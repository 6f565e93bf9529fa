import math
import random
import sys
from fractions import Fraction as F
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from voronorm import independence
from voronorm.constructions import CertificateError, point_group_generators
from voronorm.graphs import GeometricGraph, _bits, an_unit_distance_graph
from voronorm.independence import (
    DEFAULT_NODE_BUDGET,
    MAX_GROUP_ENTRIES,
    CubeCertificate,
    _close_group,
    _greedy_independent,
    _solve_mask,
    an_tiling_witness,
    counterexample_density_gap,
    counterexample_graph,
    cube_certificate,
    is_independent_set,
    max_independent_set,
    ratio_sequence_an,
    reference_independent_set_size,
)
from oracles import cube_graph, greedy_independent_rescan, is_independent_pairwise


def _graph_from_edges(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return GeometricGraph(1, [(i,) for i in range(n)], adj)


def _alpha_brute(n, edges):
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    best = 0
    for mask in range(1 << n):
        m, ok = mask, True
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            if adj[v] & mask:
                ok = False
                break
        if ok:
            best = max(best, mask.bit_count())
    return best


def test_solver_against_brute_force():
    rnd = random.Random(42)
    for _ in range(40):
        n = rnd.randint(1, 12)
        p = rnd.choice([0.15, 0.3, 0.6])
        edges = [(a, b) for a in range(n) for b in range(a + 1, n) if rnd.random() < p]
        g = _graph_from_edges(n, edges)
        res = max_independent_set(g)
        assert res.proven
        assert res.alpha == _alpha_brute(n, edges)
        assert is_independent_set(g, res.witness)
        assert len(res.witness) == res.alpha


@st.composite
def _random_graphs(draw):
    n = draw(st.integers(1, 14))
    p = draw(st.sampled_from([0.15, 0.3, 0.6]))
    rnd = draw(st.randoms(use_true_random=False))
    return n, [(a, b) for a in range(n) for b in range(a + 1, n) if rnd.random() < p]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(graph=_random_graphs(), budget=st.sampled_from([None, 1, 3, 10]))
def test_solver_brackets_brute_force_alpha(graph, budget):
    # any budget: a genuine witness of alpha vertices and alpha <= true
    # alpha <= upper bound; a proven result is exact
    n, edges = graph
    g = _graph_from_edges(n, edges)
    true_alpha = _alpha_brute(n, edges)
    res = max_independent_set(g, budget)
    assert is_independent_set(g, res.witness)
    assert len(res.witness) == res.alpha
    assert res.alpha <= true_alpha <= res.upper_bound
    assert not res.proven or res.alpha == true_alpha
    if budget is None:
        assert res.proven


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(graph=_random_graphs(), data=st.data())
def test_is_independent_set_matches_pairwise_oracle(graph, data):
    # one AND per member against the member mask, repeated indices included
    n, edges = graph
    g = _graph_from_edges(n, edges)
    indices = data.draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
    assert is_independent_set(g, indices) == is_independent_pairwise(g, indices)


# ---------------------------------------------------------------------------
# the full-scan solver: the oracle for the search tree of _solve_mask


def _cover_full(adj, cand):
    cliques = []
    remaining = cand
    while remaining:
        clique = 0
        common = remaining
        while common:
            b = common & -common
            v = b.bit_length() - 1
            clique |= b
            remaining ^= b
            common = common & adj[v] & remaining
        cliques.append(clique)
    return cliques


def _take_simplicial_full_scan(adj, cand, taken):
    # re-tests every candidate, pass after pass, until a pass takes nothing
    changed = True
    while changed:
        changed = False
        x = cand
        while x:
            b = x & -x
            x ^= b
            nv = adj[b.bit_length() - 1] & cand
            rest = nv
            while rest:
                c = rest & -rest
                rest ^= c
                if (nv ^ c) & ~adj[c.bit_length() - 1]:
                    break
            else:
                taken |= b
                cand &= ~(nv | b)
                x &= cand
                changed = True
    return cand, taken


def _no_transversal_full_scan(adj, cliques, cand):
    # forces one lone vertex at a time, pass after pass over every clique,
    # until a clique is left empty or a pass forces nothing new
    allowed, forced = cand, 0
    changed = True
    while changed:
        changed = False
        for clique in cliques:
            c = clique & allowed
            if not c:
                return True
            if c.bit_count() == 1 and not c & forced:
                forced |= c
                allowed &= ~adj[c.bit_length() - 1]
                changed = True
    return False


def _conflict_full_scan(adj, cliques, cand):
    # the forcing rounds first, each clique's round and vertex noted; then
    # the reason grows clique by clique, each vertex to explain charged to
    # the earliest forced vertex adjacent to it, by round and then clique
    # index, among the rounds before its clique's own (every round, for the
    # emptied clique)
    allowed, forced_at, t = cand, {}, 0
    while all(c & allowed for c in cliques):
        units = [
            (i, (c & allowed).bit_length() - 1)
            for i, c in enumerate(cliques)
            if (c & allowed).bit_count() == 1 and i not in forced_at
        ]
        if not units:
            return 0
        for i, v in units:
            forced_at[i] = (t, v)
        for _, v in units:
            allowed &= ~adj[v]
        t += 1
    emptied = next(i for i, c in enumerate(cliques) if not c & allowed)
    order = sorted((r, i, v) for i, (r, v) in forced_at.items())
    reason, todo = {emptied}, [(emptied, t, None)]
    while todo:
        q, before, own = todo.pop()
        for x in _bits(cliques[q]):
            if x != own:
                r, i, v = next((r, i, v) for r, i, v in order if r < before and adj[v] >> x & 1)
                if i not in reason:
                    reason.add(i)
                    todo.append((i, r, v))
    return sum(1 << i for i in reason)


def _solve_mask_full_scan(adj, full, budget, propagate=True):
    # propagate=False is the plain search tree, with no pruning by
    # propagation at slack one or two
    greedy = greedy_independent_rescan(adj, full)
    best_mask, best = greedy, greedy.bit_count()
    root_bound = len(_cover_full(adj, full))
    if best == root_bound:
        return best, best_mask, True, best, 0
    nodes = 0
    stack = [(full, 0)]
    while stack:
        nodes += 1
        if nodes > budget:
            return best, best_mask, best == root_bound, root_bound, nodes
        cand, taken = _take_simplicial_full_scan(adj, *stack.pop())
        size = taken.bit_count()
        cover = _cover_full(adj, cand)
        if size + len(cover) <= best:
            continue
        if propagate and size + len(cover) == best + 1 and _no_transversal_full_scan(adj, cover, cand):
            continue
        if propagate and size + len(cover) == best + 2:
            reason = _conflict_full_scan(adj, cover, cand)
            rest = [c for i, c in enumerate(cover) if not reason >> i & 1]
            if reason and _no_transversal_full_scan(adj, rest, cand):
                continue
        if not cand:
            best_mask, best = taken, size
            continue
        v = max(_bits(cand), key=lambda u: (adj[u] & cand).bit_count())
        b = 1 << v
        stack.append((cand ^ b, taken))
        stack.append((cand & ~(adj[v] | b), taken | b))
    return best, best_mask, True, best, nodes


@st.composite
def _sparse_graphs(draw):
    n = draw(st.integers(1, 30))
    p = draw(st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5]))
    # one drawn seed, not one draw per pair: up to 435 draws make each example slow
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rnd.random() < p:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    # a proper subset of the vertices, as in the constrained counterexample runs
    full = (1 << n) - 1
    if draw(st.booleans()):
        full &= rnd.getrandbits(n)
    return adj, full


@settings(derandomize=True, deadline=None, database=None, max_examples=1500)
@given(graph=_sparse_graphs(), budget=st.sampled_from([None, 1, 3, 10]))
# a take that dirties a vertex above it must re-test that vertex in the same
# pass: deferring it to the next pass changes this graph's witness
@example(graph=([98, 25, 88, 118, 46, 25, 13], 0b1111111), budget=None)
def test_solve_mask_matches_full_scan_oracle(graph, budget):
    # the same pops in the same order: alpha, witness, proof state, bound
    # and node count all agree with the solver that re-tests everything
    adj, full = graph
    budget = DEFAULT_NODE_BUDGET if budget is None else budget
    assert _solve_mask(adj, full, budget) == _solve_mask_full_scan(adj, full, budget)


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(graph=_sparse_graphs())
def test_greedy_matches_rescanning_oracle(graph):
    # the kept degrees pick the same vertex as a full recount at every step
    adj, full = graph
    assert _greedy_independent(adj, full) == greedy_independent_rescan(adj, full)


def test_greedy_matches_rescanning_oracle_on_the_counterexample():
    g = counterexample_graph(60)
    full = (1 << g.n) - 1
    for cand in (full, full & ~(g.adj[g.index[(-7,)]] | 1 << g.index[(-7,)])):
        assert _greedy_independent(g.adj, cand) == greedy_independent_rescan(g.adj, cand)


def test_timed_out_search_at_the_root_bound_is_proven():
    # greedy takes 3; the search reaches 4, the clique-cover bound, and the
    # budget runs out before the stack empties
    edges = [(0, 3), (0, 5), (1, 4), (1, 6), (1, 7), (2, 6), (2, 7), (3, 4), (4, 5), (4, 6), (4, 7)]
    adj = [0] * 8
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    alpha, witness, proven, bound, nodes = _solve_mask(adj, 0xFF, 4)
    assert (alpha, proven, bound, nodes) == (4, True, 4, 5)
    assert witness.bit_count() == 4 and all(not adj[v] & witness for v in _bits(witness))


@pytest.mark.parametrize("n, radius, alpha, nodes", [(2, F(3, 2), 26, 2627), (3, F(3, 4), 20, 689)])
def test_solver_node_counts_are_pinned(n, radius, alpha, nodes):
    # node counts are deterministic; without a group the search tree is
    # the plain one, pruned by propagation at slack one and two
    g = an_unit_distance_graph(n, radius)
    found, _, proven, _, count = _solve_mask(g.adj, (1 << g.n) - 1, DEFAULT_NODE_BUDGET)
    assert (found, proven, count) == (alpha, True, nodes)


@pytest.mark.parametrize("n, radius, alpha, nodes", [(2, F(3, 2), 26, 8129), (3, F(3, 4), 20, 1185)])
def test_plain_tree_node_counts_are_pinned(n, radius, alpha, nodes):
    # the search tree with no propagation, on the oracle
    found, _, proven, _, count = _plain_oracle(n, radius)
    assert (found, proven, count) == (alpha, True, nodes)


@pytest.mark.parametrize("n, radius, alpha, nodes", [(2, F(3, 2), 26, 547), (3, F(3, 4), 20, 89)])
def test_orbital_node_counts_are_pinned(n, radius, alpha, nodes):
    # max_independent_set branches on orbits of the box's point group
    res = max_independent_set(an_unit_distance_graph(n, radius))
    assert (res.alpha, res.proven, res.nodes) == (alpha, True, nodes)


@settings(derandomize=True, deadline=None, database=None, max_examples=1000)
@given(graph=_sparse_graphs(), budget=st.sampled_from([None, 1, 3, 10]))
def test_propagation_keeps_the_plain_search_result(graph, budget):
    # a pruned node holds no set above the best, so the best-updates are
    # those of the plain tree, each at the same node or earlier: the same
    # result in no more nodes, and under a budget an alpha at least as large
    # (and a search that now ends within the budget is proven at its alpha)
    adj, full = graph
    budget = DEFAULT_NODE_BUDGET if budget is None else budget
    alpha, mask, proven, bound, nodes = _solve_mask(adj, full, budget)
    plain = _solve_mask_full_scan(adj, full, budget, propagate=False)
    if budget == DEFAULT_NODE_BUDGET:
        assert (alpha, mask, proven, bound) == plain[:4] and nodes <= plain[4]
    else:
        assert alpha >= plain[0] and proven >= plain[2] and bound <= plain[3]


def _has_transversal(adj, cliques):
    # exhaustive: one vertex from each clique in turn, none adjacent to an
    # earlier pick
    def extend(k, allowed):
        return k == len(cliques) or any(extend(k + 1, allowed & ~adj[v]) for v in _bits(cliques[k] & allowed))

    return extend(0, -1)


def _check_reason(adj, cliques, cand, reason):
    # no independent set meets all the reason's cliques; where the cliques
    # outside it propagate to a conflict too, none meets all of those
    inside = [c for i, c in enumerate(cliques) if reason >> i & 1]
    outside = [c for i, c in enumerate(cliques) if not reason >> i & 1]
    assert not _has_transversal(adj, inside)
    if independence._no_transversal(adj, outside, cand):
        assert not _has_transversal(adj, outside)


@settings(derandomize=True, deadline=None, database=None, max_examples=1000)
@given(n=st.integers(1, 14), p=st.sampled_from([0.2, 0.3, 0.4, 0.5, 0.6]), seed=st.integers(0, 2**32 - 1))
def test_slack_two_prunes_are_sound(n, p, seed):
    # every reason _conflict returns, in the search and on the greedy cover
    # of eight random candidate sets, checked by exhaustive search; the
    # search prunes at slack two only where both checks of _check_reason
    # hold.  One drawn seed, not one draw per pair, keeps examples cheap
    rnd = random.Random(seed)
    adj = _graph_from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n) if rnd.random() < p]).adj
    original = independence._conflict

    def conflict(adj, cliques, cand):
        reason = original(adj, cliques, cand)
        if reason:
            _check_reason(adj, cliques, cand, reason)
        return reason

    with mock.patch.object(independence, "_conflict", conflict):
        _solve_mask(adj, (1 << n) - 1, DEFAULT_NODE_BUDGET)
        for _ in range(8):
            cand = rnd.getrandbits(n)
            independence._conflict(adj, independence._clique_cover(adj, cand, n), cand)


# ---------------------------------------------------------------------------
# orbital branching


@pytest.mark.parametrize("n, radius", [(2, F(3, 2)), (3, F(3, 4)), (4, F(1, 2))])
def test_an_symmetries_generate_the_point_group(n, radius):
    # the point-group layer's three generators, each an automorphism,
    # closing to S_{n+1} x {+-1}
    g = an_unit_distance_graph(n, radius)
    assert g.symmetries == [[g.index[f(p)] for p in g.points] for _, f in point_group_generators("an", n)]
    for perm in g.symmetries:
        independence._check_automorphism(g.adj, perm)
    assert len(_close_group(g.symmetries, g.n)) + 1 == 2 * math.factorial(n + 1)


@pytest.mark.parametrize(
    "perm", [[1, 0, 2], [0, 0, 2], [0, 1], [0, 1, 3]], ids=["non-automorphism", "repeat", "short", "out-of-range"]
)
def test_bad_symmetry_fails_the_certificate(perm):
    # the path 0 - 1 - 2: swapping its ends is an automorphism, these are not
    g = GeometricGraph(1, [(0,), (1,), (2,)], [0b010, 0b101, 0b010], symmetries=[[2, 1, 0], perm])
    with pytest.raises(CertificateError):
        max_independent_set(g)


@st.composite
def _circulants(draw):
    # i ~ i +- s (mod n) for s in the connection set, with the rotation and
    # the reflection that generate the dihedral group
    n = draw(st.integers(3, 26))
    steps = draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4))
    adj = [0] * n
    for i in range(n):
        for s in steps:
            adj[i] |= 1 << ((i + s) % n) | 1 << ((i - s) % n)
    return adj, [[(i + 1) % n for i in range(n)], [-i % n for i in range(n)]]


def _check_orbital_alpha(adj, symmetries, plain_alpha, cap):
    # a cap below the group's size cuts the closure, which must stay sound
    g = GeometricGraph(1, [(i,) for i in range(len(adj))], adj, symmetries=symmetries)
    with mock.patch.object(independence, "MAX_GROUP_ENTRIES", cap):
        res = max_independent_set(g)
    assert res.proven and res.alpha == plain_alpha
    assert is_independent_set(g, res.witness) and len(res.witness) == res.alpha


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(graph=_circulants(), elements=st.sampled_from([1, 2, 5, 1000]))
def test_orbital_alpha_matches_plain_on_circulants(graph, elements):
    adj, symmetries = graph
    plain = _solve_mask(adj, (1 << len(adj)) - 1, DEFAULT_NODE_BUDGET)
    _check_orbital_alpha(adj, symmetries, plain[0], elements * len(adj))


_BOXES = [(2, F(1)), (2, F(5, 4)), (2, F(3, 2)), (3, F(1, 2)), (3, F(2, 3)), (3, F(3, 4))]


@lru_cache(maxsize=None)
def _box(n, radius):
    g = an_unit_distance_graph(n, radius)
    return g, _solve_mask(g.adj, (1 << g.n) - 1, DEFAULT_NODE_BUDGET)[0]


@lru_cache(maxsize=None)
def _plain_oracle(n, radius):
    g = an_unit_distance_graph(n, radius)
    return _solve_mask_full_scan(g.adj, (1 << g.n) - 1, DEFAULT_NODE_BUDGET, propagate=False)


@pytest.mark.parametrize("box", _BOXES)
def test_propagation_keeps_alpha_on_an_boxes(box):
    assert _box(*box)[1] == _plain_oracle(*box)[0]


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(box=st.sampled_from(_BOXES), elements=st.sampled_from([2, 4, 7, 1000]))
def test_orbital_alpha_matches_plain_on_an_boxes(box, elements):
    g, plain_alpha = _box(*box)
    _check_orbital_alpha(g.adj, g.symmetries, plain_alpha, elements * g.n)


def test_group_closure_stops_at_the_cap():
    # S_8 x {+-1} has 80,640 elements on the 1,361 vertices of A_7 at
    # radius 1/2; the closure keeps at most MAX_GROUP_ENTRIES entries
    g = an_unit_distance_graph(7, F(1, 2))
    elements = len(_close_group(g.symmetries, g.n)) + 1
    assert elements == MAX_GROUP_ENTRIES // g.n < 80_640


def test_timed_out_search_reports_its_best_set():
    # budget 2 stops the search after it found 5 against the greedy 4
    edges = [(0, 7), (0, 9), (1, 2), (1, 4), (1, 5), (2, 3), (2, 4), (2, 9), (3, 6), (4, 5), (4, 6), (6, 7)]
    g = _graph_from_edges(10, edges)
    assert _greedy_independent(g.adj, (1 << 10) - 1).bit_count() == 4
    res = max_independent_set(g, node_budget=2)
    assert (res.alpha, res.proven, res.upper_bound) == (5, False, 6)
    assert is_independent_set(g, res.witness) and len(res.witness) == 5
    assert max_independent_set(g).alpha == _alpha_brute(10, edges) == 5


def test_solver_leaves_recursion_limit_alone():
    # start from CPython's default, so that a solver raising the limit to
    # fit its own recursion shows even after earlier tests ran it
    g = an_unit_distance_graph(2, F(3, 2))
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        res = max_independent_set(g)
        limit = sys.getrecursionlimit()
    finally:
        sys.setrecursionlimit(saved)
    assert res.proven and res.nodes > 0
    assert limit == 1000


def test_wrong_size_mis_witness_fails_the_certificate(monkeypatch):
    # an independent witness of one vertex for a claimed alpha of 2
    monkeypatch.setattr(
        "voronorm.independence._solve_mask", lambda adj, full, budget, group=(): (2, 0b1, True, 2, 0)
    )
    with pytest.raises(CertificateError):
        max_independent_set(_graph_from_edges(3, []))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_complete_cube_graph_alpha_one(n):
    res = max_independent_set(cube_graph(n))
    assert res.alpha == 1 and res.proven
    assert res.ratio == F(1, 2**n)


def test_edgeless_graph():
    g = _graph_from_edges(7, [])
    res = max_independent_set(g)
    assert res.alpha == 7


def test_solver_deterministic():
    g = an_unit_distance_graph(2, F(3, 2))
    r1 = max_independent_set(g)
    r2 = max_independent_set(g)
    assert (r1.alpha, r1.witness, r1.nodes) == (r2.alpha, r2.witness, r2.nodes)


def test_timed_out_state():
    g = an_unit_distance_graph(2, F(2))
    res = max_independent_set(g, node_budget=50)
    assert not res.proven
    assert res.alpha <= res.upper_bound
    assert is_independent_set(g, res.witness)
    # the witness is a genuine independent set, so its ratio is a valid
    # lower bound even without optimality
    assert res.ratio >= F(1, 4)


def test_cube_certificate():
    for n in (2, 3, 6):
        cert = cube_certificate(n)
        assert cert.complete
        assert cert.alpha == 1
        assert cert.matches_expected


def test_cube_certificate_matches_graph_oracle():
    # the orbit certificate gives every field the built graph, its degree
    # check and the MIS search give
    for n in range(1, 11):
        g = cube_graph(n)
        complete = all(g.degree(i) == g.n - 1 for i in range(g.n))
        res = max_independent_set(g)
        oracle = CubeCertificate(n, g.n, complete, res.alpha, res.ratio, F(1, 2**n), res.proven, res.upper_bound)
        assert vars(cube_certificate(n)) == vars(oracle), n


def test_ratio_sequences():
    seq = ratio_sequence_an(2, [F(1), F(5, 4), F(3, 2)])
    assert all(e.proven for e in seq.entries)
    assert all(e.ratio >= F(1, 4) for e in seq.entries)
    assert seq.entries[-1].ratio <= seq.entries[0].ratio
    cube = cube_certificate(3).ratio_sequence()
    assert cube.entries[0].ratio == F(1, 8)
    assert cube.entries[0].proven and cube.entries[0].upper_bound == 1


def test_an_tiling_witness_is_independent():
    for r in (F(3, 2), F(2)):
        g = an_unit_distance_graph(2, r)
        w = an_tiling_witness(g, 2)
        assert w
        assert is_independent_set(g, w)


# ---------------------------------------------------------------------------
# the infinite-degree counterexample


def test_counterexample_edges_n4():
    g = counterexample_graph(4)
    edges = sorted((g.points[i][0], g.points[j][0]) for i, j in g.edges())
    assert edges == [(-1, 3), (-1, 4)]


def test_counterexample_alpha_n4():
    res = max_independent_set(counterexample_graph(4))
    assert res.alpha == 8
    assert res.ratio == F(8, 9)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_counterexample_alpha_matches_reference(n):
    res = max_independent_set(counterexample_graph(n))
    assert res.proven
    # the reference independent set is in fact optimal at these sizes
    assert res.alpha == reference_independent_set_size(n)


def test_counterexample_constrained_runs():
    rep = counterexample_density_gap(4)
    assert rep.alpha == 8
    for run in rep.constrained:
        assert run.max_positive <= 2 * run.k
        assert run.within_cap
    rep20 = counterexample_density_gap(20, ks=[1, 5, 10])
    assert rep20.ratio < F(8, 9)
    assert rep20.ratio > F(3, 4)


def test_counterexample_rejects_bad_n():
    with pytest.raises(ValueError):
        counterexample_graph(0)
