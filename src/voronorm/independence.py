"""Exact maximum independent set machinery and independence-ratio pipelines.

The solver works on int bitmasks alone.  At each node it takes every
simplicial vertex (one whose neighbourhood is a clique) into the set, prunes
under a greedy clique-cover bound, and branches on a max-degree vertex; the
search is depth-first over an explicit stack, so it never recurses.  A node
re-tests only the vertices whose neighbourhood changed since its parent's
reduction, and the cover count stops at the prune threshold.  It is
deterministic, sequential, and budgeted by node count, so results are
reproducible across runs and thread settings; every witness is re-checked by
an independent validity pass.

When the cover overshoots the prune threshold by exactly one clique, a set
beating the best must take one vertex from every clique; unit propagation
over the cliques (MaxSAT-style inference, Li and Quan, AAAI 2010) prunes the
node when it empties one.  A pruned node holds no set beating the best, so
the best-updates, and with them alpha, the witness and the proof, are those
of the search without it, reached in no more nodes.

Orbital branching (Ostrowski, Linderoth, Rossi and Smriglio, Math. Program.
2011) removes the symmetric copies of subtrees.  A graph may carry
generators of a group of automorphisms (the A_n boxes carry the three
generators of their point group S_{n+1} x {+-1} that
``constructions.point_group_generators`` lists, the one place the point
groups are written); each is checked to be a bijection and an
automorphism of the adjacency before the search, and a failed check raises
CertificateError.  When the root bounds do not meet, the generators are
closed breadth-first into at most MAX_GROUP_ENTRIES stored entries (a cut
closure is a subset of the group, on which orbital branching stays sound).
Each node keeps the elements that map its candidates and its taken set onto
themselves, and the child that drops the branch vertex drops its whole orbit
under them.  A graph without generators gets the plain search tree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Optional

from .constructions import CertificateError, gauge_sup, point_group_generators
from .geometry import an_half_dual_scale
from .graphs import GeometricGraph, _bits, _check_size, an_unit_distance_graph, check_power_count
from .density import ChainClique

DEFAULT_NODE_BUDGET = 20_000_000


class MisResult:
    """``alpha`` is the best independent set size found (exact when proven),
    ``nodes`` the search nodes popped from the stack (0 when the root bounds
    meet)."""

    def __init__(self, alpha: int, witness: list, vertex_count: int, proven: bool, upper_bound: int, nodes: int):
        self.alpha, self.witness, self.vertex_count = alpha, witness, vertex_count
        self.proven, self.upper_bound, self.nodes = proven, upper_bound, nodes

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.alpha, self.vertex_count)


def is_independent_set(g: GeometricGraph, indices: Iterable[int]) -> bool:
    """Validity re-check kept separate from the solver: no member is
    adjacent to a member."""
    idx = list(indices)
    members = 0
    for v in idx:
        members |= 1 << v
    return not any(g.adj[v] & members for v in idx)


def _checked_witness(g: GeometricGraph, alpha: int, mask: int, what: str) -> list:
    """The vertices of a solver's witness mask for a claimed alpha; raises
    CertificateError unless they are alpha many and independent."""
    witness = _bits(mask)
    if len(witness) != alpha:
        raise CertificateError(f"{what} of size {len(witness)} for a claimed alpha of {alpha}")
    if not is_independent_set(g, witness):
        raise CertificateError(f"{what} is not independent")
    return witness


def _clique_cover(adj, cand: int, stop: int) -> list:
    """A greedy partition of cand into maximally grown cliques, as masks;
    the number of cliques bounds alpha from above.

    Covering stops once it has stop + 1 cliques, so the length is at most
    stop + 1 and is at most stop exactly when the full count is; a negative
    stop returns no clique.
    """
    cliques = []
    remaining = cand
    while remaining and len(cliques) <= stop:
        clique = 0
        common = remaining
        while common:
            b = common & -common
            clique |= b
            remaining ^= b
            # common lies inside remaining, and b leaves both (no self-loops)
            common &= adj[b.bit_length() - 1]
        cliques.append(clique)
    return cliques


def _no_transversal(adj, cliques, cand: int) -> bool:
    """Whether unit propagation shows that no independent set of cand takes
    a vertex from every clique (Li and Quan, AAAI 2010).

    A clique left with one allowed vertex forces that vertex, whose
    neighbours are then no longer allowed; this repeats until nothing is
    forced anew.  True when some clique is left with no allowed vertex.
    The outcome does not depend on the order of the forcings.
    """
    allowed, forced = cand, 0
    while True:
        units = 0
        for clique in cliques:
            c = clique & allowed
            if not c:
                return True
            if not c & (c - 1):
                units |= c
        units &= ~forced
        if not units:
            return False
        forced |= units
        while units:
            b = units & -units
            units ^= b
            allowed &= ~adj[b.bit_length() - 1]


def _greedy_independent(adj, cand: int) -> int:
    """Min-degree greedy independent set (initial lower bound): take the
    candidate of least degree within cand, lowest index first, and drop its
    closed neighbourhood.

    Each candidate's degree is kept in a bucket of equal degrees (a bitmask)
    and lowered as its neighbours leave cand, so a pick reads the lowest
    bit of the least nonempty bucket instead of recounting every degree.
    """
    deg = [0] * len(adj)
    buckets = [0] * (cand.bit_count() + 1)
    for v in _bits(cand):
        d = deg[v] = (adj[v] & cand).bit_count()
        buckets[d] |= 1 << v
    chosen = low = 0
    while cand:
        while not buckets[low]:
            low += 1
        b = buckets[low] & -buckets[low]
        chosen |= b
        gone = (adj[b.bit_length() - 1] | b) & cand
        cand ^= gone
        for u in _bits(gone):
            buckets[deg[u]] ^= 1 << u
            x = adj[u] & cand
            while x:
                c = x & -x
                x ^= c
                w = c.bit_length() - 1
                d = deg[w]
                buckets[d] ^= c
                buckets[d - 1] |= c
                deg[w] = d - 1
                if d <= low:
                    low = d - 1
    return chosen


def max_independent_set(g: GeometricGraph, node_budget: Optional[int] = None) -> MisResult:
    """Exact alpha with witness, or bracketing bounds when the node budget
    runs out (TimedOut is a result state, not an error).

    The graph's symmetries feed orbital branching once each has been
    checked to be a bijection and an automorphism of the adjacency.
    """
    budget = node_budget if node_budget is not None else DEFAULT_NODE_BUDGET
    n = g.n
    for perm in g.symmetries:
        _check_automorphism(g.adj, perm)
    alpha, witness_mask, proven, upper, nodes = _solve_mask(g.adj, (1 << n) - 1, budget, g.symmetries)
    witness = _checked_witness(g, alpha, witness_mask, "maximum independent set witness")
    return MisResult(alpha, witness, n, proven, upper, nodes)


def _image(perm, mask: int) -> int:
    out = 0
    while mask:
        b = mask & -mask
        mask ^= b
        out |= 1 << perm[b.bit_length() - 1]
    return out


def _check_automorphism(adj, perm) -> None:
    """Raise CertificateError unless perm is a bijection of the vertices
    that maps every edge onto an edge.

    Checking the generators suffices: composites of automorphisms are
    automorphisms.
    """
    n = len(adj)
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise CertificateError(f"graph symmetry is not a bijection of its {n} vertices")
    for i in range(n):
        if _image(perm, adj[i]) != adj[perm[i]]:
            raise CertificateError(f"graph symmetry is not an automorphism: it breaks the edges at vertex {i}")


# Largest group the search closes, counted as |G| * |V| stored entries: the
# A_3 group takes 48 * 95, while the full group of A_7 at radius 1/2
# (80,640 elements on 1,361 vertices) is cut at 770 elements.
MAX_GROUP_ENTRIES = 1 << 20


def _close_group(gens, n: int) -> list:
    """The elements other than the identity of the group generated by the
    permutations gens of range(n), breadth-first from the generators.

    The closure stops before its stored entries would pass
    MAX_GROUP_ENTRIES; orbital branching stays sound on any subset of a
    group of automorphisms, so a cut group only branches less.
    """
    gens = [tuple(p) for p in gens]
    out = [tuple(range(n))]
    seen = set(out)
    for a in out:
        for p in gens:
            if (len(out) + 1) * n > MAX_GROUP_ENTRIES:
                return out[1:]
            c = tuple([a[i] for i in p])
            if c not in seen:
                seen.add(c)
                out.append(c)
    return out[1:]


def _fixes(perm, mask: int) -> bool:
    """Whether perm maps the vertex set mask onto itself."""
    x = mask
    while x:
        b = x & -x
        x ^= b
        if not mask >> perm[b.bit_length() - 1] & 1:
            return False
    return True


def _take_simplicial(adj, cand: int, taken: int, dirty: int):
    """Move every vertex whose neighbourhood in cand is a clique from cand
    into taken (dropping its neighbours), until none is left.

    Some maximum independent set of cand contains such a vertex, so the
    move keeps alpha; it covers isolated and pendant vertices too.  Only
    the vertices in dirty are tested: the caller guarantees that no other
    vertex of cand is simplicial.  Passes run in ascending order; a take
    at b dirties the neighbours of the removed vertices, which are tested
    later in this pass if above b and in the next pass if below, so the
    takes are those of repeated full scans, in the same order.
    """
    while dirty:
        x, dirty = dirty & cand, 0
        while x:
            b = x & -x
            x ^= b
            nv = adj[b.bit_length() - 1] & cand
            rest, touched = nv, 0
            while rest:
                c = rest & -rest
                rest ^= c
                ac = adj[c.bit_length() - 1]
                if (nv ^ c) & ~ac:
                    break
                touched |= ac
            else:
                taken |= b
                cand &= ~(nv | b)
                touched &= cand
                x = (x & cand) | (touched & -(b << 1))
                dirty |= touched & (b - 1)
    return cand, taken


def _solve_mask(adj, full: int, budget: int, group=()):
    """Maximum independent set of the vertices in the mask full.

    Returns (alpha, witness mask, proven, upper bound, nodes).  Depth-first
    search over an explicit stack of (candidates, taken, dirty, group)
    entries under the clique-cover bound, branching on a vertex of maximum
    degree in the candidates; each pop is one node.  A popped node's
    reduced candidates hold no simplicial vertex, so a child re-tests only
    the neighbours of the vertices it removes (dirty).

    group holds permutations of the vertex indices that generate
    automorphisms of adj; when the root bounds do not meet it is closed
    (see _close_group).  A node keeps the elements of its entry's group
    that map its reduced candidates and its taken set onto themselves, and
    its drop child removes the branch vertex's whole orbit under them: an
    optimum through any vertex of the orbit maps onto one through the
    branch vertex, which the take child covers.  An empty group gives the
    plain search.  When more than budget nodes are needed, the best set
    found so far comes back with the root bound, proven only if it reaches
    that bound.
    """
    greedy = _greedy_independent(adj, full)
    best_mask, best = greedy, greedy.bit_count()
    root_bound = len(_clique_cover(adj, full, full.bit_count()))
    if best == root_bound:
        return best, best_mask, True, best, 0
    nodes = 0
    stack = [(full, 0, full, _close_group(group, len(adj)))]
    while stack:
        nodes += 1
        if nodes > budget:
            return best, best_mask, best == root_bound, root_bound, nodes
        cand, taken, dirty, group = stack.pop()
        cand, taken = _take_simplicial(adj, cand, taken, dirty)
        size = taken.bit_count()
        # prune when size + cover <= best, or when the cover overshoots by
        # one and no independent set meets all its cliques; the cover stops
        # once it passes limit + 1, and a negative limit never prunes
        limit = best - size
        cliques = _clique_cover(adj, cand, limit + 1)
        if len(cliques) <= limit or len(cliques) == limit + 1 and _no_transversal(adj, cliques, cand):
            continue
        if not cand:
            best_mask, best = taken, size
            continue
        # the first maximum wins, so ties go to the smallest index
        x, top, b = cand, -1, 0
        while x:
            c = x & -x
            x ^= c
            d = (adj[c.bit_length() - 1] & cand).bit_count()
            if d > top:
                top, b = d, c
        v = b.bit_length() - 1
        orbit = b
        if group:
            group = [p for p in group if _fixes(p, cand) and _fixes(p, taken)]
            for p in group:
                orbit |= 1 << p[v]
        nv = adj[v] & cand
        rest, touched = nv, 0
        while rest:
            c = rest & -rest
            rest ^= c
            touched |= adj[c.bit_length() - 1]
        rest, around = orbit ^ b, nv
        while rest:
            c = rest & -rest
            rest ^= c
            around |= adj[c.bit_length() - 1]
        inside = cand & ~(nv | b)
        stack.append((cand & ~orbit, taken, around & cand, group))
        stack.append((inside, taken | b, touched & inside, group))
    return best, best_mask, True, best, nodes


# ---------------------------------------------------------------------------
# Ratio sequences


class RatioEntry:
    def __init__(self, radius: Fraction, vertex_count: int, alpha: int, proven: bool, upper_bound: int):
        self.radius, self.vertex_count, self.alpha = radius, vertex_count, alpha
        self.proven, self.upper_bound = proven, upper_bound

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.alpha, self.vertex_count)


class RatioSequence:
    def __init__(self, family: str, dim: int, target_bound: Fraction, entries=None):
        self.family, self.dim, self.target_bound = family, dim, target_bound
        self.entries = [] if entries is None else entries

    @property
    def any_timed_out(self) -> bool:
        return any(not e.proven for e in self.entries)


def ratio_sequence_an(n: int, radii, node_budget: Optional[int] = None) -> RatioSequence:
    """Exact independence ratios of box subgraphs of the unit-distance graph
    on (1/2)A_n^#, paired with the 1/2^n target."""
    seq = RatioSequence("an", n, Fraction(1, 2**n))
    for r in radii:
        g = an_unit_distance_graph(n, Fraction(r))
        res = max_independent_set(g, node_budget)
        seq.entries.append(RatioEntry(Fraction(r), g.n, res.alpha, res.proven, res.upper_bound))
    return seq


class CubeCertificate:
    def __init__(self, dim, vertex_count, complete, alpha, ratio, expected_bound, proven, upper_bound):
        self.dim, self.vertex_count, self.complete, self.alpha = dim, vertex_count, complete, alpha
        self.ratio, self.expected_bound, self.proven, self.upper_bound = ratio, expected_bound, proven, upper_bound

    @property
    def matches_expected(self) -> bool:
        return self.complete and self.ratio == self.expected_bound

    def ratio_sequence(self) -> RatioSequence:
        """The one-row ratio table of the cube: radius 1, the whole graph."""
        entry = RatioEntry(Fraction(1), self.vertex_count, self.alpha, self.proven, self.upper_bound)
        return RatioSequence("cube", self.dim, self.expected_bound, [entry])


def cube_certificate(n: int) -> CubeCertificate:
    """The cube bound 1/2^n: the unit-distance graph on {0,1}^n under the
    sup norm is complete, so alpha = 1, checked by orbits of the signed
    permutations instead of on the 2^n-vertex graph.

    A difference of two distinct 0/1 points lies in {-1,0,1}^n minus 0 and
    is a signed permutation of exactly one d_k = (1^k, 0^(n-k)).  The gauge
    rows are checked to map onto themselves under the generators of that
    group that ``constructions.point_group_generators`` lists (the sign
    change of coordinate 0, the n-cycle and the swap (0 1)), so
    the max over the rows is constant on each orbit, and each d_k is checked
    to reach the level through the rows, as the graph build reads them.
    Every pair is then adjacent: one vertex is a maximum independent set and
    one clique covers the graph.  Raises ValueError above
    MAX_UNIT_DISTANCE_VERTICES points, compared by exponents before 2^n is
    computed, and CertificateError if a check fails.
    """
    check_power_count(n, lambda n: 2**n)
    gauge = gauge_sup(n)
    rows = set(gauge.rows)
    for name, g in point_group_generators("cube", n):
        for a in gauge.rows:
            if g(a) not in rows:
                raise CertificateError(f"{name} maps gauge row {a} to {g(a)}, which is not a row")
    # a.d_k is the k-th prefix sum of a
    sums = [list(accumulate(a)) for a in gauge.rows]
    for k in range(1, n + 1):
        value = max(s[k - 1] for s in sums)
        if value != gauge.level:
            d = ", ".join(["1"] * k + ["0"] * (n - k))
            raise CertificateError(f"cube difference ({d}) has gauge {Fraction(value, gauge.level)}, not 1")
    bound = Fraction(1, 2**n)
    return CubeCertificate(n, 2**n, True, 1, bound, bound, True, 1)


def an_tiling_witness(g: GeometricGraph, n: int) -> list:
    """Indices of the independent set obtained by translating the maximal
    chain clique by the tiling lattice A_n (the half-cell packing witness
    restricted to the graph's vertex set)."""
    s = an_half_dual_scale(n)
    qs = ChainClique(n, tuple(range(1, n + 1))).points_scaled()
    out = []
    for i, y in enumerate(g.points):
        for q in qs:
            if all((a - b) % s == 0 for a, b in zip(y, q)):
                out.append(i)
                break
    return out


# ---------------------------------------------------------------------------
# The infinite-degree counterexample graph


def counterexample_graph(n_max: int) -> GeometricGraph:
    """Integers -n_max..n_max with an edge {a, b} iff a < 0 and b > -2a.

    In the infinite graph every negative vertex has infinite degree, which is
    exactly what breaks the finite-truncation equivalence; the box graphs
    make the gap visible.
    """
    if n_max < 1:
        raise ValueError("n_max >= 1 required")
    _check_size(2 * n_max + 1, kind="counterexample")
    points = [(i,) for i in range(-n_max, n_max + 1)]
    index = {p: i for i, p in enumerate(points)}
    adj = [0] * len(points)
    for a in range(-n_max, 0):
        for b in range(-2 * a + 1, n_max + 1):
            i, j = index[(a,)], index[(b,)]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return GeometricGraph(1, points, adj)


def reference_independent_set_size(n_max: int) -> int:
    """|S_N| for S_N = [-N, -N/2] union [0, N]."""
    return n_max // 2 + n_max + 2


class ConstrainedRun:
    def __init__(self, k: int, alpha: int, max_positive: int, structural_cap: int):
        self.k, self.alpha, self.max_positive, self.structural_cap = k, alpha, max_positive, structural_cap

    @property
    def within_cap(self) -> bool:
        return self.alpha <= self.structural_cap


class CounterexampleReport:
    def __init__(self, n_max: int, vertex_count: int, alpha: int, proven: bool, reference_size: int, constrained: list):
        self.n_max, self.vertex_count, self.alpha = n_max, vertex_count, alpha
        self.proven, self.reference_size, self.constrained = proven, reference_size, constrained

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.alpha, self.vertex_count)


def counterexample_density_gap(
    n_max: int, ks: Optional[Iterable[int]] = None, node_budget: Optional[int] = None
) -> CounterexampleReport:
    """Exact alpha of the counterexample box graph plus, for each k, the
    maximum independent set forced to contain vertex -k.

    A set containing -k cannot contain any vertex above 2k, so its size is
    capped by n_max + min(2k, n_max) + 1; this finite illustration mirrors
    the infinite-graph density collapse to 1/2.
    """
    g = counterexample_graph(n_max)
    res = max_independent_set(g, node_budget)
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    runs = []
    for k in sorted(ks) if ks is not None else range(1, n_max + 1):
        vk = g.index[(-k,)]
        cand = ((1 << g.n) - 1) & ~(g.adj[vk] | (1 << vk))
        alpha_rest, mask, proven, _, _ = _solve_mask(g.adj, cand, budget)
        if not proven:
            raise CertificateError(f"search for the set containing -{k} ran out of budget")
        members = _checked_witness(g, 1 + alpha_rest, mask | (1 << vk), f"witness for -{k}")
        max_pos = max(g.points[i][0] for i in members)
        if max_pos > 2 * k:
            raise CertificateError(f"witness for -{k} contains a vertex above 2k")
        runs.append(
            ConstrainedRun(
                k=k,
                alpha=1 + alpha_rest,
                max_positive=max_pos,
                structural_cap=n_max + min(2 * k, n_max) + 1,
            )
        )
    return CounterexampleReport(
        n_max=n_max,
        vertex_count=g.n,
        alpha=res.alpha,
        proven=res.proven,
        reference_size=reference_independent_set_size(n_max),
        constrained=runs,
    )
