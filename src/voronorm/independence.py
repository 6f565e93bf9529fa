"""Exact maximum independent set machinery and independence-ratio pipelines.

The solver runs reduction rules (isolated/pendant/simplicial absorption,
degree-2 folding, domination) to a fixpoint, splits into connected
components, and branches on a max-degree vertex under a greedy clique-cover
bound.  It is deterministic, sequential, and budgeted by node count, so
results are reproducible across runs and thread settings; every witness is
re-checked by an independent validity pass.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .constructions import CertificateError
from .geometry import an_half_dual_scale
from .graphs import GeometricGraph, LineRule, _bits, an_unit_distance_graph, cube_graph
from .density import ChainClique

DEFAULT_NODE_BUDGET = 20_000_000


@dataclass
class MisResult:
    alpha: int  # best independent set size found (exact when proven)
    witness: list
    vertex_count: int
    proven: bool
    upper_bound: int
    nodes: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.alpha, self.vertex_count)


def is_independent_set(g: GeometricGraph, indices: Iterable[int]) -> bool:
    """Validity re-check kept separate from the solver."""
    idx = list(indices)
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            if g.adj[idx[a]] & (1 << idx[b]):
                return False
    return True


def _clique_cover_bound(adj, cand: int) -> int:
    """Greedy partition of cand into maximally grown cliques; their number
    bounds alpha from above."""
    count = 0
    remaining = cand
    while remaining:
        count += 1
        common = remaining
        while common:
            b = common & -common
            v = b.bit_length() - 1
            remaining ^= b
            common = common & adj[v] & remaining
    return count


def _greedy_independent(adj, cand: int) -> int:
    """Min-degree greedy independent set (initial lower bound)."""
    chosen = 0
    while cand:
        best_v, best_d = -1, None
        x = cand
        while x:
            b = x & -x
            v = b.bit_length() - 1
            x ^= b
            d = (adj[v] & cand).bit_count()
            if best_d is None or d < best_d:
                best_v, best_d = v, d
        chosen |= 1 << best_v
        cand &= ~(adj[best_v] | (1 << best_v))
    return chosen


def max_independent_set(g: GeometricGraph, node_budget: Optional[int] = None) -> MisResult:
    """Exact alpha with witness, or bracketing bounds when the node budget
    runs out (TimedOut is a result state, not an error)."""
    budget = node_budget if node_budget is not None else DEFAULT_NODE_BUDGET
    adj = g.adj
    n = g.n
    full = (1 << n) - 1
    alpha, witness_mask, proven, upper, nodes = _solve_mask(adj, full, budget)
    witness = _bits(witness_mask)
    if not is_independent_set(g, witness):
        raise CertificateError("maximum independent set witness is not independent")
    return MisResult(alpha, witness, n, proven, upper, nodes)


class _BudgetExceeded(Exception):
    pass


def _cover_bound_sets(adj: dict) -> int:
    count = 0
    remaining = set(adj)
    while remaining:
        count += 1
        v = min(remaining)
        remaining.discard(v)
        common = adj[v] & remaining
        while common:
            u = min(common)
            remaining.discard(u)
            common = common & adj[u] & remaining
    return count


def _induced(adj: dict, keep: set) -> dict:
    return {v: adj[v] & keep for v in keep}


def _remove_closed(adj: dict, center: int) -> None:
    drop = adj[center] | {center}
    for v in drop:
        del adj[v]
    for v in adj:
        adj[v] -= drop


def _components(adj: dict) -> list:
    comps = []
    seen = set()
    for start in sorted(adj):
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in comp:
                        comp.add(u)
                        nxt.append(u)
            frontier = nxt
        seen |= comp
        comps.append(comp)
    return comps


def _solve_rec(adj: dict, lower: int, state: dict, budget: int):
    """Exact alpha with witness whenever alpha(adj) > lower; otherwise any
    valid independent set of size <= lower may come back.

    Reduction rules (isolated, pendant, simplicial, degree-2 fold,
    domination) run to a fixpoint, then the graph splits into connected
    components, then branch on a max-degree vertex.
    """
    state["nodes"] += 1
    if state["nodes"] > budget:
        raise _BudgetExceeded
    if not adj:
        return 0, set()
    # the caller hands over ownership of adj (fresh sets), so the reduction
    # rules may mutate it in place
    acc = 0
    forced = []
    folds = []
    changed = True
    while changed and adj:
        changed = False
        for v in sorted(adj):
            if v not in adj:
                continue
            ns = adj[v]
            d = len(ns)
            if d == 0:
                forced.append(v)
                acc += 1
                del adj[v]
                changed = True
            elif d == 1:
                forced.append(v)
                acc += 1
                _remove_closed(adj, v)
                changed = True
            elif d == 2:
                u, w = sorted(ns)
                if w in adj[u]:
                    forced.append(v)
                    acc += 1
                    _remove_closed(adj, v)
                else:
                    # fold the path u-v-w into a fresh vertex
                    z = state["next_id"]
                    state["next_id"] += 1
                    nz = (adj[u] | adj[w]) - {u, v, w}
                    _remove_closed(adj, v)
                    adj[z] = set(nz)
                    for t in nz:
                        adj[t].add(z)
                    folds.append((z, v, u, w))
                    acc += 1
                changed = True
            elif d <= 8:
                lst = sorted(ns)
                if all(b in adj[a] for i, a in enumerate(lst) for b in lst[i + 1 :]):
                    forced.append(v)
                    acc += 1
                    _remove_closed(adj, v)
                    changed = True
        if not changed and adj:
            # domination: u may be deleted when a neighbor v constrains less
            for u in sorted(adj):
                if u not in adj or len(adj[u]) > 32:
                    continue
                for v in sorted(adj[u]):
                    if adj[v] - {u} <= adj[u]:
                        for t in adj[u]:
                            adj[t].discard(u)
                        del adj[u]
                        changed = True
                        break

    def finish(value: int, wit: set):
        # forced vertices may include fold products, so merge them before
        # unwinding the folds in reverse creation order
        wit.update(forced)
        for z, v, u, w in reversed(folds):
            if z in wit:
                wit.discard(z)
                wit.add(u)
                wit.add(w)
            else:
                wit.add(v)
        return acc + value, wit

    if not adj:
        return finish(0, set())

    comps = _components(adj)
    if len(comps) > 1:
        ubs = {id(c): _cover_bound_sets(_induced(adj, c)) for c in comps}
        comps.sort(key=lambda c: (-len(c), min(c)))
        rem = sum(ubs.values())
        total = 0
        wit: set = set()
        for comp in comps:
            rem -= ubs[id(comp)]
            need = lower - acc - total - rem
            val, cw = _solve_rec(_induced(adj, comp), max(need, -1), state, budget)
            total += val
            wit |= cw
        return finish(total, wit)

    if acc + _cover_bound_sets(adj) <= lower:
        return finish(0, set())

    v = min(sorted(adj), key=lambda t: (-len(adj[t]), t))
    keep_in = set(adj) - adj[v] - {v}
    val1, wit1 = _solve_rec(_induced(adj, keep_in), lower - acc - 1, state, budget)
    best_val, best_wit = val1 + 1, wit1 | {v}
    lower2 = max(lower - acc, best_val)
    val2, wit2 = _solve_rec(_induced(adj, set(adj) - {v}), lower2, state, budget)
    if val2 > best_val:
        best_val, best_wit = val2, wit2
    return finish(best_val, best_wit)


def _solve_mask(adj, full: int, budget: int):
    best_mask = _greedy_independent(adj, full)
    best = best_mask.bit_count()
    root_bound = _clique_cover_bound(adj, full)
    if best == root_bound:
        return best, best_mask, True, best, 0
    verts = _bits(full)
    vset = set(verts)
    adj_sets = {v: set(_bits(adj[v])) & vset for v in verts}
    state = {"nodes": 0, "next_id": (full.bit_length() or 0) + 1}
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 8 * len(verts) + 10000))
    try:
        val, wit = _solve_rec(adj_sets, best - 1, state, budget)
    except _BudgetExceeded:
        return best, best_mask, False, root_bound, state["nodes"]
    if val < best:
        raise CertificateError(f"search returned {val}, below the greedy incumbent {best}")
    mask = 0
    for v in wit:
        mask |= 1 << v
    if mask.bit_count() != val:
        raise CertificateError(f"witness of size {mask.bit_count()} for a claimed alpha of {val}")
    return val, mask, True, val, state["nodes"]


# ---------------------------------------------------------------------------
# Ratio sequences


@dataclass
class RatioEntry:
    radius: Fraction
    vertex_count: int
    alpha: int
    proven: bool
    upper_bound: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.alpha, self.vertex_count)


@dataclass
class RatioSequence:
    family: str
    dim: int
    target_bound: Fraction
    entries: list = field(default_factory=list)

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


def ratio_sequence_cube(n: int, node_budget: Optional[int] = None) -> RatioSequence:
    """The 0/1 cube under the sup norm: a complete graph, so alpha = 1."""
    g = cube_graph(n)
    res = max_independent_set(g, node_budget)
    seq = RatioSequence("cube", n, Fraction(1, 2**n))
    seq.entries.append(RatioEntry(Fraction(1), g.n, res.alpha, res.proven, res.upper_bound))
    return seq


@dataclass
class CubeCertificate:
    dim: int
    vertex_count: int
    complete: bool
    alpha: int
    ratio: Fraction
    expected_bound: Fraction

    @property
    def matches_expected(self) -> bool:
        return self.complete and self.ratio == self.expected_bound


def cube_certificate(n: int, node_budget: Optional[int] = None) -> CubeCertificate:
    """The cube bound 1/2^n via the complete graph on {0,1}^n."""
    g = cube_graph(n)
    complete = all(g.degree(i) == g.n - 1 for i in range(g.n))
    res = max_independent_set(g, node_budget)
    return CubeCertificate(
        dim=n,
        vertex_count=g.n,
        complete=complete,
        alpha=res.alpha,
        ratio=res.ratio,
        expected_bound=Fraction(1, 2**n),
    )


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
    points = [(i,) for i in range(-n_max, n_max + 1)]
    index = {p: i for i, p in enumerate(points)}
    adj = [0] * len(points)
    for a in range(-n_max, 0):
        for b in range(-2 * a + 1, n_max + 1):
            i, j = index[(a,)], index[(b,)]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return GeometricGraph(
        1,
        points,
        adj,
        LineRule("half-line-rule"),
        box_radius=Fraction(n_max),
        step_extent=Fraction(0),
    )


def reference_independent_set_size(n_max: int) -> int:
    """|S_N| for S_N = [-N, -N/2] union [0, N]."""
    return n_max // 2 + n_max + 2


@dataclass
class ConstrainedRun:
    k: int
    alpha: int
    max_positive: int
    structural_cap: int

    @property
    def within_cap(self) -> bool:
        return self.alpha <= self.structural_cap


@dataclass
class CounterexampleReport:
    n_max: int
    vertex_count: int
    alpha: int
    proven: bool
    reference_size: int
    constrained: list

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
    runs = []
    for k in sorted(ks) if ks is not None else range(1, n_max + 1):
        vk = g.find_scaled((-k,))
        cand = ((1 << g.n) - 1) & ~(g.adj[vk] | (1 << vk))
        alpha_rest, mask, proven, _, _ = _solve_mask(g.adj, cand, node_budget or DEFAULT_NODE_BUDGET)
        if not proven:
            raise CertificateError(f"search for the set containing -{k} ran out of budget")
        members = [vk] + _bits(mask)
        if not is_independent_set(g, members):
            raise CertificateError(f"witness for -{k} is not independent")
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
