"""Coset colorings of space with 2^n colors, properness verification, and
finite chromatic witnesses: one DSATUR decider of k-colorability drives the
search, and plain backtracking re-checks its result independently.

The coloring assigns x to the coset of (1/2)L / L whose half-open translated
cell contains x; ties between nearest cell centers are broken
lexicographically, which turns the open-ball construction into a total
function without breaking properness.  A color is computed on scaled
integers by one kernel per coloring: the lattice's unchecked decoder finds
the least point of L closest to 2x, and its coset bits, the parities of
its coordinates in the lattice's own basis, are folded in one pass.  The
checks sit where points enter: ``color`` runs the decoder's check, the
catalog steps are checked once, and sampled points lie in the lattice's
space by construction.  Sampled coordinates are drawn from a table of
numerators over one denominator, and the boundary catalog is built on the
cell's integer vertices.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import add
from typing import Iterable, Optional, Sequence

from .constructions import CertificateError, GaugeNorm, HexagonPattern, PolytopeData
from .constructions import polytope_an, polytope_cube, polytope_dn
from .geometry import Vec, from_scaled, lcm_denominator, scaled_ints, to_scaled
from .graphs import GeometricGraph, _bits, check_power_count


class CosetColoring:
    """The 2^n-coloring by cosets of (1/2)Lambda / Lambda.

    ``cell`` is the Voronoi cell of the tiling lattice Lambda, the unit ball
    of ``gauge``; ``basis`` spans Lambda, as integer columns at the
    decoder's scale ``lattice.scale``.  ``kernel(w, d)``, the unchecked
    color of w/d, reads the coset bits of the point of Lambda closest to 2x.
    For the cube, Lambda = 2Z^n, ``lattice`` is Z^n and ``basis`` is 2I: that
    point is twice the point of Z^n closest to x, whose bits it reads."""

    def __init__(self, cell: PolytopeData):
        self.cell = cell
        nearest, bits = cell.lattice._nearest, cell.lattice.coset_bits
        k = 2 if cell.family == "cube" else 1
        self.basis = tuple(tuple(k * c for c in b) for b in cell.lattice.int_basis)
        if k == 2:
            self.kernel = lambda w, d: bits(nearest(w, d))
        else:  # 2x = w/(d/2) when d is even, as every point of the check is
            self.kernel = lambda w, d: bits(nearest(w, d >> 1) if not d & 1 else nearest([2 * c for c in w], d))

    # views of the cell and the basis
    family = property(lambda self: self.cell.family)
    lattice = property(lambda self: self.cell.lattice)
    gauge = property(lambda self: self.cell.gauge)
    dim = property(lambda self: len(self.basis))
    color_count = property(lambda self: 2**self.dim)


# Largest |V|*|F| (cell vertices times facets) a coloring may have: the
# boundary catalog pairs every vertex with every facet center, and the
# check colors each catalog point seven times.  2^16 admits A_8, D_8 and
# the 11-cube (36,720, 30,464 and 45,056) and refuses A_9, D_9 and the
# 12-cube (91,980, 76,320 and 98,304).
MAX_CATALOG_PAIRS = 1 << 16

_CELLS = {
    "an": (polytope_an, lambda n: (2 ** (n + 1) - 2) * n * (n + 1)),
    "dn": (polytope_dn, lambda n: (2**n + 2 * n) * 2 * n * (n - 1)),
    "cube": (polytope_cube, lambda n: 2**n * 2 * n),
}


def coset_coloring(family: str, n: int = 0, pattern: Optional[HexagonPattern] = None) -> CosetColoring:
    """The coset coloring of the family's cell; raises ValueError above
    MAX_CATALOG_PAIRS vertex-facet pairs, before any vertex is built."""
    family = family.lower()
    if family == "hexagon":
        if pattern is None:
            raise ValueError("hexagon coloring needs a pattern")
        return CosetColoring(pattern.cell)
    if family not in _CELLS:
        raise ValueError(f"unknown family {family!r}")
    build, pairs = _CELLS[family]
    message = "coloring catalog of {count} vertex-facet pairs exceeds the limit of {limit}"
    check_power_count(n, pairs, MAX_CATALOG_PAIRS, message)
    return CosetColoring(build(n))


def nearest_half_cell_center(coloring: CosetColoring, x: Vec) -> Vec:
    """The (1/2)Lambda point whose half-open cell contains x.

    x lies in lambda + (1/2)P iff 2*lambda is among the Lambda points
    closest to 2x; the lexicographically smallest closest point makes the
    assignment total and deterministic."""
    w, d = scaled_ints(x)
    if coloring.family == "cube":
        return from_scaled(coloring.lattice.nearest_scaled(w, d), 1)
    return from_scaled(coloring.lattice.nearest_scaled([2 * c for c in w], d), 2 * coloring.lattice.scale)


def coset_index(coloring: CosetColoring, lam: Vec) -> int:
    """Index of the coset of (1/2)Lambda / Lambda containing lam."""
    z = lam if coloring.family == "cube" else lam * 2  # 2lam, read in ``lattice``
    if not coloring.lattice.contains(z):
        raise ValueError(f"{lam} is not in (1/2)Lambda")
    return coloring.lattice.coset_bits(to_scaled(z, coloring.lattice.scale))


def _color_scaled(coloring: CosetColoring, w: Sequence[int], d: int) -> int:
    """``color`` of the point w/d, for integers w and d > 0, unchecked."""
    return coloring.kernel(w, d)


def color(coloring: CosetColoring, x: Vec) -> int:
    """Total coloring function: coset index of the nearest half-cell center."""
    w, d = scaled_ints(x)
    coloring.lattice._check_point(w)
    return _color_scaled(coloring, w, d)


# ---------------------------------------------------------------------------
# Properness verification


class ColoringViolation:
    def __init__(self, x: Vec, y: Vec, color: int):
        self.x, self.y, self.color = x, y, color

    def __eq__(self, other):
        return type(other) is ColoringViolation and vars(self) == vars(other)


class ColoringReport:
    def __init__(self, family: str, dim: int, color_count: int, sampled_pairs: int, catalog_pairs: int, violations):
        self.family, self.dim, self.color_count = family, dim, color_count
        self.sampled_pairs, self.catalog_pairs, self.violations = sampled_pairs, catalog_pairs, violations

    def __eq__(self, other):
        return type(other) is ColoringReport and vars(self) == vars(other)

    @property
    def holds(self) -> bool:
        return not self.violations


# Each sampled coordinate is k/den with den drawn from DRAW_DENS and
# |k| <= 3 den; DRAW_SCALE puts every draw on one denominator.  A draw from
# DRAW_TABLE, each den's numerators at that scale, makes the same two RNG
# calls as choosing den and then k by randint.
DRAW_DENS = (2, 3, 4, 5, 7, 8, 9, 12, 16)
DRAW_SCALE = math.lcm(*DRAW_DENS)
DRAW_TABLE = tuple(tuple(k * (DRAW_SCALE // den) for k in range(-3 * den, 3 * den + 1)) for den in DRAW_DENS)


def _random_scaled_point(coloring: CosetColoring, rng: random.Random) -> tuple:
    """A random point w/d of the coloring's space, as (w, d); for A_n the
    draw is projected onto the zero-sum hyperplane."""
    m, choice = coloring.lattice.ambient_dim, rng.choice
    w = [choice(choice(DRAW_TABLE)) for _ in range(m)]
    if coloring.family == "an":
        s = sum(w)
        return [c * m - s for c in w], DRAW_SCALE * m
    return w, DRAW_SCALE


def _random_unit_step(coloring: CosetColoring, rng: random.Random) -> tuple:
    """A random step b = u/gauge(u), as (z, e) with b = z/e."""
    while True:
        u, _ = _random_scaled_point(coloring, rng)
        if any(u):
            return coloring.gauge.unit_step(u)


def boundary_catalog(coloring: CosetColoring) -> tuple:
    """(steps, scale): deterministic points at gauge exactly 1, as sorted
    integer tuples at ``scale``, every coordinate even.  The points are the
    cell vertices, the facet centers L*a/|a|^2 of the gauge's rows a on its
    level L, and the gauge-1 midpoints between a center and a vertex."""
    cell = coloring.cell
    level = cell.gauge.level
    centers = []
    for a in cell.gauge.rows:
        norm2 = sum(c * c for c in a)
        centers.append([Fraction(level * c, norm2) for c in a])
    t = math.lcm(cell.scale, lcm_denominator(centers))
    verts = [tuple(c * (t // cell.scale) for c in v) for v in cell.vertices]
    cents = [to_scaled(c, t) for c in centers]
    # at scale 2t a midpoint is the integer sum; at 4t every point is even
    on_boundary = cell.gauge.unit_checker(2 * t)
    steps = {tuple(4 * c for c in p) for p in verts + cents}
    for c in cents:
        for v in verts:
            mid = tuple(map(add, c, v))
            if on_boundary(mid):
                steps.add(tuple(2 * x for x in mid))
    return sorted(steps), 4 * t


def verify_coloring(coloring: CosetColoring, samples: int, seed: int) -> ColoringReport:
    """Sampled and cataloged properness checks: two points at gauge distance
    exactly 1 must receive different colors.  Expected violation count: 0.
    Every point goes to the unchecked ``kernel``: each sampled step is
    checked to lie at gauge 1 and each catalog step by the decoder's check."""
    rng = random.Random(seed)
    kernel, is_unit = coloring.kernel, coloring.gauge.is_unit_scaled
    violations = []
    for _ in range(samples):
        xw, xd = _random_scaled_point(coloring, rng)
        bw, bd = _random_unit_step(coloring, rng)
        if not is_unit(bw, bd):
            raise CertificateError(f"sampled step {from_scaled(bw, bd)} is not at gauge distance 1")
        yw, yd = [a * bd + b * xd for a, b in zip(xw, bw)], xd * bd
        cx = kernel(xw, xd)
        if kernel(yw, yd) == cx:
            violations.append(ColoringViolation(from_scaled(xw, xd), from_scaled(yw, yd), cx))
    steps, scale = boundary_catalog(coloring)
    for b in steps:
        coloring.lattice._check_point(b)
    # the base points 0 and steps[i]/2 are exact: every step is even
    base_points = [(0,) * len(steps[0])] + [tuple(c // 2 for c in b) for b in steps[:6]]
    for x in base_points:
        cx = kernel(x, scale)
        for b in steps:
            y = [a + c for a, c in zip(x, b)]
            if kernel(y, scale) == cx:
                violations.append(ColoringViolation(from_scaled(x, scale), from_scaled(y, scale), cx))
    cat_pairs = len(base_points) * len(steps)
    return ColoringReport(coloring.family, coloring.dim, coloring.color_count, samples, cat_pairs, violations)


# ---------------------------------------------------------------------------
# Finite chromatic witnesses


def _greedy_clique(adj, verts: list) -> list:
    best: list = []
    for start in verts:
        clique = [start]
        cand = adj[start]
        while cand:
            v = (cand & -cand).bit_length() - 1
            clique.append(v)
            cand &= adj[v]
        if len(clique) > len(best):
            best = clique
    return best


# Search-node budgets: per call of the witness search's decider, unless the
# caller gives one, and per color count of the independent re-check.
WITNESS_NODE_BUDGET = 2_000_000
VERIFY_NODE_BUDGET = 4_000_000


def _colorable(g: GeometricGraph, verts: Iterable[int], k: int, budget: int) -> bool:
    """Whether the subgraph induced on verts is k-colorable.

    A greedy clique larger than k answers False at once; otherwise it seeds
    DSATUR-ordered backtracking, which raises TimeoutError after budget
    search nodes."""
    verts = sorted(verts)
    mask = sum(1 << v for v in verts)
    adj = {v: g.adj[v] & mask for v in verts}
    clique = _greedy_clique(adj, verts)
    if len(clique) > k:
        return False
    colors = {v: c for c, v in enumerate(clique)}
    order_pool = [v for v in verts if v not in colors]

    def choose():
        best_v, best_key = None, None
        for v in order_pool:
            if v in colors:
                continue
            used = {colors[u] for u in _bits(adj[v]) if u in colors}
            key = (-len(used), -adj[v].bit_count(), v)
            if best_key is None or key < best_key:
                best_v, best_key = v, key
        return best_v

    def backtrack() -> bool:
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise TimeoutError("coloring budget exhausted")
        v = choose()
        if v is None:
            return True
        used = {colors[u] for u in _bits(adj[v]) if u in colors}
        tried_fresh = False
        for c in range(k):
            if c in used:
                continue
            if c not in colors.values():
                if tried_fresh:
                    break  # fresh colors are interchangeable
                tried_fresh = True
            colors[v] = c
            if backtrack():
                return True
            del colors[v]
        return False

    return backtrack()


def verify_chromatic_number(g: GeometricGraph, indices: Iterable[int], k: int) -> bool:
    """Independent re-check: (k-1)-coloring infeasible, k-coloring feasible,
    via plain lexicographic backtracking (no DSATUR, no seed clique)."""
    verts = sorted(indices)
    mask = sum(1 << v for v in verts)
    adj = {v: g.adj[v] & mask for v in verts}

    def feasible(kk: int) -> bool:
        budget = [VERIFY_NODE_BUDGET]

        def rec(i: int, assign: dict) -> bool:
            budget[0] -= 1
            if budget[0] < 0:
                raise TimeoutError("verification budget exhausted")
            if i == len(verts):
                return True
            v = verts[i]
            used = {assign[u] for u in _bits(adj[v]) if u in assign}
            cap = min(kk, max(assign.values(), default=-1) + 2)
            for c in range(cap):
                if c in used:
                    continue
                assign[v] = c
                if rec(i + 1, assign):
                    return True
                del assign[v]
            return False

        return rec(0, {})

    if k > 1 and feasible(k - 1):
        return False
    return feasible(k)


class WitnessResult:
    def __init__(self, found: bool, k: int, vertex_indices=None, vertex_count: int = 0, verified: bool = False):
        self.found, self.k = found, k
        self.vertex_indices = [] if vertex_indices is None else vertex_indices
        self.vertex_count, self.verified = vertex_count, verified


def chromatic_witness_search(
    g: GeometricGraph,
    gauge: GaugeNorm,
    k: int,
    node_budget: Optional[int] = None,
) -> WitnessResult:
    """Search for an induced subgraph with chromatic number exactly k by
    growing gauge-radius balls around the origin to the first that is not
    (k-1)-colorable, then greedily dropping every vertex whose removal keeps
    it so.  A removal lowers the chromatic number by at most 1, so when every
    check finishes within budget each kept vertex is critical and the result
    has chromatic number exactly k; ``verified`` re-checks that.

    Each check may visit node_budget search nodes (WITNESS_NODE_BUDGET when
    None).  Returns found=False when no ball within the graph's box reaches
    k, or when a ball's check runs out of budget; a removal whose check runs
    out keeps its vertex."""
    if k == 1:
        return WitnessResult(True, 1, [0], 1, True)
    budget = WITNESS_NODE_BUDGET if node_budget is None else node_budget
    radii = []
    r = Fraction(1)
    top = g.box_radius if g.box_radius is not None else Fraction(3)
    while r <= 2 * top:
        radii.append(r)
        r += Fraction(1, 2)
    values = [gauge.value_scaled(p, g.scale) for p in g.points]
    for r in radii:
        ball = [i for i in range(g.n) if values[i] <= r]
        if len(ball) < k:
            continue
        try:
            if _colorable(g, ball, k - 1, budget):
                continue
        except TimeoutError:
            return WitnessResult(False, k)
        witness = ball
        # witness is never (k-1)-colorable, so it keeps at least 2 vertices
        for v in reversed(ball):
            trial = [u for u in witness if u != v]
            try:
                if not _colorable(g, trial, k - 1, budget):
                    witness = trial
            except TimeoutError:
                continue
        verified = verify_chromatic_number(g, witness, k)
        return WitnessResult(True, k, witness, len(witness), verified)
    return WitnessResult(False, k)


# ---------------------------------------------------------------------------
# Chromatic report


class ChromaticReport:
    def __init__(self, family: str, dim: int, upper: int, lower: int):
        self.family, self.dim, self.upper, self.lower = family, dim, upper, lower

    @property
    def conclusion(self) -> str:
        return "tight" if self.upper == self.lower else "gap"


def chromatic_report(family: str, n: int = 0, pattern: Optional[HexagonPattern] = None) -> ChromaticReport:
    """upper = 2^n from the coset coloring; lower = ceil(1/alpha-bar bound)
    from the density certificate."""
    from .density import verify_an_bound, verify_dn_bound, verify_hexagon_bound
    from .independence import cube_certificate

    family = family.lower()
    if family == "an":
        cert = verify_an_bound(n)
        bound = cert.assembled_bound
        dim = n
    elif family == "dn":
        cert = verify_dn_bound(n)
        bound = cert.assembled_bound
        dim = n
    elif family == "hexagon":
        cert = verify_hexagon_bound(pattern)
        bound = cert.assembled_bound
        dim = 2
    elif family == "cube":
        cc = cube_certificate(n)
        bound = cc.ratio
        dim = n
    else:
        raise ValueError(f"unknown family {family!r}")
    recip = 1 / bound
    lower = -(-recip.numerator // recip.denominator)
    return ChromaticReport(family, dim, 2**dim, lower)
