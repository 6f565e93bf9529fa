"""Checks of every report a benchmark pass produces.

Reports are compared with computations made here, apart from the program
(own generators, clique points, box enumerations and closed-form gauges), or
with properties the method must have; never with a stored copy of earlier
output.  `prepare` does the expensive part once per run, outside the timed
passes; `grade` then checks one job's exit code and report cheaply.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction as F
from itertools import combinations, product

# ---------------------------------------------------------------------------
# The lattices of the graphs, at integer scale


def an_scale(n: int) -> int:
    """(1/2)A_n^# scaled by 2(n+1) is the set of zero-sum integer tuples with
    all coordinates congruent modulo n+1."""
    return 2 * (n + 1)


def an_half_generators(n: int) -> list:
    """(1/2)V_P of the A_n cell at scale 2(n+1): the cell's vertices are the
    projections u - (|u|/(n+1))*1 of the non-constant 0/1 vectors u."""
    m = n + 1
    return [tuple(m * ui - sum(u) for ui in u) for u in product((0, 1), repeat=m) if 0 < sum(u) < m]


def an_chain_point(n: int, w: int) -> tuple:
    """Half the projected prefix vector (1,..,1,0,..,0) of weight w, scaled."""
    m = n + 1
    return tuple((m if i < w else 0) - w for i in range(m))


def dn_half_generators(n: int) -> list:
    """(1/2)V_P of the D_n cell at scale 4: vertices +-e_i and (+-1/2)^n."""
    gens = [tuple(s * 2 * (i == j) for j in range(n)) for i in range(n) for s in (1, -1)]
    return gens + list(product((1, -1), repeat=n))


def dn_clique_points(n: int) -> dict:
    """The maximal clique {0, v1/2, v2/2, v3/2} of the D_n graph at scale 4."""
    return {
        "v1/2": (0,) * (n - 1) + (2,),
        "v2/2": (1,) * n,
        "v3/2": (-1,) + (1,) * (n - 1),
    }


def closed_translate(c, generators) -> frozenset:
    """c + (G u {0}): the closed neighborhood of the vertex c."""
    return frozenset([c] + [tuple(a + b for a, b in zip(c, g)) for g in generators])


def neighborhood_size(points, generators) -> int:
    """|N[C]| = |union over c in C of c + (G u {0})|."""
    return len(frozenset().union(*(closed_translate(c, generators) for c in points)))


def an_box_points(n: int, radius: F) -> list:
    m, s = n + 1, an_scale(n)
    bound = math.floor(radius * s)
    out = []
    for r in range(m):
        vals = [v for v in range(-bound, bound + 1) if v % m == r]
        for head in product(vals, repeat=n):
            last = -sum(head)
            if abs(last) <= bound and last % m == r:
                out.append(head + (last,))
    return out


def an_packing_witness(n: int, radius: F) -> list:
    """Box points of the translates of the maximal chain clique by the
    tiling lattice A_n (at scale 2(n+1), A_n is the zero-sum multiples of
    2(n+1)): the half-cell packing restricted to the box."""
    s = an_scale(n)
    clique = [an_chain_point(n, w) for w in range(n + 1)]
    return [y for y in an_box_points(n, radius) if any(all((a - b) % s == 0 for a, b in zip(y, q)) for q in clique)]


def an_unit(d, scale) -> bool:
    """A_n gauge max_j d_j - min_i d_i equals 1, on scaled integers."""
    return max(d) - min(d) == scale


# ---------------------------------------------------------------------------
# Gauges as closed forms on exact rationals


def _parse_basis(text: str):
    v = [F(x) for x in text.split(",")]
    return (v[0], v[1]), (v[2], v[3])


def hexagon_relevant_vectors(basis: str) -> list:
    """The Voronoi-relevant vectors of the planar lattice, by brute force: in
    each non-zero class of L/2L, the shortest vectors when they are a single
    +-pair."""
    b0, b1 = _parse_basis(basis)
    classes = {}
    for c0, c1 in product(range(-4, 5), repeat=2):
        if c0 % 2 == c1 % 2 == 0:
            continue
        v = (c0 * b0[0] + c1 * b1[0], c0 * b0[1] + c1 * b1[1])
        classes.setdefault((c0 % 2, c1 % 2), []).append(v)
    out = []
    for vs in classes.values():
        best = min(x * x + y * y for x, y in vs)
        shortest = [v for v in vs if v[0] ** 2 + v[1] ** 2 == best]
        if len(shortest) == 2:
            out += shortest
    return sorted(out)


def make_gauge(family: str, basis: str = ""):
    """The gauge whose unit ball is the family's cell, as a closed form."""
    if family == "an":
        return lambda x: max(x) - min(x)
    if family == "dn":
        def dn(x):
            a = sorted((abs(c) for c in x), reverse=True)
            return a[0] + a[1]
        return dn
    if family == "cube":
        return lambda x: max(abs(c) for c in x)
    rel = hexagon_relevant_vectors(basis)
    return lambda x: max(2 * (x[0] * v[0] + x[1] * v[1]) / (v[0] ** 2 + v[1] ** 2) for v in rel)


# ---------------------------------------------------------------------------
# Extra checks of the coset coloring, run in this process on points drawn
# from the workload seed


EXTRA_POINTS = 12


def _tiling_basis(family: str, n: int, basis: str) -> list:
    """A basis of the tiling lattice Lambda (the cell's lattice)."""
    if family == "an":
        return [tuple(F((i == j) - (i + 1 == j)) for j in range(n + 1)) for i in range(n)]
    if family == "dn":
        first = tuple(F(int(j < 2)) for j in range(n))
        rest = [tuple(F((i == j) - (i + 1 == j)) for j in range(n)) for i in range(n - 1)]
        return [first] + rest
    if family == "cube":
        return [tuple(F(2 * (i == j)) for j in range(n)) for i in range(n)]
    return [tuple(v) for v in _parse_basis(basis)]


def _combine(basis, coeffs) -> tuple:
    return tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(len(basis[0])))


def _random_point(rng, family, n) -> tuple:
    m = n + 1 if family == "an" else n
    x = [F(rng.randint(-36, 36), rng.choice((2, 3, 4, 5, 7, 8, 9))) for _ in range(m)]
    if family == "an":
        mean = sum(x) / m
        x = [c - mean for c in x]
    return tuple(x)


def _brute_nearest_distance(family, basis_vecs, x) -> F:
    """Smallest squared Euclidean distance from x to (1/2)Lambda, by a box
    search of Lambda around 2x wide enough to hold the closest point (every
    covering radius here is below the box half-width)."""
    y = [2 * c for c in x]
    best = None
    if family == "hexagon":
        (a, b), (c, d) = basis_vecs
        det = a * d - b * c
        k0 = (y[0] * d - y[1] * c) / det
        k1 = (a * y[1] - b * y[0]) / det
        cands = (
            (i * a + j * c, i * b + j * d)
            for i in range(math.floor(k0) - 3, math.ceil(k0) + 4)
            for j in range(math.floor(k1) - 3, math.ceil(k1) + 4)
        )
    else:
        ranges = [range(math.floor(c) - 1, math.ceil(c) + 2) for c in y]
        cands = product(*ranges)
    for z in cands:
        if family == "an" and sum(z) != 0:
            continue
        if family == "dn" and sum(z) % 2:
            continue
        if family == "cube" and any(c % 2 for c in z):
            continue
        dist = sum((zi - yi) ** 2 for zi, yi in zip(z, y))
        if best is None or dist < best:
            best = dist
    return best / 4


def _in_half_lattice(family, basis_vecs, c) -> bool:
    y = [2 * v for v in c]
    if any(v.denominator != 1 for v in y) and family != "hexagon":
        return False
    if family == "an":
        return sum(y) == 0
    if family == "dn":
        return sum(y) % 2 == 0
    if family == "cube":
        return all(v % 2 == 0 for v in y)
    (a, b), (cc, d) = basis_vecs
    det = a * d - b * cc
    k0 = (y[0] * d - y[1] * cc) / det
    k1 = (a * y[1] - b * y[0]) / det
    return k0.denominator == 1 and k1.denominator == 1


def coloring_extra_problems(job, seed: int) -> list:
    """Check the program's coloring functions on extra points: gauge-1 pairs
    get different colors, colors are Lambda-periodic, all 2^n colors occur,
    and the chosen half-cell center is a nearest point of (1/2)Lambda."""
    from voronorm import coloring as col
    from voronorm.constructions import hexagon_pattern
    from voronorm.geometry import Vec, reduce_planar_basis

    family, n = job.family, job.dim
    if family == "hexagon":
        b0, b1 = _parse_basis(job.basis)
        coloring = col.coset_coloring("hexagon", pattern=hexagon_pattern(reduce_planar_basis(Vec(b0), Vec(b1))))
    else:
        coloring = col.coset_coloring(family, n)
    gauge = make_gauge(family, job.basis)
    basis_vecs = _tiling_basis(family, n, job.basis)
    rng = random.Random(f"voronorm-bench-extra:{seed}:{job.name}")

    def color(x):
        return col.color(coloring, Vec(x))

    def add(x, y):
        return tuple(a + b for a, b in zip(x, y))

    def scaled(d, target):
        g = gauge(d)
        return tuple(c * target / g for c in d)

    problems = []
    for _ in range(EXTRA_POINTS):
        x = _random_point(rng, family, n)
        d = _random_point(rng, family, n)
        if any(d):
            b = scaled(d, F(1))
            if color(x) == color(add(x, b)):
                problems.append(f"points {x} and {add(x, b)} at gauge distance 1 share a color")
        lam = _combine(basis_vecs, [rng.randint(-3, 3) for _ in basis_vecs])
        if color(add(x, lam)) != color(x):
            problems.append(f"color of {x} changes under the lattice translation {lam}")
        c = tuple(col.nearest_half_cell_center(coloring, Vec(x)))
        if not _in_half_lattice(family, basis_vecs, c):
            problems.append(f"center {c} of {x} is not in (1/2)Lambda")
        elif gauge(tuple(a - b for a, b in zip(x, c))) > F(1, 2):
            problems.append(f"{x} is not in the half cell of its center {c}")
        elif sum((a - b) ** 2 for a, b in zip(x, c)) > _brute_nearest_distance(family, basis_vecs, x):
            problems.append(f"center {c} of {x} is farther than a point of the box search")
    colors = set()
    for eps in product((0, 1), repeat=len(basis_vecs)):
        center = tuple(v / 2 for v in _combine(basis_vecs, eps))
        d = _random_point(rng, family, n)
        delta = scaled(d, F(rng.randint(1, 9), 20)) if any(d) else d  # gauge < 1/2
        colors.add(color(add(center, delta)))
    if colors != set(range(2**n)):
        problems.append(f"the 2^{n} half-cell cosets get colors {sorted(colors)}")
    return problems


# ---------------------------------------------------------------------------
# Witness graphs: own gauge, own chromatic number


def _colorable(vertices, adj, k) -> bool:
    order = sorted(vertices, key=lambda v: -len(adj[v]))
    assign = {}

    def go(i):
        if i == len(order):
            return True
        v = order[i]
        used = {assign[u] for u in adj[v] if u in assign}
        for c in range(k):
            if c not in used:
                assign[v] = c
                if go(i + 1):
                    return True
                del assign[v]
        return False

    return go(0)


def _parse_point(text: str) -> tuple:
    return tuple(F(c) for c in text.split(","))


# ---------------------------------------------------------------------------
# Reference values per job


def prepare(jobs, seed: int) -> dict:
    """Reference values for each job, keyed by job name (run once per run)."""
    refs = {}
    for job in jobs:
        ref = {}
        if job.kind == "bound" and job.family == "an":
            n = job.dim
            gens = an_half_generators(n)
            ref["expected_bound"] = F(1, 2**n)
            hoods = [closed_translate(an_chain_point(n, w), gens) for w in range(n + 1)]
            counts = {}
            for mask in range(2**n):
                ws = [w for w in range(1, n + 1) if mask >> (w - 1) & 1]
                label = "{0}" if not ws else "{0," + ",".join(map(str, ws)) + "}"
                counts[label] = (len(ws) + 1, len(hoods[0].union(*(hoods[w] for w in ws))))
            ref["counts"] = counts
        elif job.kind == "bound" and job.family == "dn":
            n = job.dim
            gens = dn_half_generators(n)
            pts = dn_clique_points(n)
            ref["expected_bound"] = F(4, 3 * 2**n + 4 * n - 4)
            counts = {}
            for k in range(4):
                for names in combinations(sorted(pts), k):
                    label = "{0}" if not names else "{0," + ",".join(names) + "}"
                    members = [(0,) * n] + [pts[x] for x in names]
                    counts[label] = (len(members), neighborhood_size(members, gens))
            ref["counts"] = counts
        elif job.kind == "ratio" and job.family == "an":
            n = job.dim
            ref["entries"] = {}
            for r in job.radii.split(","):
                radius = F(r)
                witness = an_packing_witness(n, radius)
                s = an_scale(n)
                independent = not any(an_unit(tuple(a - b for a, b in zip(p, q)), s) for p, q in combinations(witness, 2))
                ref["entries"][radius] = (len(an_box_points(n, radius)), len(witness), independent)
        elif job.kind == "ratio" and job.family == "counterexample":
            n = job.n
            def best(ks):
                # an independent set with smallest negative -j keeps [-n, -j],
                # 0 and the positives up to 2j; with no negative it is 0..n
                return max([n + 1] + [n - j + 2 + min(2 * j, n) for j in ks])

            ref["alpha"] = best(range(1, n + 1))
            ref["constrained"] = {k: best(range(1, k + 1)) for k in range(1, n + 1)}
        elif job.kind == "color":
            try:
                ref["extra_problems"] = coloring_extra_problems(job, seed)
            except Exception as e:  # a crash of the program's coloring fails the job
                ref["extra_problems"] = [f"extra checks raised {type(e).__name__}: {e}"]
        elif job.kind == "witness":
            ref["gauge"] = make_gauge("hexagon", job.basis)
        refs[job.name] = ref
    return refs


# ---------------------------------------------------------------------------
# Report checks


def _check_bound(job, rep, ref, out):
    n = job.dim
    if job.family == "cube":
        expected = F(1, 2**n)
        if rep.get("alpha") != 1 or rep.get("vertex_count") != 2**n or rep.get("complete_graph") is not True:
            out.append(f"cube report: alpha {rep.get('alpha')}, vertices {rep.get('vertex_count')}, "
                       f"complete {rep.get('complete_graph')}")
    elif job.family == "hexagon":
        expected = F(1, 4)
        hex_deltas = {"A": F(1, 6), "B": F(1, 4), "AB": F(2, 7), "BB": F(1, 3), "ABB": F(3, 8), "BAB": F(3, 8)}
        got = {e["label"]: F(e["density"]) for e in rep.get("entries", [])}
        if got != hex_deltas:
            out.append(f"hexagon class-B densities {got}")
        if got and F(2, 3) * max(got.values()) != F(rep["assembled_bound"]):
            out.append("assembled bound is not 2/3 of the largest class-B density")
    else:
        expected = ref["expected_bound"]
        counts = ref["counts"]
        entries = rep.get("entries", [])
        if sorted(e["label"] for e in entries) != sorted(counts):
            out.append(f"entry labels {[e['label'] for e in entries]}")
        for e in entries:
            size, count = counts.get(e["label"], (None, None))
            if (e["size"], e["neighborhood"]) != (size, count):
                out.append(f"entry {e['label']}: size/neighborhood {e['size']}/{e['neighborhood']}, "
                           f"union of translates gives {size}/{count}")
            elif F(e["density"]) != F(size, count):
                out.append(f"entry {e['label']}: density {e['density']}")
        if entries and max(F(e["density"]) for e in entries) != F(rep["assembled_bound"]):
            out.append("assembled bound is not the largest local density")
    if F(rep.get("assembled_bound", "0")) != expected or F(rep.get("expected_bound", "0")) != expected:
        out.append(f"bound {rep.get('assembled_bound')} (expected {rep.get('expected_bound')}), closed form {expected}")
    if rep.get("matches_expected") is not True:
        out.append("matches_expected is not true")


def _check_property_d(job, rep, ref, out):
    if rep.get("holds") is not True or rep.get("violation_count") != 0 or rep.get("violations"):
        out.append(f"property D does not hold: {rep.get('violation_count')} violations")
    if not rep.get("interior_vertices", 0) > 0 or not rep.get("checked_pairs", 0) > 0:
        out.append(f"vacuous check: {rep.get('interior_vertices')} interior vertices, "
                   f"{rep.get('checked_pairs')} pairs")
    if rep.get("mode") != job.mode or rep.get("family") != job.family or rep.get("dim") != job.dim:
        out.append(f"report is for {rep.get('family')} {rep.get('dim')} {rep.get('mode')}")


def _check_ratio(job, rep, ref, out):
    if job.family == "counterexample":
        n = job.n
        if rep.get("proven") is not True or rep.get("vertices") != 2 * n + 1:
            out.append(f"counterexample: proven {rep.get('proven')}, vertices {rep.get('vertices')}")
        if not rep.get("alpha", -1) >= n // 2 + n + 2 or rep.get("alpha") != ref["alpha"]:
            out.append(f"counterexample alpha {rep.get('alpha')}, exact value {ref['alpha']}")
        runs = rep.get("constrained_runs", [])
        if [r["forced_vertex"] for r in runs] != [-k for k in range(1, n + 1)]:
            out.append("constrained runs do not force -1..-N")
        for r in runs:
            k = -r["forced_vertex"]
            cap = n + min(2 * k, n) + 1
            if r["max_positive_in_witness"] > 2 * k or r["alpha"] > cap or r["structural_cap"] != cap:
                out.append(f"constrained run -{k}: max positive {r['max_positive_in_witness']}, "
                           f"alpha {r['alpha']}, cap {r['structural_cap']}")
            elif r["alpha"] != ref["constrained"].get(k):
                out.append(f"constrained run -{k}: alpha {r['alpha']}, exact value {ref['constrained'].get(k)}")
        return
    n = job.dim
    target = F(1, 2**n)
    if F(rep.get("target_bound", "0")) != target:
        out.append(f"target bound {rep.get('target_bound')}")
    entries = rep.get("entries", [])
    radii = [F(r) for r in job.radii.split(",")] if job.family == "an" else [F(1)]
    if [F(e["radius"]) for e in entries] != radii:
        out.append(f"radii {[e['radius'] for e in entries]}")
    for e in entries:
        radius = F(e["radius"])
        if e["proven"] is not True or e["alpha"] != e["upper_bound"]:
            out.append(f"radius {e['radius']}: proven {e['proven']}, alpha {e['alpha']}, upper bound {e['upper_bound']}")
        if F(e["ratio"]) != F(e["alpha"], e["vertices"]) or F(e["ratio"]) < target:
            out.append(f"radius {e['radius']}: ratio {e['ratio']} for {e['alpha']}/{e['vertices']}")
        if job.family == "cube":
            witness, vertices, independent = 1, 2**n, True
            if e["alpha"] != 1:
                out.append(f"cube {n}: alpha {e['alpha']} in a complete graph")
        else:
            vertices, witness, independent = ref["entries"].get(radius, (None, None, False))
        if not independent:
            out.append(f"radius {e['radius']}: the packing witness is not independent")
        if e["vertices"] != vertices or e["alpha"] < witness:
            out.append(f"radius {e['radius']}: {e['vertices']} vertices (box has {vertices}), "
                       f"alpha {e['alpha']} below the packing witness {witness}")


def _check_color(job, rep, ref, out):
    if rep.get("violation_count") != 0 or rep.get("violations"):
        out.append(f"{rep.get('violation_count')} coloring violations")
    if rep.get("sampled_pairs") != job.samples:
        out.append(f"sampled_pairs {rep.get('sampled_pairs')} for {job.samples} samples asked")
    if rep.get("color_count") != 2**job.dim or rep.get("family") != job.family or not rep.get("catalog_pairs", 0) > 0:
        out.append(f"report is for {rep.get('family')} with {rep.get('color_count')} colors, "
                   f"{rep.get('catalog_pairs')} catalog pairs")
    out.extend(ref["extra_problems"])


def _check_witness(job, rep, ref, out, edges_text):
    if rep.get("found") is not True or rep.get("verified_independently") is not True:
        out.append(f"witness found {rep.get('found')}, verified {rep.get('verified_independently')}")
        return
    vertices = [_parse_point(v) for v in rep.get("vertices", [])]
    if rep.get("target_chromatic_number") != job.n or rep.get("vertex_count") != len(vertices):
        out.append(f"witness for chi={rep.get('target_chromatic_number')} with {rep.get('vertex_count')} vertices")
    gauge = ref["gauge"]
    unit = {
        frozenset((p, q)) for p, q in combinations(vertices, 2)
        if gauge(tuple(a - b for a, b in zip(p, q))) == 1
    }
    listed = set()
    for line in (edges_text or "").splitlines():
        u, w = (_parse_point(t) for t in line.split())
        listed.add(frozenset((u, w)))
    if listed != unit:
        out.append(f"edge list has {len(listed)} edges, the witness has {len(unit)} unit-distance pairs")
    adj = {v: set() for v in vertices}
    for e in unit:
        p, q = tuple(e)
        adj[p].add(q)
        adj[q].add(p)
    k = job.n
    if _colorable(vertices, adj, k - 1) or not _colorable(vertices, adj, k):
        out.append(f"witness graph does not have chromatic number {k}")


_CHECKERS = {"bound": _check_bound, "property-d": _check_property_d, "ratio": _check_ratio, "color": _check_color}


def grade(job, exit_code, report_text, edges_text, ref) -> list:
    """Problems with one job's result; the job failed iff the list is non-empty."""
    if exit_code != 0:
        return [f"exit code {exit_code!r}, expected 0"]
    try:
        rep = json.loads(report_text)
    except (TypeError, ValueError) as e:
        return [f"report is not JSON: {e}"]
    out = []
    try:
        if job.kind == "witness":
            _check_witness(job, rep, ref, out, edges_text)
        else:
            _CHECKERS[job.kind](job, rep, ref, out)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        out.append(f"malformed report: {type(e).__name__}: {e}")
    return out
