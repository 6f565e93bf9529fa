"""Voronoi polytope data for each lattice family.

Gauge (polytope-norm) evaluators as integer rows, one per facet, on one
level, evaluated only through one form on scaled integers: the max of the
rows, in closed form for the A_n, D_n and cube gauges (the Fraction
functional lists are the oracle in the tests), one integer
vertex builder per family (the cell vertices on scaled integers, which are
also the Cayley generators (1/2)V_P at twice the scale), the generators of
the A_n and cube point groups, written here only, and the hexagon
vertex pattern used by the planar pipeline, with its pattern graph
described once by the steps from each of its three cosets.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations, product
from operator import add, sub
from typing import Callable

from .geometry import (
    AnLattice,
    DegenerateCell,
    DnLattice,
    Lattice,
    PlanarLattice,
    ReducedPlanarBasis,
    Vec,
    ZnLattice,
    from_scaled,
    lcm_denominator,
    scaled_ints,
    to_scaled,
)


class InputOffHyperplane(ValueError):
    """An A_n gauge was evaluated off the zero-sum hyperplane."""


class CertificateError(Exception):
    """A check that guards an emitted certificate failed."""


def _an_form(d) -> int:
    return max(d) - min(d)


def _dn_form(d) -> int:
    # sum of the two largest absolute values
    m1 = m2 = 0
    for c in d:
        a = -c if c < 0 else c
        if a > m1:
            m1, m2 = a, m1
        elif a > m2:
            m2 = a
    return m1 + m2


def _sup_form(d) -> int:
    return max(-min(d), max(d))


class GaugeNorm:
    """Polytope norm as a finite max over integer rows on one level.

    ``rows`` holds one integer row a per facet and ``level`` is one positive
    integer L, with value(y/s) = max over the rows of a.y / (L*s) for integer
    tuples y.  The rows are closed under negation, so the gauge is centrally
    symmetric and positively homogeneous.  ``form`` is that max on scaled
    integers, f(y) = max_a a.y, and every evaluation goes through it.  At
    L = 1 it has a closed form: for an max - min, the max of the x_j - x_i;
    for dn the sum of the two largest absolute values, the max of
    |x_i| + |x_j|; for sup the largest absolute value.  The ``Fraction``
    functional lists are its oracle in the tests.
    """

    def __init__(self, rows: tuple, form: Callable, level: int = 1, require_zero_sum: bool = False):
        self.rows, self.form, self.level, self.require_zero_sum = rows, form, level, require_zero_sum

    def _check_scaled_domain(self, y) -> None:
        if self.require_zero_sum and sum(y) != 0:
            raise InputOffHyperplane(f"sum {sum(y)} != 0")

    def value(self, x: Vec) -> Fraction:
        """The gauge of the Fraction vector x, by ``value_scaled``."""
        return self.value_scaled(*scaled_ints(x))

    def is_unit_scaled(self, y, scale: int) -> bool:
        """value(y/scale) == 1 for the integer tuple y, by ``unit_checker``."""
        self._check_scaled_domain(y)
        return self.unit_checker(scale)(y)

    def unit_step(self, y) -> tuple:
        """(z, e) with z/e = y/value(y): the nonzero integer tuple y scaled
        onto the unit sphere."""
        self._check_scaled_domain(y)
        return [self.level * c for c in y], self.form(y)

    def value_scaled(self, y, scale: int) -> Fraction:
        """value of the point y/scale, with y given in scaled integers."""
        self._check_scaled_domain(y)
        return Fraction(self.form(y), self.level * scale)

    def unit_checker(self, scale: int) -> Callable:
        """Predicate: is the scaled-integer displacement at gauge exactly 1."""
        form, t = self.form, self.level * scale
        return lambda d: form(d) == t


def row_values(rows, points):
    """For each integer row a of a gauge, the list [a.p for p in
    points], summed over the coordinate columns of a's nonzero entries only
    (every cube, A_n and D_n row has one or two)."""
    cols = list(zip(*points))
    for a in rows:
        terms = [col if c == 1 else [c * x for x in col] for c, col in zip(a, cols) if c]
        vals = list(terms[0]) if terms else [0] * len(points)
        for t in terms[1:]:
            vals = list(map(add, vals, t))
        yield vals


def _row(m: int, coefs: dict) -> tuple:
    return tuple(coefs.get(k, 0) for k in range(m))


def gauge_an(n: int) -> GaugeNorm:
    """Gauge of the A_n Voronoi cell: max_j x_j - min_i x_i on the hyperplane."""
    if n < 2:
        raise ValueError("n >= 2 required")
    m = n + 1
    rows = tuple(_row(m, {j: 1, i: -1}) for i, j in permutations(range(m), 2))
    return GaugeNorm(rows, _an_form, require_zero_sum=True)


def gauge_dn(n: int) -> GaugeNorm:
    """Gauge of the D_n Voronoi cell: max_{i != j} |x_i| + |x_j|."""
    if n < 4:
        raise ValueError("n >= 4 required")
    rows = tuple(
        _row(n, {i: si, j: sj}) for i, j in combinations(range(n), 2) for si, sj in product((1, -1), repeat=2)
    )
    return GaugeNorm(rows, _dn_form)


def gauge_sup(n: int) -> GaugeNorm:
    """Sup norm: gauge of the cube with vertices (+-1, ..., +-1)."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return GaugeNorm(tuple(_row(n, {i: s}) for i in range(n) for s in (1, -1)), _sup_form)


def gauge_planar(basis: ReducedPlanarBasis) -> GaugeNorm:
    """Gauge of the hexagonal Voronoi cell: max over the six face vectors v
    of 2<x, v>/<v, v>.  The rows are the six 2v/<v, v> cleared by their
    common denominator, which becomes the level; the form is the max of the
    rows."""
    units = [v * 2 / v.norm2() for v in basis.face_vectors()]
    level = lcm_denominator(units)
    rows = tuple(tuple(int(c * level) for c in u) for u in units)
    return GaugeNorm(rows, lambda y: max([a0 * y[0] + a1 * y[1] for a0, a1 in rows]), level)


# ---------------------------------------------------------------------------
# Polytope data


def an_vertices_scaled(n: int) -> list:
    """The 2^(n+1) - 2 vertices of the A_n cell at scale n+1, sorted: the
    projections (n+1)u - |u| of the nonconstant 0/1 vectors u.  At scale
    2(n+1) the same tuples are the halved vertices (1/2)V_P."""
    m = n + 1
    return sorted(tuple(m * c - s for c in u) for u in product((0, 1), repeat=m) if 0 < (s := sum(u)) < m)


def dn_vertices_scaled(n: int) -> list:
    """The 2n type-1 vertices +-e_i and the 2^n type-2 vertices (+-1/2, ...)
    of the D_n cell at scale 2, sorted; at scale 4 they are (1/2)V_P."""
    out = [tuple(s if j == i else 0 for j in range(n)) for i in range(n) for s in (2, -2)]
    out += product((1, -1), repeat=n)
    return sorted(out)


def cube_vertices_scaled(n: int) -> list:
    """The 2^n vertices (+-1, ..., +-1) of the cube at scale 1, sorted."""
    return list(product((-1, 1), repeat=n))


class PolytopeData:
    """A lattice Voronoi cell: tiling lattice, gauge and vertices, the
    vertices as integer tuples at ``scale``."""

    def __init__(self, family: str, lattice: Lattice, gauge: GaugeNorm, scale: int, vertices: tuple):
        self.family, self.lattice, self.gauge, self.scale, self.vertices = family, lattice, gauge, scale, vertices

    def check_vertices_on_boundary(self) -> None:
        """Check exactly that every vertex has gauge 1, by the gauge's own
        ``unit_checker``; the first failing vertex is named."""
        for v in self.vertices:
            self.gauge._check_scaled_domain(v)
        is_unit = self.gauge.unit_checker(self.scale)
        for v in self.vertices:
            if not is_unit(v):
                raise CertificateError(f"vertex {from_scaled(v, self.scale)} is not on the boundary")


def _polytope(family: str, lattice: Lattice, gauge: GaugeNorm, scale: int, vertices: list) -> PolytopeData:
    data = PolytopeData(family, lattice, gauge, scale, tuple(vertices))
    data.check_vertices_on_boundary()
    return data


def polytope_an(n: int) -> PolytopeData:
    return _polytope("an", AnLattice(n), gauge_an(n), n + 1, an_vertices_scaled(n))


def polytope_dn(n: int) -> PolytopeData:
    return _polytope("dn", DnLattice(n), gauge_dn(n), 2, dn_vertices_scaled(n))


def polytope_cube(n: int) -> PolytopeData:
    # the cube is the Voronoi cell of 2Z^n; the coloring lattice (1/2)*2Z^n
    # is Z^n itself
    return _polytope("cube", ZnLattice(n), gauge_sup(n), 1, cube_vertices_scaled(n))


def point_group_generators(family: str, n: int) -> list:
    """Generators of the point group of the family's cell, as (name, map)
    pairs on integer tuples: for "an", S_{n+1} x {+-1} on (n+1)-tuples; for
    "cube", the signed permutations on n-tuples.  Each map sends the
    family's lattice, gauge rows and cell vertices onto themselves.  The
    order is kept: a group closure cut at a cap depends on it, and a failed
    check names the first generator that breaks it."""
    swap = ("the swap (0 1)", lambda p: (p[1], p[0]) + p[2:])
    if family == "an":
        return [swap, ("the (n+1)-cycle", lambda p: p[1:] + p[:1]), ("negation", lambda p: tuple(-c for c in p))]
    if family == "cube":
        sign = ("the sign change of coordinate 0", lambda p: (-p[0],) + p[1:])
        gens = [sign, ("the n-cycle", lambda p: p[1:] + p[:1])]
        return gens + [swap] if n >= 2 else gens
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Hexagon pattern


class HexagonPattern:
    """The labeled hexagon data of the planar pipeline.

    face: six face vectors in cyclic order with face[i+3] = -face[i];
    v: six cell vertices with face[i] = v[i] + v[i+1] (indices mod 6);
    s: the six interior points s[i] = (v[i-1] + v[i+1]) / 2.
    """

    def __init__(self, basis: ReducedPlanarBasis, face: tuple, v: tuple, s: tuple, gauge: GaugeNorm):
        self.basis, self.face, self.v, self.s, self.gauge = basis, face, v, s, gauge

    @property
    def lattice(self) -> PlanarLattice:
        return self.basis.lattice()

    def a_generators(self) -> list:
        """Generators of the class-A lattice (1/2)L."""
        return [self.basis.b0 / 2, self.basis.b1 / 2]

    def class_b_offsets(self) -> tuple:
        """Coset representatives of the class-B translates: v0 and v1."""
        return self.v[0], self.v[1]

    def scale(self) -> int:
        """Denominator clearing factor for all pattern points."""
        return 2 * lcm_denominator(
            list(self.v) + list(self.s) + [self.basis.b0, self.basis.b1]
        )

    @cached_property
    def half_basis_scaled(self) -> tuple:
        """The generators b0/2, b1/2 of (1/2)L as integer tuples at ``scale()``."""
        return tuple(to_scaled(b, self.scale()) for b in self.a_generators())

    @cached_property
    def coset_offsets_scaled(self) -> tuple:
        """The offsets 0, v0, v1 of the cosets 0, 1, 2 of ``steps`` as
        integer tuples at ``scale()``."""
        return ((0, 0),) + tuple(to_scaled(w, self.scale()) for w in self.class_b_offsets())

    @cached_property
    def s_scaled(self) -> tuple:
        """The six interior points s[i] as integer tuples at ``scale()``."""
        return tuple(to_scaled(p, self.scale()) for p in self.s)

    def _half_coset_key(self, u) -> tuple:
        """The Cramer numerators of the integer point u at ``scale()`` over
        ``half_basis_scaled``, modulo its determinant: two points lie in the
        same coset of (1/2)L exactly when their keys agree."""
        (p0, p1), (q0, q1) = self.half_basis_scaled
        det = p0 * q1 - p1 * q0
        return (u[0] * q1 - u[1] * q0) % det, (p0 * u[1] - p1 * u[0]) % det

    @cached_property
    def steps(self) -> tuple:
        """The pattern graph, described once: ``steps[c]`` lists the pairs
        (d, k) such that every point p of coset c (0 for (1/2)L, 1 and 2 for
        v0 + (1/2)L and v1 + (1/2)L) is adjacent to p + d, of coset k, with d
        at ``scale()``.  A point of (1/2)L has the steps s_i; a class-B point
        y has -s_i and s_{i+-1} - s_i for each i with y - s_i in (1/2)L.
        k is None for a step into no coset, which ``_validate`` refuses."""
        s, keys = self.s_scaled, [self._half_coset_key(o) for o in self.coset_offsets_scaled]
        at = [keys.index(k) if k in keys else None for k in map(self._half_coset_key, s)]
        table = [list(zip(s, at))]
        for c in (1, 2):
            row = []
            # y - s_i lies in (1/2)L exactly when s_i lies in the coset of y
            for i in [i for i in range(6) if at[i] == c]:
                row.append((tuple(-x for x in s[i]), 0))
                row += [(tuple(map(sub, s[j], s[i])), at[j]) for j in ((i - 1) % 6, (i + 1) % 6)]
            table.append(row)
        return tuple(tuple(dict.fromkeys(row)) for row in table)

    @cached_property
    def cell(self) -> PolytopeData:
        """The hexagonal cell, with the vertices v[i] at ``scale()``."""
        scale = self.scale()
        vertices = tuple(to_scaled(w, scale) for w in self.v)
        return PolytopeData("hexagon", self.lattice, self.gauge, scale, vertices)

    def _validate(self) -> None:
        L = self.lattice
        for i in range(6):
            if self.face[i] != self.v[i] + self.v[(i + 1) % 6]:
                raise CertificateError(f"face[{i}] != v[{i}] + v[{i+1}]")
            if self.s[i] != (self.v[(i - 1) % 6] + self.v[(i + 1) % 6]) / 2:
                raise CertificateError(f"s[{i}] mislabeled")
            if not L.contains(self.v[(i + 2) % 6] - self.v[i]):
                raise CertificateError(f"v[{i+2}] - v[{i}] not in L")
            if self.gauge.value_scaled(*scaled_ints(self.s[i])) >= 1:
                raise CertificateError(f"s[{i}] not interior")
        self.cell.check_vertices_on_boundary()
        if len(set(map(self._half_coset_key, self.coset_offsets_scaled))) < 3:
            raise CertificateError("class-B cosets not disjoint from (1/2)L")
        for i, (_, k) in enumerate(self.steps[0]):
            if k not in (1, 2):
                raise CertificateError(f"s[{i}] lies in neither class-B coset")
        for c, row in enumerate(self.steps):
            for d, k in row:
                if (tuple(-x for x in d), c) not in self.steps[k]:
                    raise CertificateError(f"pattern step {d} from coset {c} to coset {k} has no reverse step")


def _solve2(a: Vec, ca: Fraction, b: Vec, cb: Fraction) -> Vec:
    det = a[0] * b[1] - a[1] * b[0]
    if det == 0:
        raise DegenerateCell("parallel bisectors")
    x = (ca * b[1] - cb * a[1]) / det
    y = (a[0] * cb - b[0] * ca) / det
    return Vec([x, y])


def hexagon_pattern(basis: ReducedPlanarBasis) -> HexagonPattern:
    """Label vertices and interior points of the hexagonal cell.

    The faces in cyclic angular order are (b0, b1, b2, -b0, -b1, -b2) when
    det(b0, b1) > 0 and (b0, -b2, -b1, ...) otherwise; the vertex v[i] is the
    intersection of the bisectors of face[i-1] and face[i], which makes
    face[i] = v[i] + v[i+1] hold exactly.
    """
    b0, b1, b2 = basis.b0, basis.b1, basis.b2
    det = b0[0] * b1[1] - b0[1] * b1[0]
    half_turn = (b0, b1, b2) if det > 0 else (b0, -b2, -b1)
    face = half_turn + tuple(-f for f in half_turn)
    v = tuple(
        _solve2(face[(i - 1) % 6], face[(i - 1) % 6].norm2() / 2, face[i], face[i].norm2() / 2)
        for i in range(6)
    )
    s = tuple((v[(i - 1) % 6] + v[(i + 1) % 6]) / 2 for i in range(6))
    pattern = HexagonPattern(basis=basis, face=face, v=v, s=s, gauge=gauge_planar(basis))
    pattern._validate()
    return pattern
