"""Exact rational lattice geometry.

Vectors with Fraction components, the lattice families Z^n / A_n / D_n /
planar, Lagrange-Gauss reduction of planar bases, closest-point decoding and
basis coordinates on scaled integers, and the integer box enumerators and
counts of the graph vertex sets.  Everything is exact; no floating point is
used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from typing import Iterable, Sequence, Union

RatLike = Union[int, Fraction, str]


class DegenerateCell(ValueError):
    """The planar basis does not define a strictly hexagonal cell."""


class DimensionMismatch(ValueError):
    """Vector dimension does not match the lattice's ambient dimension."""


class Vec(tuple):
    """Immutable vector with Fraction components.

    Inherits tuple hashing, equality and lexicographic order; arithmetic
    operators are redefined componentwise (``+`` is vector addition, not
    concatenation).
    """

    __slots__ = ()

    def __new__(cls, comps: Iterable[RatLike]) -> "Vec":
        # exact Fractions pass through: Fraction(c) on one takes the slow
        # numbers.Rational path
        return tuple.__new__(cls, tuple(c if type(c) is Fraction else Fraction(c) for c in comps))

    @property
    def dim(self) -> int:
        return len(self)

    def _check(self, other: Sequence) -> None:
        if len(self) != len(other):
            raise DimensionMismatch(f"dim {len(self)} vs {len(other)}")

    def __add__(self, other):
        self._check(other)
        return Vec(a + b for a, b in zip(self, other))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        self._check(other)
        return Vec(a - b for a, b in zip(self, other))

    def __neg__(self):
        return Vec(-a for a in self)

    def __mul__(self, k):
        return Vec(a * Fraction(k) for a in self)

    __rmul__ = __mul__

    def __truediv__(self, k):
        return Vec(a / Fraction(k) for a in self)

    def dot(self, other) -> Fraction:
        self._check(other)
        return sum((a * b for a, b in zip(self, other)), Fraction(0))

    def norm2(self) -> Fraction:
        return self.dot(self)

    def sum(self) -> Fraction:
        return sum(self, Fraction(0))

    def __repr__(self):
        return "Vec(" + ", ".join(str(a) for a in self) + ")"


def lcm_denominator(vectors: Iterable[Vec]) -> int:
    """Least common multiple of all component denominators."""
    d = 1
    for v in vectors:
        for a in v:
            d = math.lcm(d, a.denominator)
    return d


def to_scaled(v: Vec, scale: int) -> tuple:
    """Integer coordinates of ``scale * v``; raises if not integral."""
    out = []
    for a in v:
        s = a * scale
        if s.denominator != 1:
            raise ValueError(f"{v} not integral at scale {scale}")
        out.append(s.numerator)
    return tuple(out)


def from_scaled(t: Sequence[int], scale: int) -> Vec:
    return Vec(Fraction(c, scale) for c in t)


def scaled_ints(v: Sequence[Fraction]) -> tuple:
    """(w, d): the least d > 0 and the integer list w with v = w / d."""
    d = math.lcm(*(a.denominator for a in v))
    return [a.numerator * (d // a.denominator) for a in v], d


def _round_half_up(x: Fraction) -> int:
    # nearest integer, half-ties toward +inf
    return math.floor(x + Fraction(1, 2))


# ---------------------------------------------------------------------------
# Lattice families


class _IntegerLattice:
    """Base of Z^n, A_n and D_n: integer points (``scale`` 1) spanned by the
    cached ``int_basis``.  A subclass gives the basis, its membership rule
    ``_admits`` on the coordinate sum and the decoder ``nearest_scaled``."""

    min_n = 1
    scale = 1

    def __init__(self, n: int):
        if n < self.min_n:
            raise ValueError(f"n >= {self.min_n} required")
        self.n = n

    @property
    def ambient_dim(self) -> int:
        return len(self.int_basis[0])

    def _check_dim(self, v: Sequence) -> None:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(f"expected dim {self.ambient_dim}, got {len(v)}")

    def contains(self, v: Vec) -> bool:
        self._check_dim(v)
        return all(a.denominator == 1 for a in v) and self._admits(sum(v))


def _differences(m: int, count: int) -> list:
    """The integer tuples e_i - e_{i+1} of length m, for i < count."""
    return [tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(m)) for i in range(count)]


class ZnLattice(_IntegerLattice):
    """Z^n: all integer vectors."""

    family = "zn"

    def _admits(self, s) -> bool:
        return True

    @cached_property
    def int_basis(self) -> tuple:
        return tuple(tuple(int(j == i) for j in range(self.n)) for i in range(self.n))

    def coordinates(self, p: Sequence[int]) -> list:
        """The ``int_basis`` coordinates of the lattice point p."""
        return list(p)

    def nearest_scaled(self, w: Sequence[int], d: int) -> tuple:
        """The lexicographically least lattice point closest to w/d (d > 0),
        as an integer tuple at ``scale``: each coordinate rounded, exact
        halves down."""
        self._check_dim(w)
        return tuple((2 * c + d - 1) // (2 * d) for c in w)


class AnLattice(_IntegerLattice):
    """A_n: integer vectors of R^{n+1} with zero coordinate sum."""

    family = "an"
    min_n = 2

    def _admits(self, s) -> bool:
        return s == 0

    @cached_property
    def int_basis(self) -> tuple:
        return tuple(_differences(self.n + 1, self.n))

    def coordinates(self, p: Sequence[int]) -> list:
        """The ``int_basis`` coordinates of the lattice point p: the
        coefficient of e_i - e_{i+1} is p_0 + ... + p_i."""
        return list(accumulate(p[:-1]))

    def nearest_scaled(self, w: Sequence[int], d: int) -> tuple:
        """The lexicographically least lattice point closest to w/d (d > 0),
        as an integer tuple at ``scale``.

        Every closest point lies in lo + {0, 1}^m with lo = floor(w/d) and
        takes k = -sum(lo) unit steps up; a step at coordinate i adds
        d*(d - 2(w_i mod d)) to the squared distance (Conway and Sloane,
        1982).  With lambda the k-th least step cost, the closest points
        raise every coordinate that costs less than lambda and share the
        remaining steps among those that cost exactly lambda; the least
        point gives them to the last such coordinates."""
        self._check_dim(w)
        if sum(w) != 0:
            raise DimensionMismatch("point off the zero-sum hyperplane")
        z = [c // d for c in w]
        k = -sum(z)
        if k:
            cost = [d - 2 * (c % d) for c in w]
            lam = sorted(cost)[k - 1]
            ties = k - sum(c < lam for c in cost)
            for i in reversed(range(len(z))):
                if cost[i] < lam:
                    z[i] += 1
                elif cost[i] == lam and ties:
                    z[i] += 1
                    ties -= 1
        return tuple(z)


class DnLattice(_IntegerLattice):
    """D_n: integer vectors with even coordinate sum."""

    family = "dn"
    min_n = 3

    def _admits(self, s) -> bool:
        return s % 2 == 0

    @cached_property
    def int_basis(self) -> tuple:
        return tuple([(1, 1) + (0,) * (self.n - 2)] + _differences(self.n, self.n - 1))

    def coordinates(self, p: Sequence[int]) -> list:
        """The ``int_basis`` coordinates of the lattice point p: e_0 + e_1
        takes half the coordinate sum, e_0 - e_1 the rest of p_0, and
        e_{i-1} - e_i, for i >= 2, minus p_i + ... + p_{n-1}."""
        half = sum(p) // 2
        tails = list(accumulate(reversed(p[2:])))
        return [half, p[0] - half] + [-s for s in reversed(tails)]

    def nearest_scaled(self, w: Sequence[int], d: int) -> tuple:
        """The lexicographically least lattice point closest to w/d (d > 0),
        as an integer tuple at ``scale``.

        Round each coordinate, exact halves down.  An odd sum is mended at
        no cost by raising the last exact half, if there is one; otherwise
        the closest points are the cheapest single +-1 changes, the change
        s at coordinate i adding d*(d + 2s(z_i*d - w_i)) to the squared
        distance (Conway and Sloane, 1982)."""
        self._check_dim(w)
        z = [(2 * c + d - 1) // (2 * d) for c in w]
        if sum(z) % 2:
            halves = [i for i, c in enumerate(w) if 2 * (c % d) == d]
            if halves:
                z[halves[-1]] += 1
            else:
                moves = [(d + 2 * s * (zi * d - c), i, s) for i, (zi, c) in enumerate(zip(z, w)) for s in (1, -1)]
                least = min(moves)[0]
                return min(tuple(z[:i]) + (z[i] + s,) + tuple(z[i + 1 :]) for cost, i, s in moves if cost == least)
        return tuple(z)


def _planar_rows(p: Sequence[int], q: Sequence[int], offset: Sequence[int], bound):
    """Per c0, the point x = offset + c0*p and the interval [lo, hi] of the c1
    that keep x + c1*q in [-B, B]^2, with B = floor(bound).

    By Cramer's rule a point of the box has |c0| <= (B + m)(|q0| + |q1|)/|det|
    and |c1| <= (B + m)(|p0| + |p1|)/|det|, with m the largest |offset|
    coordinate; each coordinate k then bounds c1 by -B <= x_k + c1*q_k <= B."""
    b = math.floor(bound)
    det = abs(p[0] * q[1] - p[1] * q[0])
    reach = b + max(map(abs, offset))
    r0 = reach * (abs(q[0]) + abs(q[1])) // det
    r1 = reach * (abs(p[0]) + abs(p[1])) // det
    for c0 in range(-r0, r0 + 1):
        x = (offset[0] + c0 * p[0], offset[1] + c0 * p[1])
        lo, hi = -r1, r1
        for xk, qk in zip(x, q):
            if qk < 0:
                xk, qk = -xk, -qk
            if qk:
                lo, hi = max(lo, -((b + xk) // qk)), min(hi, (b - xk) // qk)
            elif abs(xk) > b:
                hi = lo - 1
        yield x, lo, hi


def planar_coset_in_box(p: Sequence[int], q: Sequence[int], offset: Sequence[int], bound) -> list:
    """Integer points offset + c0*p + c1*q with both coordinates in
    [-bound, bound], for linearly independent integer vectors p, q; in loop
    order (c0, then c1, ascending), not sorted."""
    rows = _planar_rows(p, q, offset, bound)
    return [(x0 + c1 * q[0], x1 + c1 * q[1]) for (x0, x1), lo, hi in rows for c1 in range(lo, hi + 1)]


def count_planar_coset_in_box(p: Sequence[int], q: Sequence[int], offset: Sequence[int], bound) -> int:
    """len(planar_coset_in_box(p, q, offset, bound)), counted without
    enumerating."""
    return sum(max(0, hi - lo + 1) for _, lo, hi in _planar_rows(p, q, offset, bound))


class PlanarLattice:
    """Rank-2 lattice in R^2 spanned by b0, b1.

    ``scale`` is the common denominator of the basis; ``int_basis`` holds
    the basis vectors at that scale."""

    family = "planar"

    def __init__(self, b0: Vec, b1: Vec):
        if b0.dim != 2 or b1.dim != 2:
            raise DimensionMismatch("planar basis vectors must have dim 2")
        if b0[0] * b1[1] - b0[1] * b1[0] == 0:
            raise DegenerateCell("planar basis is linearly dependent")
        self.b0, self.b1 = b0, b1
        self.scale = lcm_denominator([b0, b1])
        self.int_basis = (to_scaled(b0, self.scale), to_scaled(b1, self.scale))

    @property
    def ambient_dim(self) -> int:
        return 2

    def _cramer(self, u: Sequence[int]) -> tuple:
        """(n0, n1, det) with det > 0 and u = (n0*p + n1*q)/det, for the
        integer basis (p, q) and an integer point u at ``scale``."""
        (p0, p1), (q0, q1) = self.int_basis
        n0, n1, det = u[0] * q1 - u[1] * q0, p0 * u[1] - p1 * u[0], p0 * q1 - p1 * q0
        return (n0, n1, det) if det > 0 else (-n0, -n1, -det)

    def coordinates(self, p: Sequence[int]) -> list:
        """The ``int_basis`` coordinates of the lattice point p (integers at
        ``scale``)."""
        n0, n1, det = self._cramer(p)
        return [n0 // det, n1 // det]

    def contains(self, v: Vec) -> bool:
        if v.dim != 2:
            raise DimensionMismatch("expected dim 2")
        w, d = scaled_ints(v)
        n0, n1, det = self._cramer([self.scale * c for c in w])
        return n0 % (d * det) == 0 and n1 % (d * det) == 0

    def nearest_scaled(self, w: Sequence[int], d: int) -> tuple:
        """The lexicographically least lattice point closest to w/d (d > 0),
        as an integer tuple at ``scale``.

        With u = scale*w, the point a0*b0 + a1*b1 costs |u - d*(a0*p + a1*q)|^2
        for the integer basis (p, q).  For fixed a0 the least cost over real
        a1, times |q|^2, is |r|^2 |q|^2 - <r, q>^2 with r = u - d*a0*p; it is
        convex in a0, so a0 runs outward from the Cramer solution until that
        bound exceeds the best cost, and a1 likewise for each a0, keeping the
        least point of the least cost."""
        if len(w) != 2:
            raise DimensionMismatch("expected dim 2")
        (p0, p1), (q0, q1) = self.int_basis
        u0, u1 = self.scale * w[0], self.scale * w[1]
        n0, n1, det = self._cramer((u0, u1))
        den = d * det
        a0c, a1c = (2 * n0 + den) // (2 * den), (2 * n1 + den) // (2 * den)
        hit = (a0c * p0 + a1c * q0, a0c * p1 + a1c * q1)
        e0, e1 = u0 - d * hit[0], u1 - d * hit[1]
        best = e0 * e0 + e1 * e1
        qq = q0 * q0 + q1 * q1
        for step0 in (1, -1):
            a0 = a0c if step0 == 1 else a0c - 1
            while True:
                r0, r1 = u0 - d * a0 * p0, u1 - d * a0 * p1
                rq, rr = r0 * q0 + r1 * q1, r0 * r0 + r1 * r1
                if rr * qq - rq * rq > best * qq:
                    break
                # cost(a1) = rr - 2*d*a1*rq + d^2*qq*a1^2, least at a1 = rq/(d*qq)
                a1m = (2 * rq + d * qq) // (2 * d * qq)
                for step1 in (1, -1):
                    a1 = a1m if step1 == 1 else a1m - 1
                    while True:
                        cost = rr - 2 * d * a1 * rq + d * d * qq * a1 * a1
                        if cost > best:
                            break
                        pt = (a0 * p0 + a1 * q0, a0 * p1 + a1 * q1)
                        if cost < best or pt < hit:
                            best, hit = cost, pt
                        a1 += step1
                a0 += step0
        return hit


Lattice = Union[ZnLattice, AnLattice, DnLattice, PlanarLattice]


# ---------------------------------------------------------------------------
# Planar basis reduction


class ReducedPlanarBasis:
    """Gauss-reduced, sign-normalized basis of a strictly hexagonal lattice.

    Invariants: |b0|^2 <= |b1|^2 and 0 < 2<b0,b1> < |b0|^2; b2 = b1 - b0.
    The vectors +-b0, +-b1, +-b2 support the six faces of the Voronoi cell.
    """

    def __init__(self, b0: Vec, b1: Vec, b2: Vec):
        self.b0, self.b1, self.b2 = b0, b1, b2

    def lattice(self) -> PlanarLattice:
        return PlanarLattice(self.b0, self.b1)

    def face_vectors(self) -> list:
        """The six face vectors in angular order: b0, b1, b2, -b0, -b1, -b2."""
        return [self.b0, self.b1, self.b2, -self.b0, -self.b1, -self.b2]


def reduce_planar_basis(b0: Vec, b1: Vec) -> ReducedPlanarBasis:
    """Lagrange-Gauss reduction with the strict hexagonality check.

    Raises DegenerateCell when the reduced basis is orthogonal (rectangular
    cell, handled by the cube pipeline) or when 2<b0,b1> = |b0|^2 (ambiguous
    boundary case, rejected instead of perturbed).
    """
    u, v = Vec(b0), Vec(b1)
    if u.dim != 2 or v.dim != 2:
        raise DimensionMismatch("planar basis vectors must have dim 2")
    if u[0] * v[1] - u[1] * v[0] == 0:
        raise DegenerateCell("input vectors are linearly dependent")
    if u.norm2() > v.norm2():
        u, v = v, u
    while True:
        mu = u.dot(v) / u.norm2()
        m = _round_half_up(mu) if mu >= 0 else -_round_half_up(-mu)
        v = v - u * m
        if u.norm2() <= v.norm2():
            break
        u, v = v, u
    if u.dot(v) < 0:
        v = -v
    two_ip = 2 * u.dot(v)
    if two_ip == 0:
        raise DegenerateCell("rectangular cell: use the cube pipeline instead")
    if two_ip == u.norm2():
        raise DegenerateCell("boundary case 2<b0,b1> = |b0|^2 rejected")
    return ReducedPlanarBasis(u, v, v - u)


# ---------------------------------------------------------------------------
# Scaled integer enumeration of the graph vertex lattices (half dual lattices)


def an_half_dual_scale(n: int) -> int:
    """Denominator clearing factor for (1/2) A_n^#."""
    return 2 * (n + 1)


def _an_residue_values(n: int, radius: RatLike) -> list:
    """Per residue r modulo n+1, the scaled coordinates in the box that are
    congruent to r (the possible coordinates of one point of (1/2)A_n^#)."""
    m = n + 1
    bound = math.floor(Fraction(radius) * an_half_dual_scale(n))
    return [list(range(-bound + ((r + bound) % m), bound + 1, m)) for r in range(m)]


def enumerate_an_half_dual_scaled(n: int, radius: RatLike) -> list:
    """Scaled-integer points of (1/2)A_n^# with all coordinates in [-radius, radius].

    At scale 2(n+1) these are exactly the integer tuples with zero sum whose
    components are all congruent modulo n+1.
    """
    out = []
    for vals in _an_residue_values(n, radius):
        if not vals:
            continue
        for head in product(vals, repeat=n):
            last = -sum(head)
            if vals[0] <= last <= vals[-1]:
                out.append(head + (last,))
    out.sort()
    return out


def count_an_half_dual_scaled(n: int, radius: RatLike) -> int:
    """len(enumerate_an_half_dual_scaled(n, radius)), counted without
    enumerating: the zero-sum (n+1)-tuples over each residue's values."""
    total = 0
    for vals in _an_residue_values(n, radius):
        ways = {0: 1}
        for _ in range(n + 1):
            nxt: dict = {}
            for s, c in ways.items():
                for v in vals:
                    nxt[s + v] = nxt.get(s + v, 0) + c
            ways = nxt
        total += ways.get(0, 0)
    return total


def dn_half_dual_scale(n: int) -> int:
    """Denominator clearing factor for (1/2) D_n^#."""
    return 4


def _dn_parity_values(radius: RatLike) -> tuple:
    """The even and the odd scaled coordinates in the box (scale 4)."""
    bound = math.floor(Fraction(radius) * 4)
    return range(-bound + (bound % 2), bound + 1, 2), range(-bound + 1 - (bound % 2), bound + 1, 2)


def enumerate_dn_half_dual_scaled(n: int, radius: RatLike) -> list:
    """Scaled-integer points of (1/2)D_n^# in the box: all-even or all-odd tuples."""
    evens, odds = _dn_parity_values(radius)
    out = list(product(evens, repeat=n))
    out.extend(product(odds, repeat=n))
    out.sort()
    return out


def count_dn_half_dual_scaled(n: int, radius: RatLike) -> int:
    """len(enumerate_dn_half_dual_scaled(n, radius)), without enumerating."""
    evens, odds = _dn_parity_values(radius)
    return len(evens) ** n + len(odds) ** n
