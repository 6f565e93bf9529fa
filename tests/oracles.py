"""Reference helpers shared by the tests: brute-force lattice boxes, the
exact Fraction coset enumerator, and Vec views of the integer kernels."""

import math
from fractions import Fraction as F
from itertools import product

from voronorm.geometry import Vec, from_scaled, scaled_ints, to_scaled, zero_vec


def coset_in_box(b0: Vec, b1: Vec, offset: Vec, radius: F) -> list:
    """The points offset + c0*b0 + c1*b1 with both coordinates in
    [-radius, radius], on exact Fractions, over the Cramer coefficient box."""
    det = b0[0] * b1[1] - b0[1] * b1[0]
    r0 = (radius + offset.max_abs()) * (abs(b1[0]) + abs(b1[1])) / abs(det)
    r1 = (radius + offset.max_abs()) * (abs(b0[0]) + abs(b0[1])) / abs(det)
    out = []
    for c0 in range(-math.floor(r0), math.floor(r0) + 1):
        for c1 in range(-math.floor(r1), math.floor(r1) + 1):
            p = offset + b0 * c0 + b1 * c1
            if p.max_abs() <= radius:
                out.append(p)
    return out


def box_points(lattice, radius) -> list:
    """Every lattice point with all coordinates in [-radius, radius], sorted:
    the integer box filtered by ``contains``, or the planar coset scan."""
    if lattice.family == "planar":
        return sorted(coset_in_box(lattice.b0, lattice.b1, zero_vec(2), F(radius)))
    b = math.floor(radius)
    return [v for v in map(Vec, product(range(-b, b + 1), repeat=lattice.ambient_dim)) if lattice.contains(v)]


def closest_points(lattice, x: Vec) -> list:
    """All lattice points closest to x, sorted, decoded by ``closest_scaled``."""
    return sorted(from_scaled(p, lattice.scale) for p in lattice.closest_scaled(*scaled_ints(x)))


def vertex(g, v: Vec) -> int:
    """Index of the point v among the vertices of g."""
    return g.index[to_scaled(v, g.scale)]
