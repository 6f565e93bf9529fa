"""Clique/component enumeration, local densities and density certificates.

The A_n and D_n certificates pair an exact brute-force count of every
closed neighborhood with its closed-form value at every dimension, and a
disagreement raises CrossCheckMismatch.  One assembler, ``_certificate``,
finishes all three certificates: the density of distance-1-avoiding sets is
at most max |C|/|N[C]| over the scored cliques C, weighted 2/3 for the
hexagon's class-B counts, and BoundViolated fires above the expected bound.
The brute force counts N[C] = U_{c in C} (c + (G u {0})) in the Cayley
graph on (1/2)Lambda^# generated by G = (1/2)V_P: each point of the union
carries the bitmask of the clique points it equals or is adjacent to, and a
clique's count is the number of points whose mask meets it, read for every
clique at once off one subset-sum pass over the mask histogram.  The
hexagon certificate grows its connected avoiding subsets on the infinite
pattern graph, stepping by ``HexagonPattern.steps`` from one point of each
coset, and builds no graph; the box-graph certificate is its oracle in the
tests.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import sub
from typing import Iterable, Optional

from .constructions import CertificateError, HexagonPattern, an_vertices_scaled, dn_vertices_scaled
from .geometry import from_scaled
from .graphs import check_cayley_generators, linear_key


class CrossCheckMismatch(CertificateError):
    """Brute-force count disagrees with the closed form (certifier bug)."""


class BoundViolated(CertificateError):
    """A computed density exceeds the certified bound."""


class UnknownComponentType(CertificateError):
    """Exhaustive search found a component outside the known taxonomy."""


# ---------------------------------------------------------------------------
# Certificates


class CertEntry:
    def __init__(self, label: str, size: int, neighborhood: int, density: Fraction, expected_density=None):
        self.label, self.size, self.neighborhood = label, size, neighborhood
        self.density, self.expected_density = density, expected_density

    @property
    def matches(self) -> Optional[bool]:
        if self.expected_density is None:
            return None
        return self.density == self.expected_density


class DensityCertificate:
    def __init__(
        self, family, dim, neighborhood_kind, entries, max_density, assembled_bound, expected_bound, maximizers,
        notes=None,
    ):
        self.family, self.dim = family, dim
        self.neighborhood_kind = neighborhood_kind  # "full" or "class-B"
        self.entries, self.max_density, self.assembled_bound = entries, max_density, assembled_bound
        self.expected_bound, self.maximizers = expected_bound, maximizers
        self.notes = [] if notes is None else notes

    @property
    def matches_expected(self) -> bool:
        return self.assembled_bound == self.expected_bound

    def mismatched_entries(self) -> list:
        return [e for e in self.entries if e.matches is False]


def _certificate(family: str, dim: int, kind: str, entries: list, expected: Fraction, weight=1, notes=()):
    """Finish a certificate: the assembled bound is weight * max |C|/|N[C]|
    over the entries (weight 2/3 for the hexagon's class-B count, else 1),
    and BoundViolated fires when it exceeds the expected bound."""
    max_density = max(e.density for e in entries)
    assembled = weight * max_density
    if assembled > expected:
        raise BoundViolated(f"{family} dim {dim}: assembled bound {assembled} > {expected}")
    maximizers = [e.label for e in entries if e.density == max_density]
    return DensityCertificate(family, dim, kind, entries, max_density, assembled, expected, maximizers, list(notes))


# ---------------------------------------------------------------------------
# A_n chain cliques


class ChainClique:
    """Canonical clique of the A_n auxiliary graph: the origin together with
    the halved projections of the prefix 0/1 vectors of the given weights,
    strictly increasing values in 1..n."""

    def __init__(self, n: int, weights: tuple):
        if any(not (1 <= a <= n) for a in weights) or list(weights) != sorted(set(weights)):
            raise ValueError(f"bad weights {weights} for n={n}")
        self.n, self.weights = n, weights

    @property
    def size(self) -> int:
        return len(self.weights) + 1

    def label(self) -> str:
        return "{0}" if not self.weights else "{0," + ",".join(map(str, self.weights)) + "}"

    def points_scaled(self) -> list:
        """Scaled (by 2(n+1)) coordinates: origin plus (n+1)*u_w - w*ones."""
        m = self.n + 1
        pts = [tuple([0] * m)]
        for w in self.weights:
            pts.append(tuple((m if i < w else 0) - w for i in range(m)))
        return pts


# Largest n whose 2^n chain cliques the A_n certificate enumerates.
MAX_CHAIN_DIM = 12


def _check_chain_dim(n: int) -> None:
    if not (2 <= n <= MAX_CHAIN_DIM):
        raise ValueError(f"n outside the practical range 2..{MAX_CHAIN_DIM}")


def enumerate_chain_cliques(n: int) -> list:
    """All canonical chain cliques (one per weight subset), lexicographic."""
    _check_chain_dim(n)
    out = []
    for mask in range(2**n):
        weights = tuple(w for w in range(1, n + 1) if mask & (1 << (w - 1)))
        out.append(ChainClique(n, weights))
    out.sort(key=lambda c: c.weights)
    return out


def an_neighborhood_size_formula(n: int, weights: Iterable[int]) -> int:
    """Closed-form |N[C]| for a chain clique with the given weights."""
    w = list(weights)
    s = len(w)
    prev = [0] + w[:-1]
    tail = sum(2 ** (n + 1 - (wi - pi)) for wi, pi in zip(w, prev))
    tail += 2 ** (w[-1] if w else 0)
    return (s + 1) * 2 ** (n + 1) - tail


def _translate_mask_counts(targets, generators) -> Counter:
    """Histogram of target bitmasks over N[targets].

    A point y gets bit b when y = t_b + g for some g in G u {0}, i.e. when y
    equals target b or is adjacent to it.  Every point outside the union of
    those translates has an empty mask, so only the translates are visited.
    Returns mask -> number of points carrying it.  Points are counted on
    their linear keys, so a translate's key is the sum of two keys.
    """
    key = linear_key(targets, generators)
    steps = [0, *map(key, generators)]
    masks: dict = {}
    for b, t in enumerate(targets):
        bit, k = 1 << b, key(t)
        for g in steps:
            masks[k + g] = masks.get(k + g, 0) | bit
    return Counter(masks.values())


def _meeting_counts(counts: Counter, bits: int) -> list:
    """For every mask S over ``bits`` bits, the number of points whose mask
    meets S.

    That is the total less the points whose mask lies inside the complement
    of S, and one subset-sum (zeta) pass over the histogram gives the
    points inside every mask at once, in bits * 2^bits steps.
    """
    size = 1 << bits
    inside = [0] * size
    for m, c in counts.items():
        inside[m] = c
    step = 1
    while step < size:
        # add each mask without the bit `step` into the mask with it
        for hi in range(step, size, 2 * step):
            for s in range(hi, hi + step):
                inside[s] += inside[s - step]
        step <<= 1
    # the complement of s is size - 1 - s: the list read backwards
    total = inside[-1]
    return [total - c for c in reversed(inside)]


def an_brute_neighborhood_counts(n: int) -> dict:
    """Brute-force |N[C]| for every chain clique, keyed by its weights and
    counted on the union of the translates c + (G u {0}) in (1/2)A_n^#;
    independent of the closed form."""
    _check_chain_dim(n)
    targets = [tuple([0] * (n + 1))]
    targets += [ChainClique(n, (w,)).points_scaled()[1] for w in range(1, n + 1)]
    # G = (1/2)V_P: the cell vertices at scale n+1, read at scale 2(n+1)
    meets = _meeting_counts(_translate_mask_counts(targets, an_vertices_scaled(n)), n + 1)
    # bit 0 is the origin, which every chain clique holds, and bit w the
    # weight-w target
    weights = range(1, n + 1)
    return {tuple(w for w in weights if m >> w & 1): meets[m] for m in range(1, 2 << n, 2)}


def an_expected_bound(n: int) -> Fraction:
    return Fraction(1, 2**n)


def verify_an_bound(n: int) -> DensityCertificate:
    """Certificate for the A_n local density bound 1/2^n.

    Every chain clique's |N[C]| comes from the closed form, and the
    brute-force translate count must reproduce each count exactly,
    otherwise CrossCheckMismatch is raised.  BoundViolated fires if any
    density exceeds the expected bound.
    """
    brute = an_brute_neighborhood_counts(n)
    entries = []
    for clique in enumerate_chain_cliques(n):
        nb = an_neighborhood_size_formula(n, clique.weights)
        if brute[clique.weights] != nb:
            raise CrossCheckMismatch(
                f"A_{n} clique {clique.weights}: formula {nb}, brute force "
                f"{brute[clique.weights]}"
            )
        entries.append(CertEntry(clique.label(), clique.size, nb, Fraction(clique.size, nb)))
    # the wording is part of the report bytes, so it stays although the
    # brute force now counts translates instead of scanning a box
    notes = ["cross-checked against box-scan brute force"]
    return _certificate("an", n, "full", entries, an_expected_bound(n), notes=notes)


# ---------------------------------------------------------------------------
# D_n cliques


def dn_cmax_points_scaled(n: int) -> list:
    """Scaled (by 4) points of the maximal clique: 0, v1/2, v2/2, v3/2."""
    origin = tuple([0] * n)
    v1 = tuple([0] * (n - 1) + [2])
    v2 = tuple([1] * n)
    v3 = tuple([-1] + [1] * (n - 1))
    return [origin, v1, v2, v3]


def dn_reference_neighborhood(n: int, has_v1: bool, type2_count: int) -> tuple:
    """Closed-form reference |N[C]| and |C| for a subset of C_max, keyed by
    whether v1/2 is present and how many of v2/2, v3/2 are.

    Singleton: the graph is the Cayley graph on (1/2)D_n^# generated by
    (1/2)V_P, and V_P has 2n type-1 plus 2^n type-2 vertices, all distinct
    and nonzero.  A Cayley graph is vertex-transitive, so
    |N[{0}]| = 1 + |V_P| = 1 + 2^n + 2n.  Since V_P = -V_P and 0 is not in
    V_P, |V_P| is even and |N[{0}]| is odd for every n.
    """
    size = 1 + int(has_v1) + type2_count
    if size == 1:
        count = 1 + 2**n + 2 * n
    elif size == 2 and has_v1:
        count = 2**n + 2 ** (n - 1) + 4 * n
    elif size == 2:
        count = 2 * 2**n + 2 * n
    elif size == 3:
        count = 2 * 2**n + 2 ** (n - 1) + 3 * n - 1
    else:
        count = 3 * 2**n + 4 * n - 4
    return size, count


def dn_expected_bound(n: int) -> Fraction:
    return Fraction(4, 3 * 2**n + 4 * n - 4)


def dn_brute_neighborhood_counts(n: int) -> dict:
    """Brute-force |N[C]| for every subset of C_max containing 0, counted on
    the union of the translates c + (G u {0}) in (1/2)D_n^#."""
    # G = (1/2)V_P: the cell vertices at scale 2, read at scale 4
    meets = _meeting_counts(_translate_mask_counts(dn_cmax_points_scaled(n), dn_vertices_scaled(n)), 4)
    return {extra: meets[1 | sum(1 << (i + 1) for i in extra)] for extra in _dn_subsets()}


def _dn_subsets() -> list:
    # subsets of {v1, v2, v3} by index, fixed order
    idx = (0, 1, 2)
    out = [()]
    for k in (1, 2, 3):
        out.extend(combinations(idx, k))
    return out


def _dn_label(extra: tuple) -> str:
    names = ("v1/2", "v2/2", "v3/2")
    return "{0}" if not extra else "{0," + ",".join(names[i] for i in extra) + "}"


def verify_dn_bound(n: int) -> DensityCertificate:
    """Certificate for the D_n bound 1/((3/4)2^n + n - 1).

    All eight subsets of C_max containing the origin are brute-forced, and
    each count must equal its closed-form reference value, otherwise
    CrossCheckMismatch is raised; the reference density stays on each entry
    as its expected value.
    """
    if n < 4:
        raise ValueError("n >= 4 required")
    # the count walks the Cayley graph on (1/2)D_n^# with 2^n + 2n generators
    check_cayley_generators("dn", n)
    brute = dn_brute_neighborhood_counts(n)
    entries = []
    for extra in _dn_subsets():
        type2 = len([i for i in extra if i in (1, 2)])
        size, ref = dn_reference_neighborhood(n, 0 in extra, type2)
        nb = brute[extra]
        if nb != ref:
            raise CrossCheckMismatch(f"D_{n} subset {_dn_label(extra)}: closed form {ref}, brute force {nb}")
        entries.append(CertEntry(_dn_label(extra), size, nb, Fraction(size, nb), Fraction(size, ref)))
    return _certificate("dn", n, "full", entries, dn_expected_bound(n))


# ---------------------------------------------------------------------------
# Hexagon component taxonomy


HEX_EXPECTED_DELTAS = {
    "A": Fraction(1, 6),
    "B": Fraction(1, 4),
    "AB": Fraction(2, 7),
    "BB": Fraction(1, 3),
    "ABB": Fraction(3, 8),
    "BAB": Fraction(3, 8),
}


def hexagon_expected_bound() -> Fraction:
    return Fraction(1, 4)


def _classify_component(pattern: HexagonPattern, comp) -> str:
    """Map a connected avoiding component, given as (point, coset)
    members, onto the six-type taxonomy."""
    tags = sorted("ABB"[c] for _, c in comp)
    pts = [p for p, _ in comp]
    s_scaled = pattern.s_scaled
    s_set = set(s_scaled)
    if len(comp) == 1:
        return tags[0]
    if len(comp) == 2:
        d = tuple(map(sub, pts[0], pts[1]))
        dneg = tuple(-c for c in d)
        if tags == ["A", "B"]:
            if d in s_set or dneg in s_set:
                return "AB"
        elif tags == ["B", "B"]:
            for i in range(6):
                dd = tuple(map(sub, s_scaled[(i + 1) % 6], s_scaled[i]))
                if d == dd or dneg == dd:
                    return "BB"
        raise UnknownComponentType(f"pair {[from_scaled(p, pattern.scale()) for p in pts]}")
    if len(comp) == 3 and tags == ["A", "B", "B"]:
        a = [p for p, c in comp if c == 0][0]
        d1, d2 = [tuple(map(sub, p, a)) for p, c in comp if c]
        if d1 in s_set and d2 in s_set:
            if d1 == tuple(-c for c in d2):
                return "BAB"
            for i in range(6):
                if {d1, d2} == {s_scaled[i], s_scaled[(i + 1) % 6]}:
                    return "ABB"
    raise UnknownComponentType(f"component {[from_scaled(p, pattern.scale()) for p in pts]}")


def _avoiding_subsets(pattern: HexagonPattern, base: tuple, max_size: int) -> list:
    """The connected subsets of the infinite pattern graph through ``base``
    with at most ``max_size`` members, no two at gauge distance 1, as sorted
    tuples of (point, coset) members; (p, c) is adjacent to (p + d, k) for
    every (d, k) in pattern.steps[c]."""
    is_unit = pattern.gauge.unit_checker(pattern.scale())
    steps = pattern.steps
    seen = set()

    def grow(current: tuple):
        if current in seen:
            return
        seen.add(current)
        if len(current) == max_size:
            return
        for p, c in current:
            for d, k in steps[c]:
                q = (p[0] + d[0], p[1] + d[1])
                if all(q != r and not is_unit((q[0] - r[0], q[1] - r[1])) for r, _ in current):
                    grow(tuple(sorted(current + ((q, k),))))

    grow((base,))
    return sorted(seen)


def verify_hexagon_bound(pattern: HexagonPattern) -> DensityCertificate:
    """Certificate for the hexagon bound (2/3) * (3/8) = 1/4.

    On the infinite, (1/2)L-periodic pattern graph read off
    ``pattern.steps``, with no graph built: exhaustively enumerates the
    connected avoiding subsets C of size <= 4 through the offset of each
    coset (all points of a coset have the same subsets up to translation),
    classifies them against the six-type taxonomy (raising
    UnknownComponentType on escape, including any avoiding size-4 subset),
    and records each type's class-B local density |C| / |N[C] & B|, which
    must equal its HEX_EXPECTED_DELTAS value, otherwise CrossCheckMismatch
    is raised.
    """
    found: dict = {}
    for base in zip(pattern.coset_offsets_scaled, range(3)):
        for subset in _avoiding_subsets(pattern, base, 4):
            if len(subset) >= 4:
                pts = [from_scaled(p, pattern.scale()) for p, _ in subset]
                raise UnknownComponentType(f"avoiding connected subset of size {len(subset)}: {pts}")
            kind = _classify_component(pattern, subset)
            hood = {p for p, c in subset if c}
            hood.update((p[0] + d[0], p[1] + d[1]) for p, c in subset for d, k in pattern.steps[c] if k)
            nb = len(hood)
            delta = Fraction(len(subset), nb)
            prev = found.setdefault(kind, (len(subset), nb, delta))
            if prev != (len(subset), nb, delta):
                raise CrossCheckMismatch(
                    f"type {kind}: densities {prev[2]} vs {delta} within one pattern"
                )
    missing = sorted(set(HEX_EXPECTED_DELTAS) - set(found))
    if missing:
        raise UnknownComponentType(f"component types never realized: {missing}")
    entries = []
    for kind, (size, nb, delta) in sorted(found.items()):
        expected = HEX_EXPECTED_DELTAS[kind]
        if delta != expected:
            raise CrossCheckMismatch(f"type {kind}: density {delta}, expected {expected}")
        entries.append(CertEntry(kind, size, nb, delta, expected))
    notes = ["class-B density weight 2/3 applied (B is twice as dense as A)"]
    return _certificate("hexagon", 2, "class-B", entries, hexagon_expected_bound(), Fraction(2, 3), notes)
