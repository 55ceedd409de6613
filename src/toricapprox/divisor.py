"""Torus-invariant divisors and intersection theory on complete simplicial fans.

Support functions, Cartier indices, wall curve classes, exact intersection
numbers (by two independent routes), nef tests, and degrees of
1-parameter-subgroup closures on orbit closures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Sequence

from toricapprox.fan import Cone, Fan, star_fan
from toricapprox.lattice import primitive_part, quotient_lattice
from toricapprox.linalg import solve_general, vec_dot


class DivisorError(ValueError):
    pass


class ZeroWeight(DivisorError):
    pass


@dataclass(frozen=True)
class TorusDivisor:
    """D = sum d_i D_i with one exact rational coefficient per fan ray."""

    coeffs: tuple

    @staticmethod
    def of(values: Sequence) -> "TorusDivisor":
        return TorusDivisor(tuple(Fraction(v) for v in values))

    def __add__(self, other: "TorusDivisor") -> "TorusDivisor":
        return TorusDivisor(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TorusDivisor") -> "TorusDivisor":
        return TorusDivisor(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, c) -> "TorusDivisor":
        c = Fraction(c)
        return TorusDivisor(tuple(c * a for a in self.coeffs))

    def __neg__(self) -> "TorusDivisor":
        return TorusDivisor(tuple(-a for a in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


def canonical_divisor(fan: Fan) -> TorusDivisor:
    """K = -sum D_i: coefficient -1 on every ray."""
    return TorusDivisor(tuple(Fraction(-1) for _ in fan.rays))


def ray_divisor(fan: Fan, i: int) -> TorusDivisor:
    return TorusDivisor(
        tuple(Fraction(1 if j == i else 0) for j in range(len(fan.rays)))
    )


def principal_divisor(fan: Fan, u: Sequence) -> TorusDivisor:
    """div(chi^u): coefficient <u, v_i> on each ray."""
    return TorusDivisor(tuple(Fraction(vec_dot(u, v)) for v in fan.rays))


def linear_equivalence(fan: Fan, d1: TorusDivisor, d2: TorusDivisor):
    """A rational functional u with d1 - d2 = div(chi^u), or None."""
    rows = [tuple(v) for v in fan.rays]
    target = [a - b for a, b in zip(d1.coeffs, d2.coeffs)]
    return solve_general(rows, target)


@dataclass(frozen=True)
class SupportFunction:
    """Per-maximal-cone rational linear functionals of a divisor.

    functionals[k] is u_sigma for fan.max_cones[k], characterized by
    <u_sigma, v_i> = d_i for every ray i of sigma.  cartier_index is the
    least positive integer clearing all denominators.
    """

    fan: Fan
    divisor: TorusDivisor
    functionals: tuple
    cartier_index: int

    def functional(self, cone: Cone) -> tuple:
        return self.functionals[self.fan.max_cones.index(cone)]

    def __call__(self, point: Sequence) -> Fraction:
        cone = self.fan.cone_containing(point)
        if cone is None:
            raise DivisorError(f"{point} is outside the fan support")
        return Fraction(vec_dot(self.functional(cone), point))


@lru_cache(maxsize=None)
def support_function(fan: Fan, d: TorusDivisor) -> SupportFunction:
    """The unique function linear on each maximal cone with value d_i at v_i.

    With D and R = D·M^-1 the cone's integer inverse, u_sigma = R^T·d / D.
    """
    n = fan.rank
    functionals = []
    denom = 1
    for k, c in enumerate(fan.max_cones):
        det, adj = fan.cone_inverse(k)
        target = [d.coeffs[i] for i in c]
        u = tuple(
            Fraction(sum(map(mul, adj[j::n], target)), det) for j in range(n)
        )
        functionals.append(u)
        for x in u:
            denom = lcm(denom, x.denominator)
    return SupportFunction(fan, d, tuple(functionals), denom)


@dataclass(frozen=True)
class WallCurve:
    """The torus-invariant curve class of a wall.

    wall: (rank-1)-cone; cone_a, cone_b: the two adjacent maximal cones;
    relation: integer coefficients b over all rays with sum b_i v_i = 0,
    primitive, zero off the two adjacent cones, positive on the two
    off-wall rays (off_a in cone_a, off_b in cone_b).
    """

    wall: Cone
    cone_a: Cone
    cone_b: Cone
    off_a: int
    off_b: int
    relation: tuple

    @property
    def negative_rays(self) -> tuple:
        """J_minus: rays with negative relation coefficient (all on the wall)."""
        return tuple(i for i, b in enumerate(self.relation) if b < 0)


@lru_cache(maxsize=None)
def wall_curves(fan: Fan) -> tuple:
    """One WallCurve per wall of the fan, in lexicographic wall order."""
    out = []
    for wall, ca, cb in fan.walls:
        off_a = next(i for i in ca if i not in wall)
        off_b = next(i for i in cb if i not in wall)
        # D·v_b = sum_i (R·v_b)_i v_i over cone_a's rays.
        det, scaled = fan.scaled_coefficients(ca, fan.rays[off_b])
        relation = [0] * len(fan.rays)
        relation[off_b] = det
        for i, x in zip(ca, scaled):
            relation[i] = -x
        g = gcd(*relation)
        relation = tuple(x // g for x in relation)
        assert relation[off_a] > 0 and relation[off_b] > 0, (
            "off-wall coefficients must be positive across a genuine wall"
        )
        out.append(WallCurve(wall, ca, cb, off_a, off_b, relation))
    return tuple(out)


@lru_cache(maxsize=None)
def _off_ray_index_in_quotient(fan: Fan, wall: Cone, ray: int) -> int:
    """|image of v_ray| in the rank-1 lattice N / sat(span(wall))."""
    if wall:
        quot = quotient_lattice([fan.rays[i] for i in wall], fan.rank)
        img = quot.apply(fan.rays[ray])
    else:
        img = fan.rays[ray]
    return abs(img[0]) if len(img) == 1 else abs(
        img[next(j for j, x in enumerate(img) if x != 0)]
    )


def intersect(fan: Fan, d: TorusDivisor, c: WallCurve) -> Fraction:
    """D·C from the support function's bend across the wall.

    With u the functional on cone_a and v_b the off-wall ray of cone_b,
    D·C = (d_b - <u, v_b>) / beta where beta is the index of the image of
    v_b in N / span(wall).
    """
    sf = support_function(fan, d)
    u = sf.functional(c.cone_a)
    vb = fan.rays[c.off_b]
    beta = _off_ray_index_in_quotient(fan, c.wall, c.off_b)
    return Fraction(d.coeffs[c.off_b] - vec_dot(u, vb), 1) / beta


def intersect_via_relation(fan: Fan, d: TorusDivisor, c: WallCurve) -> Fraction:
    """D·C from the wall relation: sum b_i d_i / (b_a · beta_a).

    Algebraically this is the support-function bend computed from cone_b's
    side, so agreement with `intersect` cross-checks both implementations.
    """
    total = sum(
        Fraction(b) * x for b, x in zip(c.relation, d.coeffs)
    )
    beta_a = _off_ray_index_in_quotient(fan, c.wall, c.off_a)
    return total / (c.relation[c.off_a] * beta_a)


def is_nef(fan: Fan, d: TorusDivisor) -> bool:
    """D·C >= 0 on every wall curve, cross-checked by global convexity.

    Global convexity of the support function means <u_sigma, v_i> <= d_i
    for every maximal cone sigma and every ray i; on a complete fan this is
    equivalent to non-negative wall intersections.  Disagreement would be an
    internal bug and raises.
    """
    by_walls = all(intersect(fan, d, c) >= 0 for c in wall_curves(fan))
    sf = support_function(fan, d)
    by_convexity = all(
        Fraction(vec_dot(u, v)) <= d.coeffs[i]
        for u in sf.functionals
        for i, v in enumerate(fan.rays)
    )
    assert by_walls == by_convexity, "wall test and convexity test disagree"
    return by_walls


@dataclass(frozen=True)
class OnePsCurve:
    """Closure of a 1-parameter subgroup of the orbit of tau.

    tau: a cone of the ambient fan (possibly the zero cone); w: nonzero
    primitive weight vector in the quotient lattice N / span(tau) — in the
    coordinates used by star_fan(fan, tau).
    """

    tau: Cone
    w: tuple


def make_one_ps(fan: Fan, tau: Sequence, w: Sequence) -> OnePsCurve:
    tau = fan.require_cone(tau)
    if all(x == 0 for x in w):
        raise ZeroWeight("1-parameter subgroup weight must be nonzero")
    return OnePsCurve(tau, primitive_part(w))


def restrict_to_orbit_closure(fan: Fan, d: TorusDivisor, tau: Cone):
    """Restriction of D to the orbit closure V(tau).

    Returns (star_fan result, divisor on the star fan).  First subtracts a
    rational principal divisor to make D trivial on tau; the resulting
    per-cone functionals then descend to the quotient lattice, and the
    restricted coefficient on the image of ray i is d'_i / b_i, where b_i
    is the index of the image of v_i in the quotient.
    """
    rows = [fan.rays[i] for i in tau]
    target = [d.coeffs[i] for i in tau]
    u = solve_general(rows, target)
    assert u is not None
    dprime = d - principal_divisor(fan, u)
    sf = star_fan(fan, tau)
    coeffs = [Fraction(0)] * len(sf.fan.rays)
    for i, j in sf.ray_map.items():
        coeffs[j] = Fraction(dprime.coeffs[i]) / sf.b[i]
    return sf, TorusDivisor(tuple(coeffs))


def one_ps_degree(fan: Fan, d: TorusDivisor, c: OnePsCurve) -> Fraction:
    """Degree of D on the closure of the 1-parameter subgroup.

    For tau = 0 this is phi(w) + phi(-w) with phi the support function of
    D; for tau != 0 the divisor is first restricted to the orbit closure
    V(tau) and the rank-reduced formula is applied there.
    """
    w = primitive_part(c.w)
    if not c.tau:
        sf = support_function(fan, d)
        return sf(w) + sf(tuple(-x for x in w))
    star, restricted = restrict_to_orbit_closure(fan, d, c.tau)
    sub = support_function(star.fan, restricted)
    return sub(w) + sub(tuple(-x for x in w))


def degree_of_wall_curve(fan: Fan, c: WallCurve) -> dict:
    """Intersection table {ray index: D_i·C} of a wall curve."""
    return {
        i: intersect(fan, ray_divisor(fan, i), c) for i in range(len(fan.rays))
    }
