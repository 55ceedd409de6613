"""Torus-invariant divisors and intersection theory on complete simplicial fans.

Support functions, Cartier indices, wall curve classes, exact intersection
numbers (by two independent routes), nef tests, and degrees of
1-parameter-subgroup closures on orbit closures.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

from toricapprox.fan import Cone, Fan, _ray_sources, per_fan, star_fan
from toricapprox.invariant import check
from toricapprox.lattice import primitive_part
from toricapprox.linalg import solve_general, vec_dot


class DivisorError(ValueError):
    pass


class ZeroWeight(DivisorError):
    pass


class TorusDivisor(namedtuple("TorusDivisor", "coeffs")):
    """D = sum d_i D_i with one exact rational coefficient per fan ray."""

    __slots__ = ()

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

    __mul__ = __rmul__  # d * c scales too; as a tuple it would repeat d

    def __neg__(self) -> "TorusDivisor":
        return TorusDivisor(tuple(-a for a in self.coeffs))


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


class SupportFunction(namedtuple(
    "SupportFunction",
    "fan divisor functionals cartier_index",
)):
    """Per-maximal-cone rational linear functionals of a divisor.

    functionals[k] is u_sigma for fan.max_cones[k], characterized by
    <u_sigma, v_i> = d_i for every ray i of sigma.  cartier_index is the
    least positive integer clearing all denominators.
    """

    __slots__ = ()

    def functional(self, cone: Cone) -> tuple:
        return self.functionals[self.fan.max_cones.index(cone)]

    def __call__(self, point: Sequence) -> Fraction:
        found = self.fan.cone_containing(point)
        if found is None:
            raise DivisorError(f"{point} is outside the fan support")
        return Fraction(vec_dot(self.functionals[found[0]], point))


@per_fan
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


class WallCurve(namedtuple(
    "WallCurve",
    "wall cone_a cone_b off_a off_b relation beta_a beta_b",
)):
    """The torus-invariant curve class of a wall.

    wall: (rank-1)-cone; cone_a, cone_b: the two adjacent maximal cones;
    relation: integer coefficients b over all rays with sum b_i v_i = 0,
    primitive, zero off the two adjacent cones, positive on the two
    off-wall rays (off_a in cone_a, off_b in cone_b); beta_a, beta_b: the
    index of the image of v_off_a, v_off_b in the rank-1 lattice
    N / sat(span(wall)).
    """

    __slots__ = ()

    @property
    def negative_rays(self) -> tuple:
        """J_minus: rays with negative relation coefficient (all on the wall)."""
        return tuple(i for i, b in enumerate(self.relation) if b < 0)


@per_fan
def wall_curves(fan: Fan) -> tuple:
    """One WallCurve per wall of the fan, in lexicographic wall order.

    The row of a cone's integer inverse R = D·M^-1 for its off-wall ray
    vanishes on the wall and pairs to D with that ray, so the ray's image
    in N / sat(span(wall)) has index beta = D / gcd(row) (the row holds the
    wall's maximal minors; Cox, Little and Schenck, *Toric Varieties*,
    section 6.4).
    """
    n = fan.rank
    index = {c: k for k, c in enumerate(fan.max_cones)}

    def beta(cone, off):
        det, adj = fan.cone_inverse(index[cone])
        p = cone.index(off) * n
        return det // gcd(*adj[p:p + n])

    out = []
    for wall, ca, cb in fan.walls:
        off_a = next(i for i in ca if i not in wall)
        off_b = next(i for i in cb if i not in wall)
        # D·v_b = sum_i (R·v_b)_i v_i over cone_a's rays.
        det, scaled = fan.scaled_coefficients(index[ca], fan.rays[off_b])
        relation = [0] * len(fan.rays)
        relation[off_b] = det
        for i, x in zip(ca, scaled):
            relation[i] = -x
        g = gcd(*relation)
        relation = tuple(x // g for x in relation)
        check(
            relation[off_a] > 0 and relation[off_b] > 0,
            "off-wall coefficients must be positive across a genuine wall",
        )
        out.append(WallCurve(
            wall, ca, cb, off_a, off_b, relation,
            beta(ca, off_a), beta(cb, off_b),
        ))
    return tuple(out)


def intersect(fan: Fan, d: TorusDivisor, c: WallCurve) -> Fraction:
    """D·C from the support function's bend across the wall.

    With u the functional on cone_a and v_b the off-wall ray of cone_b,
    D·C = (d_b - <u, v_b>) / beta where beta is the index of the image of
    v_b in N / span(wall).
    """
    sf = support_function(fan, d)
    u = sf.functional(c.cone_a)
    vb = fan.rays[c.off_b]
    return Fraction(d.coeffs[c.off_b] - vec_dot(u, vb), 1) / c.beta_b


def intersect_via_relation(fan: Fan, d: TorusDivisor, c: WallCurve) -> Fraction:
    """D·C from the wall relation: sum b_i d_i / (b_a · beta_a).

    Algebraically this is the support-function bend computed from cone_b's
    side, so agreement with `intersect` cross-checks both implementations.
    """
    total = sum(
        Fraction(b) * x for b, x in zip(c.relation, d.coeffs)
    )
    return total / (c.relation[c.off_a] * c.beta_a)


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
    check(by_walls == by_convexity, "wall test and convexity test disagree")
    return by_walls


class OnePsCurve(namedtuple("OnePsCurve", "tau w")):
    """Closure of a 1-parameter subgroup of the orbit of tau.

    tau: a cone of the ambient fan (possibly the zero cone); w: nonzero
    primitive weight vector in the quotient lattice N / span(tau) — in the
    coordinates used by star_fan(fan, tau).
    """

    __slots__ = ()


def make_one_ps(fan: Fan, tau: Sequence, w: Sequence) -> OnePsCurve:
    tau = fan.require_cone(tau)
    if all(x == 0 for x in w):
        raise ZeroWeight("1-parameter subgroup weight must be nonzero")
    return OnePsCurve(tau, primitive_part(w))


def _tau_rows(fan: Fan, tau: Cone):
    """(D, [R_t for t in tau]) for the first maximal cone containing tau,
    with R = D·M^-1 its integer inverse: R_t pairs to D with v_t and to 0
    with the cone's other rays."""
    k = next(k for k, s in enumerate(fan.max_cones) if set(tau) <= set(s))
    det, adj = fan.cone_inverse(k)
    n = fan.rank
    pos = [fan.max_cones[k].index(t) * n for t in tau]
    return det, [adj[p:p + n] for p in pos]


def restrict_to_orbit_closure(fan: Fan, d: TorusDivisor, tau: Cone):
    """Restriction of D to the orbit closure V(tau).

    Returns (star_fan result, divisor on the star fan).  First subtracts
    the principal divisor of u = sum_{t in tau} d_t R_t / D, with R_t the
    row of ray t in the integer inverse of a maximal cone containing tau
    (`_tau_rows`), so that D becomes trivial on tau; the resulting
    per-cone functionals then descend to the quotient lattice, and the
    restricted coefficient on the image of star ray i is d'_i / b_i, where
    b_i is the index of the image of v_i in the quotient.
    """
    sf = star_fan(fan, tau)
    det, rows = _tau_rows(fan, tau)
    u = [0] * fan.rank  # D·u
    for t, row in zip(tau, rows):
        u = [x + d.coeffs[t] * y for x, y in zip(u, row)]
    coeffs = [Fraction(0)] * len(sf.fan.rays)
    for j, i in _ray_sources(sf.ray_map).items():
        dprime = d.coeffs[i] - Fraction(vec_dot(u, fan.rays[i]), det)
        coeffs[j] = dprime / sf.b[i]
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


def one_ps_intersections(fan: Fan, c: OnePsCurve) -> tuple:
    """D_i·C for every ray i of the fan, in one pass.

    With star = star_fan(fan, tau), write w and -w in barycentric
    coordinates of the star-fan cones containing them; a_j, the sum of the
    two coefficients at star ray j, is the degree of that ray's divisor on
    C.  A ray i of the star has D_i·C = a_{ray_map[i]} / b_i, and a ray
    neither in tau nor in the star misses V(tau).  For t in tau, the
    relation sum_i (D_i·C) v_i = 0 gives D_t·C = -<R_t, V> / D, with V the
    sum over the rays off tau and R_t the row of t in the integer inverse
    R = D·M^-1 of a maximal cone containing tau, which pairs to D·delta on
    tau.  Everything is kept over the integers, scaled by one common
    denominator.  `one_ps_degree` computes each entry by the
    support-function route instead.
    """
    w = primitive_part(c.w)
    star = star_fan(fan, c.tau)
    sub = star.fan
    located = []
    for p in (w, tuple(-x for x in w)):
        found = sub.cone_containing(p)
        if found is None:
            raise DivisorError(f"{p} is outside the fan support")
        located.append(found)
    (k_p, d_p, lam_p), (k_m, d_m, lam_m) = located
    a = [0] * len(sub.rays)  # a_j · d_p · d_m
    for j, x in zip(sub.max_cones[k_p], lam_p):
        a[j] += x * d_m
    for j, x in zip(sub.max_cones[k_m], lam_m):
        a[j] += x * d_p
    m = lcm(*filter(None, star.b))
    den = d_p * d_m * m
    num = [  # (D_i·C) · den
        0 if j is None else a[j] * (m // bi) for j, bi in zip(star.ray_map, star.b)
    ]
    out = [Fraction(x, den) for x in num]
    if c.tau:
        det, rows = _tau_rows(fan, c.tau)
        v = [sum(map(mul, num, col)) for col in zip(*fan.rays)]
        for t, row in zip(c.tau, rows):
            out[t] = Fraction(-vec_dot(row, v), det * den)
    return tuple(out)
