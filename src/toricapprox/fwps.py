"""Curve constructions on (fake) weighted projective spaces.

The universal cover in codimension 1, the terminal-weights fractional-part
inequality, the all-intersections-at-most-one curve on a weighted projective
space, mu_p quotients of projective space with their pigeonhole patch
normalization, and the driver producing a low-anticanonical-degree unibranch
rational curve through any torus-orbit point — plus the fiber-extraction
base case for elementary contractions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Sequence

from toricapprox.fan import (
    Cone,
    Fan,
    FwpsData,
    build_fan,
    cone_multiplicity,
    is_projective_space,
    is_terminal,
    recognize_fwps,
    star_fan,
    _ray_sources,
)
from toricapprox.lattice import primitive_part, smith_normal_form, _quotient_by_span
from toricapprox.linalg import mat_mul, mat_vec, solve_general, vec_dot
from toricapprox.divisor import (
    OnePsCurve,
    TorusDivisor,
    canonical_divisor,
    intersect,
    one_ps_degree,
    one_ps_intersections,
)
from toricapprox.invariant import check
from toricapprox.mmp import (
    ExtremalRay,
    classify_contraction,
    orbit_in_exc,
)


class FwpsError(ValueError):
    pass


class NotWps(FwpsError):
    pass


class KappaOutOfRange(FwpsError):
    pass


class TrivialAction(FwpsError):
    pass


class NotPnModP(FwpsError):
    pass


class IsProjectiveSpace(FwpsError):
    """The variety is projective space; the line through P is the answer
    (handled by the caller via the classical projective-space result)."""


class CurveCertificate(namedtuple(
    "CurveCertificate",
    "fan curve intersections minus_k bound trace assumptions",
)):
    """A unibranch rational curve given as a 1-parameter-subgroup closure.

    intersections[i] = D_i·C per fan ray; minus_k = -K·C = sum of the
    intersections (checked); bound: the proved upper bound for -K·C;
    trace: replayable construction path; assumptions: ledger of facts
    recorded but not verified (e.g. rationality of lifted points).
    """

    __slots__ = ()


def make_certificate(fan, curve, bound, trace, assumptions=()) -> CurveCertificate:
    inters = one_ps_intersections(fan, curve)
    # The support-function route, independent of the one-pass vector.
    minus_k = one_ps_degree(fan, -1 * canonical_divisor(fan), curve)
    check(minus_k == sum(inters), "-K·C must equal the sum of ray degrees")
    check(minus_k <= bound, f"-K·C = {minus_k} exceeds the claimed bound {bound}")
    return CurveCertificate(
        fan, curve, inters, minus_k, Fraction(bound), tuple(trace), tuple(assumptions)
    )


def terminal_wps_inequality(weights: Sequence[int], kappa: int) -> bool:
    """The fractional-part inequality sum {a_i·k/h} <= n-1 (h = sum a_i).

    A necessary condition for terminality of the weighted projective space,
    valid for 2 <= kappa <= h-2; evaluated exactly over the rationals.
    """
    h = sum(weights)
    n = len(weights) - 1
    if not 2 <= kappa <= h - 2:
        raise KappaOutOfRange(f"kappa={kappa} outside [2, {h - 2}]")
    total = sum(
        Fraction(a * kappa, h) - (a * kappa // h) for a in weights
    )
    return total <= n - 1


def _lift_curve(
    fan: Fan, sub_fan: Fan, curve: OnePsCurve, base: Cone, ray_map, to_ambient
) -> OnePsCurve:
    """Carry a curve on sub_fan into fan across an integer lattice map.

    The weight is lifted through the quotient of star_fan(sub_fan,
    curve.tau), mapped into N by the integer matrix to_ambient, and
    projected onto the orbit of tau = base + (ray_map of curve.tau), for
    ray_map sending each sub_fan ray index to a ray index of fan.
    """
    x = star_fan(sub_fan, curve.tau).quotient.lift_point(curve.w)
    x = mat_vec(to_ambient, x)
    tau = tuple(sorted(set(base) | {ray_map[j] for j in curve.tau}))
    return OnePsCurve(tau, primitive_part(star_fan(fan, tau).quotient.apply(x)))


def wps_curve_all_leq1(fan: Fan, p_orbit: Sequence = ()) -> CurveCertificate:
    """A 1-PS closure through the orbit of P with D_i·C <= 1 for all i.

    On a weighted projective space only.  The recursion: dimension 1 takes
    the whole space; P in the torus or on the maximal-weight divisor takes
    the 1-PS of the maximal-weight ray (degrees a_i/a_max); otherwise
    recurse into the orbit closure of a boundary divisor through P, which
    is again a weighted projective space.
    """
    data = recognize_fwps(fan)
    if data.cover_index != 1:
        raise NotWps(f"cover index {data.cover_index} != 1")
    p_orbit = fan.require_cone(p_orbit)
    weights = data.weights
    a0 = max(weights)
    i0 = weights.index(a0)
    if fan.rank == 1:
        cert = make_certificate(
            fan,
            OnePsCurve((), (1,)),
            bound=Fraction(2),
            trace=("dimension 1: the curve is the whole space",),
            assumptions=("a torus-translate of the curve passes through P",),
        )
        check(max(cert.intersections) <= 1, "every D_i·C must be at most 1")
        return cert
    if set(p_orbit) <= {i0}:
        curve = OnePsCurve((), fan.rays[i0])
        cert = make_certificate(
            fan,
            curve,
            bound=Fraction(sum(weights), a0),
            trace=(
                f"1-parameter subgroup of the maximal-weight ray {i0} "
                f"(weights {weights})",
            ),
            assumptions=("a torus-translate of the curve passes through P",),
        )
        expect = tuple(Fraction(a, a0) for a in weights)
        check(cert.intersections == expect, "D_i·C must be a_i / a_max")
        return cert
    j = next(i for i in p_orbit if i != i0)
    star = star_fan(fan, (j,))
    sub_orbit = tuple(sorted(star.ray_map[i] for i in p_orbit if i != j))
    sub = wps_curve_all_leq1(star.fan, sub_orbit)
    curve = _lift_curve(
        fan, star.fan, sub.curve, star.tau,
        _ray_sources(star.ray_map), star.quotient.lift,
    )
    cert = make_certificate(
        fan,
        curve,
        bound=Fraction(sum(weights), a0),
        trace=(f"recursed into the orbit closure of ray {j}",) + sub.trace,
        assumptions=sub.assumptions,
    )
    check(max(cert.intersections) <= 1, "every D_i·C must be at most 1")
    return cert


class MuPAction(namedtuple("MuPAction", "p weights patch patch_weights")):
    """Normalized weights of a mu_p action on projective space.

    weights: (w_0, ..., w_n) with w_0 = r = p and r > w_1 >= ... >= w_n >= 0
    after the global normalization; patch: index j of the affine chart used;
    patch_weights: the n residues M(w_i - w_j) for i != j, each <= rn/(n+1).
    """

    __slots__ = ()


def mu_p_normalize(residues: Sequence[int], p: int) -> MuPAction:
    """Pigeonhole chart normalization of a mu_p action on P^n.

    Input: the n+1 character residues mod p of the action on homogeneous
    coordinates (defined up to a common shift).  Output: a chart j on which
    every action weight (s_i - s_j mod p, i != j, kept in coordinate order)
    is at most pn/(n+1): the n+1 residues cut the circle Z/p into arcs
    summing to p, so some arc has length >= p/(n+1), and the chart just
    above the widest arc works.
    """
    n = len(residues) - 1
    res = [x % p for x in residues]
    if len(set(res)) == 1:
        raise TrivialAction("all residues equal: the action is a scalar")
    best = None
    for j in range(n + 1):
        patch = tuple(
            (res[i] - res[j]) % p for i in range(n + 1) if i != j
        )
        m = max(patch)
        if best is None or m < best[0]:
            best = (m, j, patch)
    m, j, patch = best
    check(m <= Fraction(p * n, n + 1), "pigeonhole bound on the best chart")
    base = min(res)
    weights = tuple(sorted(((x - base) % p for x in res), reverse=True))
    return MuPAction(p, weights, j, patch)


def mu_p_residues(data: FwpsData) -> tuple:
    """Character residues mod p of the covering mu_p action on P^n.

    For W = P^n / mu_p: pick a lattice point xi of N generating N/N'; the
    residue of homogeneous coordinate x_i (relative to x_n) is
    p·<m_i, xi> mod p, where m_i is the character with divisor D_i - D_n.
    """
    n = data.fan.rank
    p = data.cover_index
    # xi: a point of N whose class generates N/N' (cyclic of prime order).
    # Some standard basis vector works: if all were in N' then N' = N.
    rays = data.cover_fan.rays
    xi = None
    for cand in _basis_vectors(n):
        img = mat_vec(data.ambient_to_cover, cand)
        if any(Fraction(x).denominator == p for x in img):
            xi = img
            break
    check(xi is not None, "a standard basis vector generates N/N'")
    res = []
    for i in range(n):
        # m_i: <m_i, v'_k> = delta_ki - delta_kn over the cover rays.
        rows = [rays[k] for k in range(n + 1)]
        target = [(1 if k == i else 0) - (1 if k == n else 0) for k in range(n + 1)]
        m = solve_general(rows, target)
        res.append(int(p * vec_dot(m, xi)) % p)
    res.append(0)
    return tuple(res)


def _basis_vectors(n: int):
    for k in range(n):
        yield tuple(1 if r == k else 0 for r in range(n))


def mu_p_torus_curve(data: FwpsData, p_orbit: Sequence = ()) -> CurveCertificate:
    """The descended 1-PS curve on W = P^n/mu_p for P in the torus.

    The pigeonhole chart gives exponents (the patch weights); the cover
    curve t -> (t^{w_1}, ..., t^{w_n}) descends through the degree-p torsor
    and satisfies -K·C = (n+1)·max(w_i)/p <= n.
    """
    n = data.fan.rank
    p = data.cover_index
    if not _is_pn_mod_p(data):
        raise NotPnModP("the cover must be projective space of prime index")
    if tuple(sorted(p_orbit)):
        raise NotPnModP("the torus-case construction needs P in the torus")
    act = mu_p_normalize(mu_p_residues(data), p)
    # The cover 1-PS in the chart: exponent of x_i is the chart weight of
    # coordinate i, making the curve equivariant so that it descends
    # through the degree-p quotient (the descended cocharacter is omega/p).
    others = [i for i in range(n + 1) if i != act.patch]
    exps = dict(zip(others, act.patch_weights))
    omega = tuple(
        sum(exps[i] * data.cover_fan.rays[i][r] for i in others)
        for r in range(n)
    )
    ambient = tuple(int(x) for x in mat_vec(data.cover_to_ambient, omega))
    check(all(x % p == 0 for x in ambient), "the cover curve descends: omega/p in N")
    curve = OnePsCurve((), primitive_part(ambient))
    cert = make_certificate(
        data.fan,
        curve,
        bound=Fraction(n),
        trace=(
            f"mu_{p} quotient of projective {n}-space: chart {act.patch}, "
            f"patch weights {act.patch_weights}",
        ),
        assumptions=("a torus-translate of the curve passes through P",),
    )
    check(
        cert.minus_k <= Fraction((n + 1) * max(act.patch_weights), p),
        "-K·C is at most (n+1)·max(patch weights)/p",
    )
    return cert


def _is_pn_mod_p(data: FwpsData) -> bool:
    p = data.cover_index
    return (
        all(w == 1 for w in data.weights)
        and p > 1
        and all(p % q for q in range(2, p))
    )


def classify_boundary(data: FwpsData, ray: int):
    """Which shape a boundary divisor of W = P^n/mu_p takes.

    Returns ("wps", star, witness) when the orbit closure of the ray is a
    weighted projective space — witness is a second ray whose wall with
    `ray` has multiplicity > 1 — or ("pn_mod_p", star, None) when it is a
    lower-dimensional mu_p quotient of projective space.
    """
    if not _is_pn_mod_p(data):
        raise NotPnModP("boundary classification needs P^n/mu_p input")
    star = star_fan(data.fan, (ray,))
    sub = recognize_fwps(star.fan)
    if sub.cover_index == 1:
        witness = next(
            i
            for i in _ray_sources(star.ray_map).values()
            if cone_multiplicity(data.fan, tuple(sorted((ray, i)))) > 1
        )
        return "wps", star, witness
    check(sub.cover_index == data.cover_index, "the divisor's cover group must be all of mu_p")
    return "pn_mod_p", star, None


def fwps_curve(data: FwpsData, p_orbit: Sequence = ()) -> CurveCertificate:
    """A unibranch rational 1-PS curve through P with -K·C <= dim + 1.

    Case split on the universal cover in codimension 1: a true weighted
    projective space is handled by the all-degrees-at-most-one curve; a
    fake one with non-trivial weights lifts P to the cover and descends the
    curve; a quotient of projective space factors through a prime-order
    quotient and uses the chart construction (torus case) or boundary
    classification with induction.  The bound improves to -K·C <= dim when
    the space is terminal and not projective space, and unconditionally on
    prime quotients of projective space.
    """
    fan = data.fan
    n = fan.rank
    p_orbit = fan.require_cone(p_orbit)
    if data.cover_index == 1:
        cert = wps_curve_all_leq1(fan, p_orbit)
        if is_terminal(fan)[0] and not is_projective_space(fan):
            check(cert.minus_k <= n, "terminal non-projective-space bound")
        return cert
    if not all(w == 1 for w in data.weights):
        # Lift to the weighted-projective cover; orbit cones correspond.
        sub = wps_curve_all_leq1(data.cover_fan, p_orbit)
        curve = _lift_curve(
            fan, data.cover_fan, sub.curve, (), range(len(fan.rays)),
            data.cover_to_ambient,
        )
        cert = make_certificate(
            fan,
            curve,
            bound=Fraction(n + 1),
            trace=(
                f"descended from the codimension-1 universal cover "
                f"(index {data.cover_index})",
            )
            + sub.trace,
            assumptions=sub.assumptions
            + ("P lifts to a rational point of the cover",),
        )
        check(cert.minus_k <= sub.minus_k, "descent cannot raise -K·C")
        return cert
    # Cover is projective space; factor through a prime-order quotient.
    q = data.cover_index
    p = next(d for d in range(2, q + 1) if q % d == 0)
    if p != q:
        inter = _intermediate_quotient(data, p)
        sub = fwps_curve(recognize_fwps(inter.fan), p_orbit)
        curve = _lift_curve(
            fan, inter.fan, sub.curve, (), range(len(fan.rays)),
            inter.to_ambient,
        )
        cert = make_certificate(
            fan,
            curve,
            bound=Fraction(n + 1),
            trace=(f"factored through a mu_{p} quotient of the cover",)
            + sub.trace,
            assumptions=sub.assumptions
            + ("P lifts to a rational point of the intermediate quotient",),
        )
        check(cert.minus_k <= sub.minus_k, "descent cannot raise -K·C")
        return cert
    # W = P^n / mu_p.
    if not p_orbit:
        return mu_p_torus_curve(data)
    j = p_orbit[0]
    case, star, witness = classify_boundary(data, j)
    sub_orbit = tuple(sorted(star.ray_map[i] for i in p_orbit if i != j))
    if case == "wps":
        sub = wps_curve_all_leq1(star.fan, sub_orbit)
        m = cone_multiplicity(fan, tuple(sorted((j, witness))))
        bound = Fraction(n + 1, m)
    else:
        sub = fwps_curve(recognize_fwps(star.fan), sub_orbit)
        bound = Fraction((n - 1) * (n + 1), n)
    curve = _lift_curve(
        fan, star.fan, sub.curve, star.tau,
        _ray_sources(star.ray_map), star.quotient.lift,
    )
    cert = make_certificate(
        fan,
        curve,
        bound=min(bound, Fraction(n)),
        trace=(f"boundary case on ray {j} ({case})",) + sub.trace,
        assumptions=sub.assumptions,
    )
    return cert


class _Intermediate(namedtuple("_Intermediate", "fan to_ambient")):
    __slots__ = ()


def _intermediate_quotient(data: FwpsData, p: int) -> _Intermediate:
    """The quotient P^n/mu_p sitting under W = P^n/G for p | |G|.

    Its lattice is N'' = N' + Z·xi for xi of order p in N/N'; the fan keeps
    the same rays, rewritten in a basis of N''.
    """
    n = data.fan.rank
    # Find xi in N whose class in N/N' has order exactly p: some basis
    # vector has class of order divisible by p (the classes of the basis
    # generate the group, whose exponent p divides); scale it down.
    xi = None
    for cand in _basis_vectors(n):
        img = mat_vec(data.ambient_to_cover, cand)
        denom = lcm(*(Fraction(x).denominator for x in img))
        if denom % p == 0:
            xi = tuple((denom // p) * c for c in cand)
            break
    check(xi is not None, "some basis class has order divisible by p")
    # Basis of N'' = Z-span of (cover basis columns) + xi, via the Smith
    # form of the generator matrix: col span of A = col span of U^{-1}·D.
    gens = [tuple(col) for col in zip(*data.cover_to_ambient)] + [tuple(xi)]
    cols = tuple(tuple(g[r] for g in gens) for r in range(n))
    diag, _, _, uinv = smith_normal_form(cols)
    to_ambient = tuple(
        tuple(uinv[r][k] * diag[k] for k in range(n)) for r in range(n)
    )
    # Rays of W in N'' coordinates.
    new_rays = [
        tuple(int(x) for x in solve_general(to_ambient, v)) for v in data.fan.rays
    ]
    fan2 = build_fan(n, new_rays, data.fan.max_cones)
    return _Intermediate(fan2, to_ambient)


class FiberData(namedtuple(
    "FiberData",
    "fan ray_sources tau_base to_ambient",
)):
    """The reduced general fiber of an elementary contraction, as an fwps.

    fan: the fiber fan on L = (saturated span of the nonzero-degree rays)
    modulo (saturated span of the negative-degree rays); ray_sources: the
    ambient ray index behind each fiber ray; tau_base: the ambient cone of
    negative rays (the fiber sits inside its orbit closure); to_ambient:
    integer matrix taking fiber coordinates to a lift in N."""

    __slots__ = ()


def fiber_fwps(fan: Fan, ray: ExtremalRay) -> FiberData:
    """Extract the reduced general fiber of the contraction of `ray`."""
    j_minus, j_plus = ray.j_minus, ray.j_plus
    quot = _quotient_by_span([fan.rays[i] for i in j_minus], fan.rank)
    imgs = [quot.apply(fan.rays[i]) for i in j_plus]
    inner = _quotient_by_span(imgs, quot.rank)
    basis = tuple(zip(*inner.kernel_basis))  # columns span the fiber lattice
    fdim = quot.rank - inner.rank
    fib_rays = []
    for img in imgs:
        coords = solve_general(basis, img)
        fib_rays.append(primitive_part(tuple(int(x) for x in coords)))
    fiber = build_fan(
        fdim, fib_rays, list(combinations(range(len(j_plus)), fdim))
    )
    return FiberData(fiber, j_plus, j_minus, mat_mul(quot.lift, basis))


def base_case_curve(
    fan: Fan, ray: ExtremalRay, d: TorusDivisor, p_orbit: Sequence = ()
) -> CurveCertificate:
    """The terminal MMP step: a curve through P inside the contracted fiber.

    Needs D nef with D·(contracted class) = 0 and P in the exceptional
    locus.  Extracts the fiber through P as a fake weighted projective
    space, builds the low-degree curve there, lifts it to the ambient fan,
    and returns a certificate with alpha-degree 0 against D.
    """
    if is_projective_space(fan):
        raise IsProjectiveSpace(
            "the whole variety is projective space: take the line through P"
        )
    kind, exc = classify_contraction(fan, ray)
    p_orbit = fan.require_cone(p_orbit)
    if not orbit_in_exc(p_orbit, exc):
        raise FwpsError("P is not in the exceptional locus of this ray")
    check(intersect(fan, d, ray.curve) == 0, "D must kill the contracted ray")
    fib = fiber_fwps(fan, ray)
    if fib.fan.rank == fan.rank:
        # The fiber is the whole space (contraction to a point).
        data = recognize_fwps(fan)
        sub = fwps_curve(data, p_orbit)
        curve = sub.curve
        bound = Fraction(fan.rank + 1)
        if is_terminal(fan)[0]:
            bound = Fraction(fan.rank)
        trace = ("contraction to a point: curve on the space itself",) + sub.trace
        sub_minus_k = sub.minus_k
    else:
        fdata = recognize_fwps(fib.fan)
        sub_orbit = tuple(
            sorted(
                fib.ray_sources.index(i) for i in p_orbit if i in fib.ray_sources
            )
        )
        sub = fwps_curve(fdata, sub_orbit)
        curve = _lift_curve(
            fan, fib.fan, sub.curve, fib.tau_base, fib.ray_sources,
            fib.to_ambient,
        )
        bound = Fraction(fan.rank)
        trace = (
            f"fiber of the {kind} contraction: fake weighted projective "
            f"space of dimension {fib.fan.rank}",
        ) + sub.trace
        sub_minus_k = sub.minus_k
    cert = make_certificate(
        fan,
        curve,
        bound=bound,
        trace=trace,
        assumptions=sub.assumptions,
    )
    check(cert.minus_k <= sub_minus_k, "ambient -K·C must not exceed the fiber's")
    check(
        one_ps_degree(fan, d, cert.curve) == 0,
        "D is pulled back from the base, so the fiber curve has degree 0",
    )
    return cert

