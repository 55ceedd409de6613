"""Toric minimal model program.

K-negative extremal rays of the Mori cone, contraction classification,
divisorial contractions, Mori fiber quotients, flips (validated by the
pullback identity on a common star subdivision), the a-value step, and the
full chain runner tracking a point's orbit cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from toricapprox.fan import (
    Cone,
    Fan,
    build_fan,
    star_subdivision,
)
from toricapprox.invariant import check
from toricapprox.lattice import primitive_part, _quotient_by_span
from toricapprox.linalg import nonneg_combination, vec_dot
from toricapprox.divisor import (
    TorusDivisor,
    WallCurve,
    canonical_divisor,
    intersect,
    is_nef,
    ray_divisor,
    support_function,
    wall_curves,
)


class MmpError(ValueError):
    pass


class NotExtremal(MmpError):
    pass


class FlipRequired(MmpError):
    pass


class NotFlip(MmpError):
    pass


class IdentityFailure(MmpError):
    pass


class NoKNegativeRay(MmpError):
    pass


class NonTermination(MmpError):
    pass


class OrbitInExc(MmpError):
    pass


MORI_FIBER = "MoriFiber"
DIVISORIAL = "Divisorial"
FLIP = "Flip"


@dataclass(frozen=True)
class ExtremalRay:
    """An extreme ray of the Mori cone, represented by a wall curve.

    j_minus: ray indices with negative relation coefficient, which span the
    exceptional cone; k_degree: K·C.  The circuit (j_minus, j_plus) of the
    wall relation fixes the kind of the contraction: MoriFiber when no
    coefficient is negative (the exceptional locus is all of X), Divisorial
    when exactly one is, Flip otherwise.
    """

    curve: WallCurve
    j_minus: tuple
    k_degree: Fraction

    @property
    def is_k_negative(self) -> bool:
        return self.k_degree < 0

    @property
    def j_plus(self) -> tuple:
        """Ray indices with positive relation coefficient."""
        return tuple(i for i, b in enumerate(self.curve.relation) if b > 0)

    @property
    def kind(self) -> str:
        if not self.j_minus:
            return MORI_FIBER
        return DIVISORIAL if len(self.j_minus) == 1 else FLIP


def _wall_classes(fan: Fan) -> dict:
    """Primitive class -> first wall curve of that class, in wall order."""
    by_class = {}
    for c in wall_curves(fan):
        by_class.setdefault(primitive_part(c.relation), c)
    return by_class


def _is_extremal(classes, cls) -> bool:
    """cls is a wall class and no non-negative combination of the others."""
    if cls not in classes:
        return False
    others = [c for c in classes if c != cls]
    return not others or nonneg_combination(others, cls) is None


def mori_extremal_rays(fan: Fan) -> tuple:
    """Extreme rays of the cone spanned by all wall curve classes.

    The numerical class of a wall curve is its ray relation.  A class is
    extremal iff it is not a non-negative combination of the other classes
    (exact rational feasibility test).
    """
    by_class = _wall_classes(fan)
    k = canonical_divisor(fan)
    return tuple(
        ExtremalRay(c, c.negative_rays, intersect(fan, k, c))
        for cls, c in by_class.items()
        if _is_extremal(by_class, cls)
    )


def classify_contraction(fan: Fan, ray: ExtremalRay):
    """(kind, exc_cone) of the elementary contraction of a caller's ray.

    Checks that the ray is K-negative and, with one LP, that its class is
    extremal in the Mori cone of fan; the kind and the exceptional cone are
    then read off the ray's circuit (ExtremalRay.kind, j_minus).
    """
    if not ray.is_k_negative:
        raise NotExtremal("contraction classification needs a K-negative ray")
    if not _is_extremal(_wall_classes(fan), primitive_part(ray.curve.relation)):
        raise NotExtremal(f"{ray.curve.relation} is not an extremal class")
    return ray.kind, ray.j_minus


@dataclass(frozen=True)
class ContractionResult:
    """A divisorial or Mori-fiber contraction psi: X -> Y.

    ray_map: X ray index -> Y ray index (None for collapsed rays);
    quotient_projection is set for Mori fiber steps: the projection of N
    onto the base lattice.  The general fiber is `fwps.fiber_fwps`.
    """

    kind: str
    source: Fan
    target: Fan
    ray_map: tuple
    exc_cone: Cone
    quotient_projection: Optional[tuple] = None


def _contract_divisorial(fan: Fan, ray: ExtremalRay) -> ContractionResult:
    e = ray.j_minus[0]
    cls = primitive_part(ray.curve.relation)
    collapsed_walls = [
        c for c in wall_curves(fan) if primitive_part(c.relation) == cls
    ]
    # Union-find over maximal cones across walls whose curve is contracted.
    parent = {c: c for c in fan.max_cones}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for w in collapsed_walls:
        a, b = find(w.cone_a), find(w.cone_b)
        if a != b:
            parent[a] = b
    groups = {}
    for c in fan.max_cones:
        groups.setdefault(find(c), set()).update(c)
    new_rays = [v for i, v in enumerate(fan.rays) if i != e]
    ray_map = []
    j = 0
    for i in range(len(fan.rays)):
        ray_map.append(None if i == e else j)
        j += 0 if i == e else 1
    new_cones = set()
    for members in groups.values():
        members.discard(e)
        new_cones.add(tuple(sorted(ray_map[i] for i in members)))
    target = build_fan(fan.rank, new_rays, sorted(new_cones))
    return ContractionResult(
        DIVISORIAL, fan, target, tuple(ray_map), (e,)
    )


def _contract_mori_fiber(fan: Fan, ray: ExtremalRay) -> ContractionResult:
    gens = [fan.rays[i] for i in ray.j_plus]
    quot = _quotient_by_span(gens, fan.rank)
    ray_map = [None] * len(fan.rays)
    new_rays = []
    seen = {}
    for i, v in enumerate(fan.rays):
        img = quot.apply(v)
        if all(x == 0 for x in img):
            continue
        p = primitive_part(img)
        if p not in seen:
            seen[p] = len(new_rays)
            new_rays.append(p)
        ray_map[i] = seen[p]
    if quot.rank == 0:
        target = build_fan(0, (), ((),))
    else:
        new_cones = set()
        for c in fan.max_cones:
            imgs = tuple(
                sorted({ray_map[i] for i in c if ray_map[i] is not None})
            )
            if len(imgs) == quot.rank:
                new_cones.add(imgs)
        target = build_fan(quot.rank, new_rays, sorted(new_cones))
    return ContractionResult(
        MORI_FIBER,
        fan,
        target,
        tuple(ray_map),
        (),
        quotient_projection=quot.projection,
    )


def contract(fan: Fan, ray: ExtremalRay) -> ContractionResult:
    kind, _ = classify_contraction(fan, ray)
    if kind == FLIP:
        raise FlipRequired("small contraction: use flip()")
    if kind == DIVISORIAL:
        return _contract_divisorial(fan, ray)
    return _contract_mori_fiber(fan, ray)


def push_divisor(res: ContractionResult, d: TorusDivisor) -> TorusDivisor:
    """Pushforward of a divisor trivial on the contracted ray.

    Defined exactly when d is a pullback, i.e. d·C = 0 on the contracted
    class; the result pulls back to d (checked).
    """
    fan, target = res.source, res.target
    if res.kind == DIVISORIAL:
        coeffs = [None] * len(target.rays)
        for i, j in enumerate(res.ray_map):
            if j is not None:
                coeffs[j] = d.coeffs[i]
        out = TorusDivisor(tuple(coeffs))
        # Exactness: the target support function must reproduce the
        # collapsed ray's coefficient.
        sf = support_function(target, out)
        e = res.exc_cone[0]
        check(sf(fan.rays[e]) == d.coeffs[e], "divisor is not a pullback")
        return out
    # Mori fiber: coefficients descend along the quotient with the index of
    # each ray image; rays collapsing to 0 must carry coefficient 0.
    coeffs = [None] * len(target.rays)
    for i, v in enumerate(fan.rays):
        img = tuple(vec_dot(row, v) for row in res.quotient_projection)
        j = res.ray_map[i]
        if j is None:
            check(d.coeffs[i] == 0, "divisor is not a pullback")
            continue
        val = Fraction(d.coeffs[i]) / gcd(*img)
        check(coeffs[j] is None or coeffs[j] == val, "divisor is not a pullback")
        coeffs[j] = val
    return TorusDivisor(tuple(coeffs))


@dataclass(frozen=True)
class FlipResult:
    """A flip X -> X' with the common star subdivision X*.

    Rays of X' are identical (same table) to X; X* appends the new ray w*.
    """

    source: Fan
    target: Fan
    star: Fan
    new_ray: tuple
    exc_cone: Cone
    flipped_exc_cone: Cone
    contracted_class: tuple
    dstar_multiple: Fraction


def flip(fan: Fan, ray: ExtremalRay) -> FlipResult:
    """The flip of a small K-negative extremal contraction.

    Exchanges the two triangulations of the circuit spanned by the rays of
    the wall relation, subdividing at w* = primitive(sum over negative rays
    of -b_i v_i).  The construction is validated by the pullback identity
    Phi* F = Phi'* F' - (F·C0) D* on the common star subdivision X*, for
    every ray divisor F.
    """
    kind, _ = classify_contraction(fan, ray)
    if kind != FLIP:
        raise NotFlip(f"contraction kind is {kind}")
    rel = ray.curve.relation
    j_minus, j_plus = ray.j_minus, ray.j_plus
    wsum = tuple(
        sum(-rel[i] * fan.rays[i][r] for i in j_minus) for r in range(fan.rank)
    )
    wstar = primitive_part(wsum)
    g = gcd(*wsum)
    # D* = (kappa/g)·D_{w*}: the unique rational multiple of the new ray's
    # divisor making the pullback identity exact, where kappa normalizes
    # the wall relation against the actual curve class of the wall.
    kappa = rel[ray.curve.off_a] * ray.curve.beta_a
    # Replace each maximal cone containing the exceptional cone: such a cone
    # is (circuit minus one positive ray) plus link rays; the flipped fan
    # uses (circuit minus one negative ray) plus the same link.
    circuit = set(j_minus) | set(j_plus)
    region = [c for c in fan.max_cones if set(j_minus) <= set(c)]
    if not region:
        raise NotFlip("exceptional cone is not in the fan")
    links = {}
    for c in region:
        link = tuple(sorted(set(c) - circuit))
        links.setdefault(link, []).append(c)
    new_cones = [c for c in fan.max_cones if c not in region]
    for link, cones in links.items():
        expected = {
            tuple(sorted((circuit - {i}) | set(link))) for i in j_plus
        }
        if set(cones) != expected:
            raise NotFlip(
                "circuit is not fully triangulated around the exceptional cone"
            )
        for j in j_minus:
            new_cones.append(tuple(sorted((circuit - {j}) | set(link))))
    target = build_fan(fan.rank, fan.rays, new_cones)
    star_src, _ = star_subdivision(fan, wstar)
    star_tgt, _ = star_subdivision(target, wstar)
    if set(star_src.max_cones) != set(star_tgt.max_cones):
        raise IdentityFailure("X* is not a common star subdivision")
    res = FlipResult(
        source=fan,
        target=target,
        star=star_src,
        new_ray=wstar,
        exc_cone=j_minus,
        flipped_exc_cone=j_plus,
        contracted_class=rel,
        dstar_multiple=Fraction(kappa, g),
    )
    _check_flip_identity(res, ray)
    return res


def _check_flip_identity(res: FlipResult, ray: ExtremalRay):
    """Phi* F = Phi'* F' - (F·C0) D* for every ray divisor F.

    Both pullbacks agree on the old rays, so the identity reduces to the
    coefficient at w*: phi_F(w*) = phi'_F(w*) - (F·C0)·dstar_multiple.
    """
    for i in range(len(res.source.rays)):
        f = ray_divisor(res.source, i)
        phi_src = support_function(res.source, f)(res.new_ray)
        phi_tgt = support_function(res.target, f)(res.new_ray)
        deg = intersect(res.source, f, ray.curve)
        if phi_src != phi_tgt - deg * res.dstar_multiple:
            raise IdentityFailure(
                f"pullback identity fails for ray divisor {i}: "
                f"{phi_src} != {phi_tgt} - {deg}·{res.dstar_multiple}"
            )


def step_a(fan: Fan, d: TorusDivisor):
    """The a-value: a = min over K-negative extremal rays of D·C / (-K·C).

    Returns (a, chosen ExtremalRay); D + aK is nef and kills the chosen
    ray.  Ties broken by the deterministic extremal-ray order.
    """
    rays = [r for r in mori_extremal_rays(fan) if r.is_k_negative]
    if not rays:
        raise NoKNegativeRay("no K-negative extremal ray")
    best = None
    chosen = None
    for r in rays:
        val = intersect(fan, d, r.curve) / (-r.k_degree)
        if best is None or val < best:
            best, chosen = val, r
    k = canonical_divisor(fan)
    shifted = d + best * k
    check(
        intersect(fan, shifted, chosen.curve) == 0,
        "D + aK must kill the chosen ray",
    )
    check(is_nef(fan, shifted), "D + aK must stay nef")
    return best, chosen


@dataclass(frozen=True)
class MmpStepRecord:
    """One elementary MMP step.

    a: the a-value; ray: the contracted extremal ray, whose circuit gives
    the step's kind in {MoriFiber, Divisorial, Flip} and its exc_cone;
    divisor: D on the source; shifted = D + aK; result: ContractionResult or
    FlipResult (None when the step is terminal because P lies in the
    exceptional locus and the chain stops here); p_orbit: P's orbit cone on
    the source; p_in_exc: whether the chain terminates at this step.
    """

    a: Fraction
    ray: ExtremalRay
    fan: Fan
    divisor: TorusDivisor
    shifted: TorusDivisor
    p_orbit: Cone
    p_in_exc: bool
    result: object = None

    @property
    def kind(self) -> str:
        return self.ray.kind

    @property
    def exc_cone(self) -> Cone:
        return self.ray.j_minus


@dataclass(frozen=True)
class MmpChain:
    """The sequence of elementary MMP steps of the a-value runner.

    canonically_bounded is propagated metadata: carried across every step
    where P avoids the exceptional locus; never verified arithmetically.
    """

    steps: tuple
    canonically_bounded: bool

    @property
    def terminal_step(self) -> MmpStepRecord:
        return self.steps[-1]


def orbit_in_exc(p_orbit: Cone, exc_cone: Cone) -> bool:
    """P in exc(psi) iff the orbit closure of P lies in V(exc cone),
    i.e. the exceptional cone is a face of P's orbit cone.  The zero
    exceptional cone (Mori fiber step) contains every P."""
    return set(exc_cone) <= set(p_orbit)


def run_mmp_chain(
    fan: Fan,
    d: TorusDivisor,
    p_orbit: Sequence = (),
    canonically_bounded: bool = False,
    max_steps: Optional[int] = None,
) -> MmpChain:
    """Iterate a-value steps until P enters an exceptional locus.

    Each step computes a = min D·C/(-K·C) and either stops (P in exc) or
    performs the contraction/flip, pushing D + aK forward and transporting
    P's orbit cone (the identity on ray sets away from exc).  The chosen ray
    is a K-negative member of mori_extremal_rays, so it is extremal by
    construction: its kind is read off its circuit, and only contract/flip
    classify it, as their entry check.
    """
    p_orbit = fan.require_cone(p_orbit)
    check(is_nef(fan, d), "the MMP runner needs a nef divisor")
    budget = max_steps if max_steps is not None else 10 * len(fan.rays)
    steps = []
    cur_fan, cur_d, cur_p = fan, d, p_orbit
    for _ in range(budget):
        a, ray = step_a(cur_fan, cur_d)
        shifted = cur_d + a * canonical_divisor(cur_fan)
        p_in_exc = orbit_in_exc(cur_p, ray.j_minus)
        res = None
        if not p_in_exc:
            res = (flip if ray.kind == FLIP else contract)(cur_fan, ray)
        steps.append(
            MmpStepRecord(a, ray, cur_fan, cur_d, shifted, cur_p, p_in_exc, res)
        )
        if p_in_exc:
            return MmpChain(tuple(steps), canonically_bounded)
        if ray.kind == FLIP:
            if not res.target.has_cone(cur_p):
                raise OrbitInExc(
                    f"orbit cone {cur_p} does not survive the flip"
                )
            cur_fan, cur_d = res.target, shifted
        else:
            cur_fan = res.target
            cur_d = push_divisor(res, shifted)
            cur_p = tuple(sorted(res.ray_map[i] for i in cur_p))
    raise NonTermination(f"no terminal step within {budget} steps")


def picard_rank(fan: Fan) -> int:
    return len(fan.rays) - fan.rank
