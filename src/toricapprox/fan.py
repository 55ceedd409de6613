"""Complete simplicial rational fans.

Validation, cone multiplicities, terminality, star fans (orbit closures),
star subdivisions, and recognition of fake weighted projective spaces.

A cone is a sorted tuple of ray indices into the fan's ray table.  Fans are
immutable after construction; every query is a pure function.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache, wraps
from itertools import combinations, product
from math import gcd, prod
from operator import ge, mul
from typing import Sequence

from toricapprox.invariant import check
from toricapprox.lattice import (
    primitive_part,
    quotient_lattice,
    smith_normal_form,
    sublattice_index,
)
from toricapprox.linalg import det_adjugate, mat_vec

Cone = tuple


class FanError(ValueError):
    pass


class NotSimplicial(FanError):
    pass


class NotComplete(FanError):
    pass


class NotAFan(FanError):
    pass


class BadWeights(FanError):
    pass


class ConeNotInFan(FanError):
    pass


class RayNotInSupport(FanError):
    pass


class RayAlreadyPresent(FanError):
    pass


class NotFwps(FanError):
    pass


class Fan(namedtuple("Fan", "rank rays max_cones walls")):
    """A complete simplicial rational fan on Z^rank.

    rays: tuple of primitive integer vectors; max_cones: tuple of sorted
    ray-index tuples, each of length rank; walls: tuple of
    (wall_rays, cone_a, cone_b) with cone_a < cone_b, lexicographic order.

    Unlike the other records, a Fan has an instance __dict__: it holds the
    values derived from the fan (`cached_property`, `per_fan`).  Attribute
    assignment is refused, so the fan stays immutable.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to Fan.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete Fan.{name}")

    def __dir__(self):  # without per_fan's tuple keys, which dir() cannot sort
        return [k for k in super().__dir__() if type(k) is str]

    def ray_matrix(self, cone: Cone) -> tuple:
        """Matrix whose columns are the cone's ray generators."""
        return tuple(
            tuple(self.rays[i][r] for i in cone) for r in range(self.rank)
        )

    @cached_property
    def cone_inverses(self) -> tuple:
        """Per maximal cone, D = |det M| then R = D·M^-1 row-major, for M
        the cone's ray matrix: <R_i, v_j> = D·delta_ij.  One flat int tuple
        keeps interned fans small; build_fan fills it."""
        return tuple(
            x for c in self.max_cones for x in _cone_inverse(self.rays, c)
        )

    def cone_inverse(self, k: int) -> tuple:
        """(D, R) of the k-th maximal cone; R is flat row-major."""
        w = self.rank * self.rank + 1
        table = self.cone_inverses
        return table[k * w], table[k * w + 1:(k + 1) * w]

    def scaled_coefficients(self, k: int, point: Sequence):
        """(D, R·point) for the k-th maximal cone: point is the sum of
        (R·point)_i / D times the cone's i-th ray."""
        d, adj = self.cone_inverse(k)
        n = self.rank
        return d, [
            sum(map(mul, adj[s:s + n], point)) for s in range(0, n * n, n)
        ]

    def contains(self, k: int, point: Sequence):
        """`scaled_coefficients(k, point)` if the k-th maximal cone contains
        the point, else None."""
        scaled = self.scaled_coefficients(k, point)
        return scaled if all(x >= 0 for x in scaled[1]) else None

    def cone_containing(self, point: Sequence):
        """(k, D, R·point) for the first maximal cone, in stored order, that
        contains the point; None if there is none."""
        for k in range(len(self.max_cones)):
            scaled = self.contains(k, point)
            if scaled is not None:
                return (k,) + scaled
        return None

    def has_cone(self, cone: Cone) -> bool:
        """Whether the sorted index tuple is a face of some maximal cone."""
        s = set(cone)
        return any(s <= set(c) for c in self.max_cones)

    def require_cone(self, cone: Sequence) -> Cone:
        """The cone as a sorted index tuple (a strictly increasing tuple
        is returned as is); ConeNotInFan if it is none or repeats an index."""
        if type(cone) is not tuple or any(map(ge, cone, cone[1:])):
            cone = tuple(sorted(cone))
        if any(map(ge, cone, cone[1:])) or not self.has_cone(cone):
            raise ConeNotInFan(f"{cone} is not a cone of the fan")
        return cone


def _cone_inverse(rays, cone) -> tuple:
    """(D, R flat) with D = |det M| and R = D·M^-1 for the cone's ray matrix
    M; D = 0 when the rays are dependent."""
    d, adj = det_adjugate(
        [[rays[i][r] for i in cone] for r in range(len(cone))]
    )
    if d == 0:
        return (0,)
    s = 1 if d > 0 else -1
    return (s * d,) + tuple(s * x for row in adj for x in row)


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_MISSING = object()
_IDENTITY_QUOTIENTS = {}  # rank -> the QuotientMap of every zero-cone star


def per_fan(fn):
    """Memoize fn(fan, *args) on the fan itself.

    Each value sits in the fan's own __dict__ under (slot,) + args.  Values
    pointing back at the fan (support functions, fwps data, the zero-cone
    star) make a cycle: an evicted fan is freed by the cyclic collector.
    `cache_info()` reads like `lru_cache`'s; its currsize is the number of
    values made, over all fans, not the number still alive.
    """
    slot = f"{fn.__module__}.{fn.__qualname__}"
    counts = [0, 0, 0]  # hits, misses, values made

    @wraps(fn)
    def memo(fan, *args):
        key = (slot,) + args
        value = fan.__dict__.get(key, _MISSING)
        if value is _MISSING:
            counts[1] += 1
            value = fan.__dict__[key] = fn(fan, *args)
            counts[2] += 1
        else:
            counts[0] += 1
        return value

    memo.cache_info = lambda: _CacheInfo(counts[0], counts[1], None, counts[2])
    return memo


def build_fan(rank: int, rays: Sequence, max_cones: Sequence) -> Fan:
    """Validate and construct a complete simplicial fan.

    Ray vectors are replaced by their primitive parts.  Rejects
    non-simplicial cones (NotSimplicial), missing support (NotComplete),
    and overlapping or face-incompatible cones (NotAFan).

    Fans are interned: equal input, as lists or tuples, returns the same Fan
    while it is among the last 512 inputs, so values memoized on a fan
    (`per_fan`) are shared.  Only a miss validates; bad input always raises.

    Validation is the pseudomanifold-plus-one-point certificate for
    triangulations (De Loera, Rambau and Santos, *Triangulations*, 2010,
    ch. 4), applied to the cross-section of the fan on the unit sphere:

    1. every wall ((rank-1)-face of a maximal cone) lies on exactly two
       maximal cones (else NotComplete or NotAFan);
    2. the two off-wall rays lie strictly on opposite sides of the wall's
       hyperplane (else NotAFan);
    3. one generic point of the first cone, on no facet hyperplane of any
       cone, lies in exactly one maximal cone (else NotAFan).

    Sketch.  Let f(x) count the maximal cones containing a point x on no
    facet hyperplane.  On a path avoiding the (rank-2)-faces (codimension 2
    on the sphere) every facet crossed is a wall whose other cone lies
    across it (1, 2), so one cone is entered for each one left and f stays
    constant; by 3, f = 1: the cones cover the space and their interiors
    are disjoint.  The cones around a (rank-2)-face form cycles winding
    about it (1, 2), and local degree 1 leaves one cycle winding once; by
    induction down the face dimensions the abstract complex maps to the
    sphere by a covering of degree 1, a homeomorphism, so any two cones meet
    in the cone over their common rays.  Every complete simplicial fan
    passes 1-3.  All three are sign tests against the cones' integer
    inverses (`Fan.cone_inverses`), one fraction-free elimination per cone.
    """
    return _build_fan(rank, tuple(map(tuple, rays)), tuple(map(tuple, max_cones)))


@lru_cache(maxsize=512)
def _build_fan(rank: int, rays: tuple, max_cones: tuple) -> Fan:
    if rank < 0:
        raise NotAFan(f"negative rank {rank}")
    if any(len(v) != rank for v in rays):
        raise NotAFan(f"a ray does not have {rank} coordinates")
    if rank == 0:
        return Fan(0, (), ((),), ())
    prim = tuple(primitive_part(v) for v in rays)
    if len(set(prim)) != len(prim):
        raise NotAFan("duplicate rays")
    cones = tuple(c if all(map(ge, c[1:], c)) else tuple(sorted(c)) for c in max_cones)
    if len(set(cones)) != len(cones):
        raise NotAFan("duplicate maximal cones")
    table = []
    for c in cones:
        if len(c) != rank:
            raise NotSimplicial(
                f"maximal cone {c} does not have {rank} rays"
            )
        if any(i < 0 or i >= len(prim) for i in c):
            raise NotAFan(f"cone {c} references a missing ray")
        inverse = _cone_inverse(prim, c)
        if inverse[0] == 0:
            raise NotSimplicial(f"rays of cone {c} are dependent")
        table.extend(inverse)
    used = {i for c in cones for i in c}
    if used != set(range(len(prim))):
        raise NotAFan("unused rays in ray table")

    # 1. Every wall lies on exactly two maximal cones.
    incidence = {}
    for c in cones:
        for w in combinations(c, rank - 1):
            incidence.setdefault(w, []).append(c)
    walls = []
    for w in sorted(incidence):
        owners = incidence[w]
        if len(owners) == 1:
            raise NotComplete(f"wall {w} lies on only one maximal cone")
        if len(owners) > 2:
            raise NotAFan(f"wall {w} lies on {len(owners)} maximal cones")
        a, b = sorted(owners)
        walls.append((w, a, b))

    # normals[k·rank + p]: row p of cone k's inverse, the normal of the
    # facet opposite the cone's p-th ray, positive on that ray.
    width = rank * rank + 1
    normals = [
        table[k * width + 1 + p * rank:k * width + 1 + (p + 1) * rank]
        for k in range(len(cones)) for p in range(rank)
    ]
    index = {c: k for k, c in enumerate(cones)}

    # 2. The off-wall rays lie strictly on opposite sides of the wall.
    for w, a, b in walls:
        pos = next(p for p, i in enumerate(a) if i not in w)
        off_b = next(i for i in b if i not in w)
        if sum(map(mul, normals[index[a] * rank + pos], prim[off_b])) >= 0:
            raise NotAFan(
                f"cones {a} and {b} lie on the same side of wall {w}"
            )

    # 3. A generic point of the first cone lies in exactly one cone.  The
    # point sum t^j v_j is off a hyperplane for all but rank-1 values of t.
    t = 1
    while True:
        t += 1
        point = [
            sum(t ** j * prim[i][r] for j, i in enumerate(cones[0]))
            for r in range(rank)
        ]
        signs = [sum(map(mul, row, point)) for row in normals]
        if all(signs):
            break
    covering = sum(
        all(x > 0 for x in signs[k * rank:(k + 1) * rank])
        for k in range(len(cones))
    )
    if covering != 1:
        raise NotAFan(
            f"a generic point of cone {cones[0]} lies in {covering} "
            "maximal cones"
        )

    fan = Fan(rank, prim, cones, tuple(walls))
    fan.__dict__["cone_inverses"] = tuple(table)
    return fan


def wps_fan(weights: Sequence[int]) -> Fan:
    """Fan of the weighted projective space P(q_0, ..., q_n).

    Built as the image of the standard basis of Z^(n+1) under the quotient
    by Z·q, canonicalized via Smith normal form so identical weights always
    give the identical fan.  Requires positive well-formed weights: every
    n-subset coprime (otherwise some ray image fails to be primitive and
    the defining relation breaks).
    """
    q = tuple(int(w) for w in weights)
    n = len(q) - 1
    if n < 1 or any(w <= 0 for w in q):
        raise BadWeights(f"weights must be positive, got {q}")
    if gcd(*q) != 1:
        raise BadWeights(f"weights {q} are not coprime")
    for i in range(n + 1):
        rest = q[:i] + q[i + 1:]
        if gcd(*rest) != 1:
            raise BadWeights(
                f"weights {q} are not well-formed (subset {rest} shares a factor)"
            )
    quot = quotient_lattice([q], n + 1)
    rays = list(zip(*quot.projection))  # the images of the basis vectors
    cones = list(combinations(range(n + 1), n))
    fan = build_fan(n, rays, cones)
    check(
        all(sum(map(mul, q, col)) == 0 for col in zip(*fan.rays)),
        "the rays must satisfy the weight relation",
    )
    return fan


@per_fan
def cone_multiplicity(fan: Fan, cone: Cone) -> int:
    """Index of the cone's ray lattice inside the saturation of its span.

    Equals 1 exactly when the corresponding chart is smooth.
    """
    cone = fan.require_cone(cone)
    if not cone:
        return 1
    diag = smith_normal_form([fan.rays[i] for i in cone])[0]
    return prod(d for d in diag if d != 0)


def _has_interior_points(fan: Fan, k: int) -> bool:
    """Whether the k-th maximal cone's simplex conv({0} union rays) holds a
    lattice point besides 0 and the rays.

    In rank <= 2 that is d > 1: a cone 1/r(1, a) with r > 1 holds the point
    (1/r, a/r).  Otherwise enumerates N / (ray lattice) via Smith normal
    form.  A class x = u^-1·y has barycentric coordinates adj·x / d; it is
    such a point iff their fractional parts, the residues of adj·x mod d
    over d, are not all zero and sum to at most 1.
    """
    n = fan.rank
    d, adj = fan.cone_inverse(k)
    if d == 1 or n <= 2:
        return d > 1
    diag, _, _, uinv = smith_normal_form(fan.ray_matrix(fan.max_cones[k]))
    rows = [adj[i * n:(i + 1) * n] for i in range(n)]
    for y in product(*(range(e) for e in diag)):
        x = mat_vec(uinv, y)
        t = [sum(map(mul, row, x)) % d for row in rows]
        if any(t) and sum(t) <= d:
            return True
    return False


@per_fan
def is_terminal(fan: Fan):
    """Terminality of the toric variety: no lattice points in any maximal
    cone's simplex conv({0} union rays) beyond 0 and the rays.

    Returns (bool, tuple of offending maximal cones).
    """
    bad = tuple(
        c for k, c in enumerate(fan.max_cones) if _has_interior_points(fan, k)
    )
    return (not bad, bad)


class StarFanResult(namedtuple("StarFanResult", "fan tau quotient ray_map b")):
    """The fan of a torus-orbit closure V(tau) with transport bookkeeping.

    fan: the quotient fan; tau: the cone quotiented out; quotient: the
    lattice projection (QuotientMap); ray_map, b: tuples indexed by original
    ray i (as `ContractionResult.ray_map`): the quotient ray index of star
    ray i, and the positive b_i with image(v_i) = b_i * new ray; None and 0
    off the star (on tau and on rays of no cone containing tau).
    """

    __slots__ = ()


@per_fan
def star_fan(fan: Fan, tau: Cone) -> StarFanResult:
    """Fan of the orbit closure V(tau): quotient the star of tau by span(tau)."""
    tau = fan.require_cone(tau)
    if not tau:
        quot = _IDENTITY_QUOTIENTS.setdefault(fan.rank, quotient_lattice([], fan.rank))
        ray_map = tuple(range(len(fan.rays)))
        return StarFanResult(fan, (), quot, ray_map, (1,) * len(ray_map))
    quot = quotient_lattice([fan.rays[i] for i in tau], fan.rank)
    star_cones = [c for c in fan.max_cones if set(tau) <= set(c)]
    star_rays = sorted({i for c in star_cones for i in c} - set(tau))
    ray_map = [None] * len(fan.rays)
    b = [0] * len(fan.rays)
    new_rays = []
    for i in star_rays:
        img = quot.apply(fan.rays[i])
        b[i] = gcd(*img)
        ray_map[i] = len(new_rays)
        new_rays.append(primitive_part(img))
    new_cones = [
        tuple(sorted(ray_map[i] for i in c if i not in tau)) for c in star_cones
    ]
    qfan = build_fan(fan.rank - len(tau), new_rays, new_cones)
    return StarFanResult(qfan, tau, quot, tuple(ray_map), tuple(b))


def _ray_sources(ray_map) -> dict:
    """Target -> source ray index of a ray-map tuple (None: no image)."""
    return {j: i for i, j in enumerate(ray_map) if j is not None}


def star_subdivision(fan: Fan, new_ray: Sequence[int]):
    """Subdivide every cone containing new_ray at that ray.

    Returns (Fan, replaced) where replaced maps each subdivided maximal cone
    to the tuple of cones replacing it (indices in the new fan's ray table,
    which is the old table with new_ray appended).
    """
    v = primitive_part(new_ray)
    if v in fan.rays:
        raise RayAlreadyPresent(f"{v} is already a ray of the fan")
    new_index = len(fan.rays)
    replaced = {}
    new_cones = []
    for k, c in enumerate(fan.max_cones):
        _, lam = fan.scaled_coefficients(k, v)
        if min(lam) < 0:
            new_cones.append(c)
            continue
        pieces = []
        for pos, i in enumerate(c):
            if lam[pos] > 0:
                pieces.append(
                    tuple(sorted([j for j in c if j != i] + [new_index]))
                )
        replaced[c] = tuple(pieces)
        new_cones.extend(pieces)
    if not replaced:
        raise RayNotInSupport(f"{v} lies outside the fan's support")
    out = build_fan(fan.rank, fan.rays + (v,), new_cones)
    return out, replaced


class FwpsData(namedtuple(
    "FwpsData",
    "fan weights cover_index cover_fan cover_to_ambient group_factors",
)):
    """A fake weighted projective space: fan with rank+1 rays.

    weights: the unique positive coprime relation sum a_i v_i = 0, in ray
    order; cover_index: index of the ray-generated sublattice N' in N;
    cover_fan: the same rays in coordinates on N' (a genuine weighted
    projective space fan); cover_to_ambient: the integer matrix whose
    columns are the basis of N' those coordinates refer to; group_factors:
    invariant factors of N/N' (the covering group).  Classes in N/N' are
    read off the inverse of the cone of the first rank rays
    (`Fan.cone_inverse`).
    """

    __slots__ = ()


def _sublattice_fan(fan: Fan, gens: Sequence) -> tuple:
    """The fan's rays rewritten in a basis of the lattice L = <gens>.

    One Smith form u·G·v = diag, G with the generators as columns: L has
    the basis B = u^-1·diag (columns), and a ray v has coordinates
    (u·v)_j / diag_j.  Returns (the fan on L, B, diag).  The rays must lie
    in L, and are primitive there as they are in N.
    """
    n = fan.rank
    diag, u, _, uinv = smith_normal_form(tuple(zip(*gens)))
    basis = tuple(
        tuple(uinv[r][j] * diag[j] for j in range(n)) for r in range(n)
    )
    rays = []
    for v in fan.rays:
        coords = [divmod(x, d) for x, d in zip(mat_vec(u, v), diag)]
        check(not any(r for _, r in coords), "every ray must lie in L")
        rays.append(tuple(q for q, _ in coords))
    sub = build_fan(n, rays, fan.max_cones)
    check(sub.rays == tuple(rays), "the rays must already be primitive in L")
    return sub, basis, diag


@per_fan
def recognize_fwps(fan: Fan) -> FwpsData:
    """Decide whether the fan is a fake weighted projective space.

    Succeeds iff the fan is complete simplicial (guaranteed at build) with
    exactly rank+1 rays; returns the weights, the covering index, and the
    universal cover fan on the sublattice generated by the rays.  With
    (D, R) the inverse of the cone of the first rank rays, the relation is
    D·v_n = sum (R·v_n)_i v_i, so the weights are (-R·v_n, D) made
    primitive.
    """
    n = fan.rank
    if len(fan.rays) != n + 1:
        raise NotFwps(
            f"fan has {len(fan.rays)} rays, a rank-{n} fwps needs {n + 1}"
        )
    # n+1 rays of a complete fan: every n of them span a maximal cone.
    k = fan.max_cones.index(tuple(range(n)))
    det, lam = fan.scaled_coefficients(k, fan.rays[n])
    rel = primitive_part(tuple(-x for x in lam) + (det,))
    if not all(x > 0 for x in rel):
        raise NotFwps(f"ray relation {rel} is not positive")
    cover, cover_to_ambient, diag = _sublattice_fan(fan, fan.rays)
    check(
        sublattice_index(cover.rays, n) == 1,
        "the cover rays must generate the cover lattice",
    )
    return FwpsData(
        fan=fan,
        weights=rel,
        cover_index=prod(diag),
        cover_fan=cover,
        cover_to_ambient=cover_to_ambient,
        group_factors=tuple(d for d in diag if d > 1),
    )


def projective_space_fan(n: int) -> Fan:
    """The fan of P^n: standard basis rays plus their negative sum."""
    rays = [tuple(1 if r == i else 0 for r in range(n)) for i in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    return build_fan(n, rays, list(combinations(range(n + 1), n)))


def is_projective_space(fan: Fan) -> bool:
    """Lattice-isomorphic to P^n: n+1 rays, all weights 1, index 1."""
    if len(fan.rays) != fan.rank + 1:
        return False
    try:
        data = recognize_fwps(fan)
    except NotFwps:
        return False
    # Then any n of the rays span N' = N, so every chart is smooth.
    return data.cover_index == 1 and all(w == 1 for w in data.weights)

