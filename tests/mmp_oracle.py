"""Reference Mori-cone routines: the whole cone for every classification,
and each elementary step's fan by its own algorithm.

`mori_extremal_rays` and `classify_contraction` are the routines that
`toricapprox.mmp` used before a classification tested only its own ray:
the first runs one exact feasibility LP per wall class, and the second
rebuilds that whole list of extremal rays only to look its ray up in it.

`contract` and `flip_cones` build a step's target without the circuit
exchange that `toricapprox.mmp` shares between all three step kinds.  They
merge the maximal cones across every wall whose curve lies in the
contracted class (union-find, over a rescan of `wall_curves`): a
divisorial contraction drops the collapsed ray from each merged group, a
flip re-triangulates each group by dropping one ray of J- at a time, and
a Mori fiber base keeps the images of maximal cones of full rank.  These
were `toricapprox.mmp`'s own routines for divisorial and Mori fiber steps.

All of them are the differential oracle for `toricapprox.mmp` in
tests/test_mmp.py.
"""

from __future__ import annotations

from toricapprox.divisor import canonical_divisor, intersect, wall_curves
from toricapprox.fan import Fan, build_fan
from toricapprox.lattice import _quotient_by_span, primitive_part
from toricapprox.linalg import nonneg_combination
from toricapprox.mmp import (
    DIVISORIAL,
    FLIP,
    MORI_FIBER,
    ExtremalRay,
    NotExtremal,
)


def mori_extremal_rays(fan: Fan) -> tuple:
    """Extreme rays of the cone spanned by all wall curve classes.

    The numerical class of a wall curve is its ray relation.  A class is
    extremal iff it is not a non-negative combination of the other classes
    (exact rational feasibility test).
    """
    curves = wall_curves(fan)
    k = canonical_divisor(fan)
    by_class = {}
    for c in curves:
        by_class.setdefault(primitive_part(c.relation), c)
    classes = list(by_class)
    out = []
    for cls in classes:
        others = [c for c in classes if c != cls]
        if others and nonneg_combination(others, cls) is not None:
            continue
        c = by_class[cls]
        out.append(ExtremalRay(c, intersect(fan, k, c)))
    return tuple(out)


def classify_contraction(fan: Fan, ray: ExtremalRay):
    """(kind, exc_cone) of the elementary contraction of a K-negative ray.

    MoriFiber when no relation coefficient is negative (the contraction
    drops dimension and the exceptional locus is all of X, exc_cone = 0);
    Divisorial when exactly one is; Flip otherwise.  exc_cone is spanned by
    the rays with negative coefficient.
    """
    if not ray.is_k_negative:
        raise NotExtremal("contraction classification needs a K-negative ray")
    rays = mori_extremal_rays(fan)
    if primitive_part(ray.curve.relation) not in {
        primitive_part(r.curve.relation) for r in rays
    }:
        raise NotExtremal(f"{ray.curve.relation} is not an extremal class")
    exc = tuple(sorted(ray.j_minus))
    if len(exc) == 0:
        return MORI_FIBER, exc
    if len(exc) == 1:
        return DIVISORIAL, exc
    return FLIP, exc


def contracted_groups(fan: Fan, ray: ExtremalRay) -> list:
    """The ray sets of the maximal cones merged across the walls whose curve
    lies in ray's class, in order of each group's first cone."""
    cls = primitive_part(ray.curve.relation)
    parent = {c: c for c in fan.max_cones}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for w in wall_curves(fan):
        if primitive_part(w.relation) == cls:
            a, b = find(w.cone_a), find(w.cone_b)
            if a != b:
                parent[a] = b
    groups = {}
    for c in fan.max_cones:
        groups.setdefault(find(c), set()).update(c)
    return list(groups.values())


def contract(fan: Fan, ray: ExtremalRay):
    """(target, ray_map) of a divisorial or Mori fiber step."""
    if len(ray.j_minus) == 1:
        e = ray.j_minus[0]
        ray_map = []
        j = 0
        for i in range(len(fan.rays)):
            ray_map.append(None if i == e else j)
            j += 0 if i == e else 1
        new_cones = {
            tuple(sorted(ray_map[i] for i in members - {e}))
            for members in contracted_groups(fan, ray)
        }
        new_rays = [v for i, v in enumerate(fan.rays) if i != e]
        return build_fan(fan.rank, new_rays, sorted(new_cones)), tuple(ray_map)
    assert not ray.j_minus, "a flip has no contraction target here"
    quot = _quotient_by_span([fan.rays[i] for i in ray.j_plus], fan.rank)
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
        return build_fan(0, (), ((),)), tuple(ray_map)
    new_cones = set()
    for c in fan.max_cones:
        imgs = tuple(sorted({ray_map[i] for i in c if ray_map[i] is not None}))
        if len(imgs) == quot.rank:
            new_cones.add(imgs)
    return build_fan(quot.rank, new_rays, sorted(new_cones)), tuple(ray_map)


def flip_cones(fan: Fan, ray: ExtremalRay) -> set:
    """The maximal cones of the flipped fan, on fan's ray table."""
    j_minus = set(ray.j_minus)
    out = set()
    for members in contracted_groups(fan, ray):
        if j_minus <= members:
            out.update(tuple(sorted(members - {j})) for j in j_minus)
        else:
            out.add(tuple(sorted(members)))
    return out
