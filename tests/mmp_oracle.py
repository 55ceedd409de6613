"""Reference Mori-cone routines: the whole cone for every classification.

`mori_extremal_rays` and `classify_contraction` are the routines that
`toricapprox.mmp` used before a classification tested only its own ray:
the first runs one exact feasibility LP per wall class, and the second
rebuilds that whole list of extremal rays only to look its ray up in it.
They are the differential oracle for `toricapprox.mmp` in
tests/test_mmp.py.
"""

from __future__ import annotations

from toricapprox.divisor import canonical_divisor, intersect, wall_curves
from toricapprox.fan import Fan
from toricapprox.lattice import primitive_part
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
        out.append(
            ExtremalRay(c, c.negative_rays, intersect(fan, k, c))
        )
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
