"""The per-cone functional route to a support function's values.

`support_value_by_functionals` is how `SupportFunction.__call__` and
`one_ps_degree` evaluated phi_D at a point before `divisor.support_value`
read it off the point's barycentric coordinates: build the functional
u_sigma of every maximal cone (`support_function`) and pair the one of the
cone containing the point with it.  `one_ps_degree_by_functionals` is the
former `one_ps_degree` on that route.  Both are the differential oracle
for `toricapprox.divisor` in tests/test_divisor.py.
"""

from __future__ import annotations

from fractions import Fraction

from toricapprox.divisor import (
    DivisorError,
    restrict_to_orbit_closure,
    support_function,
)
from toricapprox.lattice import primitive_part
from toricapprox.linalg import vec_dot


def support_value_by_functionals(fan, d, point) -> Fraction:
    found = fan.cone_containing(point)
    if found is None:
        raise DivisorError(f"{point} is outside the fan support")
    return Fraction(vec_dot(support_function(fan, d).functionals[found[0]], point))


def one_ps_degree_by_functionals(fan, d, c) -> Fraction:
    w = primitive_part(c.w)
    if c.tau:
        star, d = restrict_to_orbit_closure(fan, d, c.tau)
        fan = star.fan
    return sum(
        support_value_by_functionals(fan, d, p) for p in (w, tuple(-x for x in w))
    )
