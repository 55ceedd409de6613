"""Reference tangent data at [1:...:1], computed with sympy.

`mult_and_tangent_at_one` and `_squarefree_part` are the sympy routines
that `toricapprox.casestudy` used before its exact polynomial kernel:
symbolic expansion and substitution, a multivariate gcd of the tangent
form with its partial derivatives, `sympy.sqrt`, `sympy.factorint` and
`Poly.ground_roots`.  They are the differential oracle for the kernel in
tests/test_casestudy.py.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from toricapprox.casestudy import (
    NonVanishing,
    TangentReport,
    UnsupportedBranchType,
    WeightedForm,
)


def _squarefree_part(n: int) -> int:
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    for p, k in sympy.factorint(n).items():
        if k % 2:
            out *= p
    return sign * out


def mult_and_tangent_at_one(f: WeightedForm) -> TangentReport:
    """Multiplicity and tangent form of {f = 0} at the point [1:...:1].

    Computed on the affine cone: shift to (1,...,1) and restrict to the
    slice transverse to the Euler direction (q_0,...,q_n) — the cone's
    one-parameter-orbit direction, tangent to the hypersurface — by
    eliminating the first shifted variable.  The lowest-degree form of the
    restriction is the tangent cone of the curve germ.
    """
    if f.value_at_one() != 0:
        raise NonVanishing("the form does not vanish at [1:...:1]")
    n = len(f.weights)
    us = sympy.symbols(f"u0:{n}")
    xs = [1 + u for u in us]
    shifted = sympy.expand(
        sympy.Add(
            *(
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(x**k for x, k in zip(xs, e)))
                for e, c in f.monomials
            )
        )
    )
    # Eliminate u0 along the Euler direction: u0 = -(q_1 u_1 + ...)/q_0.
    sub = -sympy.Add(
        *(sympy.Rational(f.weights[i], f.weights[0]) * us[i] for i in range(1, n))
    )
    g = sympy.expand(shifted.subs(us[0], sub))
    gp = sympy.Poly(g, *us[1:])
    if gp.is_zero:
        raise UnsupportedBranchType(
            "the form vanishes identically on the transverse slice"
        )
    m = min(sum(mon) for mon in gp.monoms())
    lowest = sympy.Add(
        *(
            coef * sympy.Mul(*(s**k for s, k in zip(us[1:], mon)))
            for mon, coef in zip(gp.monoms(), gp.coeffs())
            if sum(mon) == m
        )
    )
    if n != 3:
        return TangentReport(m, (), None, m == 1, True)
    s, t = us[1], us[2]
    low = sympy.Poly(lowest, s, t)
    coeffs = tuple(
        Fraction(int(sympy.numer(low.coeff_monomial(s ** (m - i) * t**i))),
                 int(sympy.denom(low.coeff_monomial(s ** (m - i) * t**i))))
        for i in range(m + 1)
    )
    if m == 1:
        return TangentReport(1, coeffs, None, True, True)
    grad_gcd = sympy.gcd(sympy.gcd(lowest, sympy.diff(lowest, s)),
                         sympy.diff(lowest, t))
    distinct = sympy.total_degree(grad_gcd) == 0
    if not distinct:
        raise UnsupportedBranchType(
            "repeated tangent directions: not an ordinary multiple point"
        )
    if m == 2:
        a, b, c = coeffs
        disc = b * b - 4 * a * c
        num = disc.numerator * disc.denominator  # same squarefree part
        root = sympy.sqrt(num)
        if root.is_integer:
            return TangentReport(2, coeffs, None, True, True)
        return TangentReport(2, coeffs, _squarefree_part(num), False, True)
    # m >= 3 with distinct tangents: rationality decided by rational roots.
    poly1 = sympy.Poly(lowest.subs(t, 1), s)
    nroots = len(poly1.ground_roots())
    all_rational = nroots + (1 if coeffs[0] == 0 else 0) == m
    return TangentReport(m, coeffs, None, all_rational, True)
