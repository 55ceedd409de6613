"""Coordinate computations on weighted projective planes.

Weighted monomial bases, multiplicity and tangent data of curves at the
torus point [1:...:1], order-constrained section spaces, weighted
intersection pairings, a small search for low-alpha curves, and the full
audited report for the plane with weights (4, 7, 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod
from typing import Optional, Sequence

from toricapprox.approx import (
    INFINITY,
    ApproxError,
    ArithmeticContext,
    BranchData,
    alpha_rational_curve,
    theorem16_driver,
)
from toricapprox.divisor import TorusDivisor
from toricapprox.fan import wps_fan
from toricapprox.invariant import check
from toricapprox.linalg import clear_denominators, nullspace


class CaseStudyError(ValueError):
    pass


class NonVanishing(CaseStudyError):
    pass


class UnsupportedBranchType(CaseStudyError):
    pass


class DimensionError(CaseStudyError):
    pass


@dataclass(frozen=True)
class WeightedForm:
    """A weighted-homogeneous form: exponent vectors with exact coefficients.

    Every monomial e satisfies sum(q_i e_i) = degree; coefficients nonzero.
    """

    weights: tuple
    degree: int
    monomials: tuple  # tuple of (exponent tuple, Fraction)

    @staticmethod
    def of(weights: Sequence[int], entries) -> "WeightedForm":
        weights = tuple(int(q) for q in weights)
        monos = []
        degree = None
        items = entries.items() if isinstance(entries, dict) else entries
        for e, c in items:
            c = Fraction(c)
            if c == 0:
                continue
            e = tuple(int(x) for x in e)
            d = sum(q * x for q, x in zip(weights, e))
            if degree is None:
                degree = d
            elif d != degree:
                raise CaseStudyError(
                    f"monomial {e} has weighted degree {d}, expected {degree}"
                )
            monos.append((e, c))
        if degree is None:
            raise CaseStudyError("a form needs at least one monomial")
        return WeightedForm(weights, degree, tuple(monos))

    def value_at_one(self) -> Fraction:
        return sum(c for _, c in self.monomials)


@dataclass(frozen=True)
class TangentReport:
    """Multiplicity and tangent data of a curve at [1:...:1].

    tangent_form: coefficients (degree m down to 0 in the first slice
    variable) of the binary tangent form on the slice transverse to the
    Euler direction; splitting: squarefree integer d for the field
    Q(sqrt(d)) when m = 2 with irrational tangents, None otherwise;
    rational_tangents: all tangent directions rational; distinct: the
    tangent form is squarefree.
    """

    multiplicity: int
    tangent_form: tuple
    splitting: Optional[int]
    rational_tangents: bool
    distinct: bool


def monomial_basis(q: Sequence[int], d: int) -> tuple:
    """Exponent vectors of the weighted-degree-d monomials.

    Ordered by total degree descending, then lexicographically descending —
    the order in which degree-56 sections on weights (4,7,13) are
    conventionally written (x^14, x^9yz, x^7y^4, ...).
    """
    q = tuple(int(x) for x in q)
    out = []

    def rec(i, rem, prefix):
        if i == len(q) - 1:
            if rem % q[i] == 0:
                out.append(prefix + (rem // q[i],))
            return
        for e in range(rem // q[i] + 1):
            rec(i + 1, rem - e * q[i], prefix + (e,))

    if d >= 0:
        rec(0, d, ())
    out.sort(key=lambda e: (-sum(e),) + tuple(-x for x in e))
    return tuple(out)


def _factor(n: int) -> dict:
    """Prime factorization {p: k} of |n| >= 1 by trial division up to 10^6.

    A cofactor left above 10^12 could be composite, so it is refused
    rather than searched to its square root.
    """
    out, rest, d = {}, abs(n), 2
    while d * d <= rest and d <= 10**6:
        while rest % d == 0:
            out[d] = out.get(d, 0) + 1
            rest //= d
        d += 1 if d == 2 else 2
    if rest > 10**12:
        raise CaseStudyError(f"cannot factor {n}: a cofactor above 10^12 is left")
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out


def _squarefree_part(n: int) -> int:
    out = prod(p for p, k in _factor(n).items() if k % 2)
    return -out if n < 0 else out


def _divisors(n: int) -> list:
    out = [1]
    for p, k in _factor(n).items():
        out = [d * p**i for d in out for i in range(k + 1)]
    return out


def _mul(a: dict, b: dict) -> dict:
    """Product of two polynomials {exponent tuple: coefficient}."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def _strip(p: list) -> list:
    """A univariate polynomial (coefficients, leading first) without its
    leading zeros; [] is the zero polynomial."""
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def _is_squarefree(p: list) -> bool:
    """gcd(p, p') is constant, by Euclid's algorithm over Q."""
    a = p
    b = _strip([c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])])
    while b:
        r = list(a)
        while len(r) >= len(b):
            k = r[0] / b[0]
            r = _strip([x - k * y for x, y in zip(r, b + [0] * len(r))])
        a, b = b, r
    return len(a) == 1


def _rational_roots(p: list) -> int:
    """Number of distinct rational roots of p, with p(0) != 0: the
    candidates are ±r/s, r dividing p(0) and s the leading coefficient
    once denominators are cleared."""
    den = lcm(*(c.denominator for c in p))
    a = [int(c * den) for c in p]
    roots = {
        Fraction(sign * r, s)
        for r in _divisors(a[-1])
        for s in _divisors(a[0])
        for sign in (1, -1)
    }
    count = 0
    for x in roots:
        v = 0
        for c in a:
            v = v * x + c
        count += v == 0
    return count


def mult_and_tangent_at_one(f: WeightedForm) -> TangentReport:
    """Multiplicity and tangent form of {f = 0} at the point [1:...:1].

    Computed on the affine cone: shift to (1,...,1) and restrict to the
    slice transverse to the Euler direction (q_0,...,q_n) — the cone's
    one-parameter-orbit direction, tangent to the hypersurface — by
    eliminating the first shifted variable.  The lowest-degree form of the
    restriction is the tangent cone of the curve germ.  Exact arithmetic
    on polynomials {exponents of (u_1,...,u_n): Fraction}.
    """
    if f.value_at_one() != 0:
        raise NonVanishing("the form does not vanish at [1:...:1]")
    q = f.weights
    n = len(q)
    one = (0,) * (n - 1)
    unit = [tuple(int(i == j) for j in range(n - 1)) for i in range(n - 1)]
    # x_0 = 1 + u_0 with u_0 = -(q_1 u_1 + ...)/q_0; x_i = 1 + u_i.
    xs = [{one: Fraction(1)} | {u: Fraction(-w, q[0]) for u, w in zip(unit, q[1:])}]
    xs += [{one: Fraction(1), u: Fraction(1)} for u in unit]
    powers = [[{one: Fraction(1)}] for _ in range(n)]
    g = {}
    for e, c in f.monomials:
        term = {one: c}
        for i, k in enumerate(e):
            while len(powers[i]) <= k:
                powers[i].append(_mul(powers[i][-1], xs[i]))
            term = _mul(term, powers[i][k])
        for mono, a in term.items():
            g[mono] = g.get(mono, 0) + a
    g = {mono: a for mono, a in g.items() if a}
    if not g:
        raise UnsupportedBranchType(
            "the form vanishes identically on the transverse slice"
        )
    m = min(sum(mono) for mono in g)
    if n != 3:
        return TangentReport(m, (), None, m == 1, True)
    coeffs = tuple(Fraction(g.get((m - i, i), 0)) for i in range(m + 1))
    if m == 1:
        return TangentReport(1, coeffs, None, True, True)
    # The binary form is squarefree when t^2 does not divide it and its
    # dehomogenization p(s) = F(s, 1) is squarefree.
    p = _strip(list(coeffs))
    if coeffs[0] == coeffs[1] == 0 or not _is_squarefree(p):
        raise UnsupportedBranchType(
            "repeated tangent directions: not an ordinary multiple point"
        )
    if m == 2:
        a, b, c = coeffs
        disc = b * b - 4 * a * c
        num = disc.numerator * disc.denominator  # same squarefree part
        if num >= 0 and isqrt(num) ** 2 == num:
            return TangentReport(2, coeffs, None, True, True)
        return TangentReport(2, coeffs, _squarefree_part(num), False, True)
    # m >= 3 with distinct tangents: the tangent t = 0 when t divides the
    # form, and s = r t for each rational root r of p (r = 0 when s does).
    at_zero = p[-1] == 0
    nroots = (coeffs[0] == 0) + at_zero + _rational_roots(p[:-1] if at_zero else p)
    return TangentReport(m, coeffs, None, nroots == m, True)


def sections_vanishing_to_order(q: Sequence[int], d: int, s: int) -> tuple:
    """Basis of weighted-degree-d forms vanishing to order >= s at [1:...:1].

    Exact kernel of the jet map: all partial derivatives of order < s
    evaluated at (1,...,1).  Vectors are integral, primitive, with the
    first nonzero entry positive, in the monomial_basis order.
    """
    basis = monomial_basis(q, d)
    if not basis:
        return ()
    n = len(q)
    conds = []
    from itertools import product

    for beta in product(range(s), repeat=n):
        if sum(beta) >= s:
            continue
        row = []
        for e in basis:
            val = 1
            for ei, bi in zip(e, beta):
                for j in range(bi):
                    val *= ei - j
            row.append(Fraction(val))
        conds.append(tuple(row))
    if not conds:
        kern = tuple(
            tuple(Fraction(1 if i == j else 0) for i in range(len(basis)))
            for j in range(len(basis))
        )
    else:
        kern = nullspace(conds)
    out = []
    for v in kern:
        w = clear_denominators(v)
        lead = next(x for x in w if x != 0)
        if lead < 0:
            w = tuple(-x for x in w)
        out.append(w)
    return tuple(out)


def weighted_pairing(q: Sequence[int], a, b) -> Fraction:
    """Intersection of O(a) and O(b) on the weighted projective plane."""
    if len(q) != 3:
        raise DimensionError("the pairing is defined on planes only")
    if a < 0 or b < 0:
        raise CaseStudyError("degrees must be non-negative")
    return Fraction(a) * Fraction(b) / prod(q)


def blowup_selfintersection(q: Sequence[int], a, b) -> Fraction:
    """Self-intersection of a·pi*O(1) - b·E after blowing up a smooth point."""
    if len(q) != 3:
        raise DimensionError("defined on planes only")
    return Fraction(a) ** 2 / prod(q) - Fraction(b) ** 2


def _branches_for(report: TangentReport, context: ArithmeticContext):
    """Branch data of an ordinary multiple point from its tangent splitting.

    Returns (BranchData, note).  None when the arithmetic cannot be decided
    from the declared context.
    """
    m = report.multiplicity
    if m == 1:
        return BranchData.of([(1, 1)]), "unibranch rational point"
    if report.rational_tangents:
        return (
            BranchData.of([(1, 1)] * m),
            f"{m} rational branches",
        )
    if m == 2 and report.splitting is not None:
        try:
            in_k, in_kv = context.lookup(report.splitting)
        except ApproxError:
            return None, f"field Q(sqrt({report.splitting})) not declared"
        if in_k:
            return BranchData.of([(1, 1), (1, 1)]), "branch points rational in k"
        if in_kv:
            return (
                BranchData.of([(1, 2), (1, 2)]),
                f"conjugate branches over Q(sqrt({report.splitting})) in k_v",
            )
        return (
            BranchData.of([(1, 0), (1, 0)]),
            f"branch field Q(sqrt({report.splitting})) outside k_v",
        )
    return None, "branch fields beyond declared quadratics"


@dataclass(frozen=True)
class Candidate:
    form: WeightedForm
    degree: int
    multiplicity: int
    splitting: Optional[int]
    alpha: object  # Fraction, INFINITY, or None when undecidable
    conditional: bool
    note: str


def _is_irreducible(f: WeightedForm) -> bool:
    import sympy  # only the search factors polynomials

    xs = sympy.symbols("x y z")[: len(f.weights)]
    poly = sympy.Add(
        *(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**k for s, k in zip(xs, e)))
            for e, c in f.monomials
        )
    )
    _, factors = sympy.factor_list(poly)
    nontrivial = [p for p, k in factors for _ in range(k)]
    return len(nontrivial) == 1 and nontrivial[0] not in xs


def curve_alpha_search(
    q: Sequence[int], degree_cap: int, context: ArithmeticContext
) -> tuple:
    """Ranked candidates for low-alpha curves through [1:1:1].

    For every degree up to the cap: curves with multiplicity >= 2 at the
    point come from the exact kernel of the order-2 jet map; multiplicity-1
    curves contribute alpha = degree, represented by the simplest
    irreducible form through the point.  alpha is measured against
    O(q_0 q_1 q_2), so a degree-d curve has D-degree d.  Candidates whose
    tangent fields are not declared in the context are ranked by the
    optimistic value d/2 and flagged conditional.
    """
    if len(q) != 3:
        raise DimensionError("the search runs on planes only")
    q = tuple(q)
    if any(type(x) is not int or x <= 0 for x in q):
        raise CaseStudyError(f"weights must be positive ints, got {q}")
    wps_fan(q)  # BadWeights unless coprime and well-formed
    big = prod(q)
    cands = []
    for d in range(1, degree_cap + 1):
        basis = monomial_basis(q, d)
        if len(basis) < 2:
            continue
        seen_singular = False
        for vec in sections_vanishing_to_order(q, d, 2):
            form = WeightedForm.of(q, list(zip(basis, vec)))
            if not _is_irreducible(form):
                continue
            try:
                rep = mult_and_tangent_at_one(form)
            except UnsupportedBranchType:
                continue
            branches, note = _branches_for(rep, context)
            deg = weighted_pairing(q, d, big)
            if branches is None:
                alpha, cond = deg / 2, True
            else:
                alpha, cond = alpha_rational_curve(deg, branches), False
            cands.append(
                Candidate(form, d, rep.multiplicity, rep.splitting, alpha, cond, note)
            )
            seen_singular = True
        if not seen_singular:
            # A smooth-at-P representative: the simplest irreducible binomial.
            rep_form = None
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    form = WeightedForm.of(
                        q, [(basis[i], 1), (basis[j], -1)]
                    )
                    if _is_irreducible(form):
                        rep_form = form
                        break
                if rep_form:
                    break
            if rep_form is None:
                continue
            rep = mult_and_tangent_at_one(rep_form)
            if rep.multiplicity != 1:
                continue
            deg = weighted_pairing(q, d, big)
            cands.append(
                Candidate(
                    rep_form, d, 1, None, alpha_rational_curve(deg, BranchData.of([(1, 1)])),
                    False, "unibranch rational point",
                )
            )

    def key(c: Candidate):
        val = c.alpha
        rank = (2,) if val is INFINITY else (0 if not c.conditional else 1, val)
        return rank + (c.degree,)

    return tuple(sorted(cands, key=key))


@dataclass(frozen=True)
class CaseStudyReport:
    """The audited chain of results on the plane with weights (4, 7, 13)."""

    driver_degree: Fraction
    driver_alpha: object
    x5_eq_yz_alpha: Fraction
    cprime_degree: int
    cprime_multiplicity: int
    cprime_splitting: int
    cprime_alpha: object
    cprime_alpha_note: str
    h0_dimension: int
    order3_section: tuple
    order3_unique: bool
    order3_multiplicity: int
    blowup_square: Fraction
    cdoubleprime_alpha_lower: Fraction
    lower_bound: Fraction
    lower_bound_note: str
    verdict: str
    assumptions: tuple


CPRIME = WeightedForm.of(
    (4, 7, 13),
    {(8, 1, 0): 1, (1, 5, 0): 1, (3, 2, 1): -3, (0, 0, 3): 1},
)

X5_EQ_YZ = WeightedForm.of((4, 7, 13), {(5, 0, 0): 1, (0, 1, 1): -1})


def casestudy_p4713(context: ArithmeticContext) -> CaseStudyReport:
    """The full audited report for P(4,7,13), D ~ O(364), P = [1:1:1]."""
    q = (4, 7, 13)
    fan = wps_fan(q)
    d364 = TorusDivisor.of([91, 0, 0])  # O(364): 364/4 on the weight-4 ray
    driver = theorem16_driver(
        fan, d364, (), context, assume_canonically_bounded=True
    )
    # The smooth curve x^5 = yz.
    rep20 = mult_and_tangent_at_one(X5_EQ_YZ)
    check(rep20.multiplicity == 1, "x^5 = yz is smooth at [1:1:1]")
    alpha20 = alpha_rational_curve(
        weighted_pairing(q, 20, 364), BranchData.of([(1, 1)])
    )
    # The double point curve of degree 39.
    rep39 = mult_and_tangent_at_one(CPRIME)
    check(
        rep39.multiplicity == 2 and rep39.distinct,
        "C' has a node at [1:1:1]",
    )
    branches, note = _branches_for(rep39, context)
    deg39 = weighted_pairing(q, 39, 364)
    alpha39 = None if branches is None else alpha_rational_curve(deg39, branches)
    # Sections of O(56) and the unique order-3 section.
    basis56 = monomial_basis(q, 56)
    sections = sections_vanishing_to_order(q, 56, 3)
    unique = len(sections) == 1
    g = WeightedForm.of(q, list(zip(basis56, sections[0])))
    rep_g = mult_and_tangent_at_one(g)
    # alpha(C'') >= 56/2: every branch has r·m <= 2 for the declared data.
    alpha_g_lower = weighted_pairing(q, 56, 364) / 2
    square = blowup_selfintersection(q, 2 * 364, 39)
    in_k, in_kv = context.lookup(-3)
    if in_kv and not in_k:
        verdict = (
            "best approximation: the degree-39 double-point curve achieves "
            "alpha = 39/2, matched by the lower bound off its base locus"
        )
    elif in_k:
        verdict = (
            "verdict withheld: sqrt(-3) in k gives the curve alpha = 39; "
            "outside the stated hypothesis"
        )
    else:
        verdict = (
            "the degree-39 curve contributes alpha = infinity at this "
            "place; remaining candidates are the degree-20 and driver curves"
        )
    return CaseStudyReport(
        driver_degree=driver.degree,
        driver_alpha=driver.alpha,
        x5_eq_yz_alpha=alpha20,
        cprime_degree=39,
        cprime_multiplicity=rep39.multiplicity,
        cprime_splitting=rep39.splitting,
        cprime_alpha=alpha39 if alpha39 is not None else INFINITY,
        cprime_alpha_note=note,
        h0_dimension=len(basis56),
        order3_section=sections[0] if sections else (),
        order3_unique=unique,
        order3_multiplicity=rep_g.multiplicity,
        blowup_square=square,
        cdoubleprime_alpha_lower=alpha_g_lower,
        lower_bound=Fraction(39, 2),
        lower_bound_note=(
            "off the base locus, contained in 13 times the order-3 "
            "section's curve, approximation is bounded below by 39/2; the "
            "order-3 curve itself has alpha >= 28"
        ),
        verdict=verdict,
        assumptions=driver.assumptions
        + (
            "canonical boundedness assumed for the dense-sequence comparison",
            "branch bound r·m <= 2 for the order-3 section's curve",
        ),
    )
