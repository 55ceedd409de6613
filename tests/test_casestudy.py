"""Weighted-plane coordinate computations and the (4,7,13) report."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import casestudy_oracle
from toricapprox import casestudy
from toricapprox.approx import INFINITY, ArithmeticContext
from toricapprox.casestudy import (
    CPRIME,
    X5_EQ_YZ,
    CaseStudyError,
    DimensionError,
    NonVanishing,
    TangentReport,
    UnsupportedBranchType,
    WeightedForm,
    blowup_selfintersection,
    casestudy_p4713,
    curve_alpha_search,
    monomial_basis,
    mult_and_tangent_at_one,
    sections_vanishing_to_order,
    weighted_pairing,
)

CTX_SPLIT_LOCALLY = ArithmeticContext(
    True, ((-3, False, True),)
)  # sqrt(-3) in the completion but not in Q
CTX_SPLIT_GLOBALLY = ArithmeticContext(True, ((-3, True, True),))
CTX_INERT = ArithmeticContext(True, ((-3, False, False),))


def test_weighted_form_validation():
    with pytest.raises(CaseStudyError):
        WeightedForm.of((1, 1), {(1, 0): 1, (0, 2): 1})  # mixed degrees
    with pytest.raises(CaseStudyError):
        WeightedForm.of((1, 1), {})
    f = WeightedForm.of((4, 7, 13), {(5, 0, 0): 1, (0, 1, 1): -1})
    assert f.degree == 20
    assert f.value_at_one() == 0


def test_monomial_basis_golden_56():
    basis = monomial_basis((4, 7, 13), 56)
    assert basis == (
        (14, 0, 0),
        (9, 1, 1),
        (7, 4, 0),
        (4, 2, 2),
        (2, 5, 1),
        (0, 8, 0),
        (1, 0, 4),
    )


def test_monomial_basis_counts_small():
    # Degree-d monomial count equals the coefficient of t^d in
    # prod 1/(1 - t^{q_i}); checked by direct dynamic programming.
    q = (4, 7, 13)
    cap = 60
    counts = [0] * (cap + 1)
    counts[0] = 1
    for w in q:
        for d in range(w, cap + 1):
            counts[d] += counts[d - w]
    for d in range(cap + 1):
        assert len(monomial_basis(q, d)) == counts[d]


def test_mult_smooth_curve():
    rep = mult_and_tangent_at_one(X5_EQ_YZ)
    assert rep.multiplicity == 1
    assert rep.rational_tangents


def test_mult_double_point_curve():
    rep = mult_and_tangent_at_one(CPRIME)
    assert rep.multiplicity == 2
    assert rep.distinct
    assert not rep.rational_tangents
    assert rep.splitting == -3


def test_mult_rejects_nonvanishing():
    f = WeightedForm.of((1, 1, 1), {(1, 0, 0): 1, (0, 1, 0): -2})
    with pytest.raises(NonVanishing):
        mult_and_tangent_at_one(f)


def test_mult_rejects_repeated_tangents():
    # (x - y)^2 has a double tangent line at [1:1:1].
    f = WeightedForm.of(
        (1, 1, 1), {(2, 0, 0): 1, (1, 1, 0): -2, (0, 2, 0): 1}
    )
    with pytest.raises(UnsupportedBranchType):
        mult_and_tangent_at_one(f)


def test_sections_golden_order3():
    secs = sections_vanishing_to_order((4, 7, 13), 56, 3)
    assert len(secs) == 1
    assert secs[0] == (1, -4, 1, 6, -4, 1, -1)


def test_sections_monotone_in_order():
    dims = [
        len(sections_vanishing_to_order((4, 7, 13), 56, s)) for s in range(5)
    ]
    assert dims[0] == 7  # no condition: the full space of sections
    assert all(a >= b for a, b in zip(dims, dims[1:]))


def test_sections_all_vanish_to_order():
    basis = monomial_basis((4, 7, 13), 56)
    for vec in sections_vanishing_to_order((4, 7, 13), 56, 2):
        form = WeightedForm.of((4, 7, 13), list(zip(basis, vec)))
        try:
            rep = mult_and_tangent_at_one(form)
        except UnsupportedBranchType:
            # Repeated tangents only occur at multiplicity >= 2, so this
            # outcome still certifies the required vanishing order.
            continue
        assert rep.multiplicity >= 2


def test_weighted_pairing():
    assert weighted_pairing((4, 7, 13), 39, 364) == 39
    assert weighted_pairing((4, 7, 13), 20, 364) == 20
    assert weighted_pairing((1, 1, 1), 1, 1) == 1
    with pytest.raises(DimensionError):
        weighted_pairing((1, 1), 1, 1)
    with pytest.raises(CaseStudyError):
        weighted_pairing((1, 1, 1), -1, 1)


def test_blowup_selfintersection():
    assert blowup_selfintersection((4, 7, 13), 728, 39) == -65
    assert blowup_selfintersection((1, 1, 1), 1, 1) == 0


def test_search_p111():
    cands = curve_alpha_search((1, 1, 1), 1, ArithmeticContext())
    assert cands
    assert cands[0].alpha == 1
    assert cands[0].multiplicity == 1


def test_search_p4713_cap20():
    cands = curve_alpha_search((4, 7, 13), 20, CTX_SPLIT_LOCALLY)
    assert cands
    best = cands[0]
    assert best.alpha == 20
    assert best.degree == 20
    assert best.multiplicity == 1


def test_is_irreducible_on_coordinates_products_and_a_binomial():
    def irreducible(q, entries):
        return casestudy._is_irreducible(WeightedForm.of(q, entries))

    # A coordinate variable, with any weight or coefficient, is not a curve
    # that the search wants; a product of variables is reducible.
    assert not irreducible((1, 1, 1), {(1, 0, 0): 1})
    assert not irreducible((4, 7, 13), {(0, 0, 1): -3})
    assert not irreducible((1, 1, 1), {(1, 1, 0): 1})
    assert not irreducible((1, 2, 3), {(1, 1, 0): 2})
    assert irreducible((1, 1, 1), {(2, 0, 0): 1, (0, 1, 1): -1})
    assert irreducible((4, 7, 13), {(5, 0, 0): 1, (0, 1, 1): -1})


def test_casestudy_report_split_locally():
    rep = casestudy_p4713(CTX_SPLIT_LOCALLY)
    assert rep.driver_degree == 28
    assert rep.x5_eq_yz_alpha == 20
    assert rep.cprime_multiplicity == 2
    assert rep.cprime_splitting == -3
    assert rep.cprime_alpha == Fraction(39, 2)
    assert rep.h0_dimension == 7
    assert rep.order3_unique
    assert rep.order3_section == (1, -4, 1, 6, -4, 1, -1)
    assert rep.order3_multiplicity == 3
    assert rep.blowup_square == -65
    assert rep.cdoubleprime_alpha_lower == 28
    assert rep.lower_bound == Fraction(39, 2)
    assert rep.verdict.startswith("best approximation")


def test_casestudy_report_other_contexts():
    rep_k = casestudy_p4713(CTX_SPLIT_GLOBALLY)
    assert rep_k.cprime_alpha == 39
    assert "withheld" in rep_k.verdict
    rep_inert = casestudy_p4713(CTX_INERT)
    assert rep_inert.cprime_alpha is INFINITY


def _factor_inputs():
    """Seeded integers up to 10^12: uniform ones, smooth ones, squares of
    primes near 10^6 and the largest prime below 10^12."""
    rng = random.Random(14)
    out = [1, 2, 3 * 3 * 7, 999983**2, 999999999989, 2 * 999999999989]
    out += [rng.randrange(1, 10**12) for _ in range(40)]
    for _ in range(20):
        n = 1
        while n * 97 < 10**12 and rng.random() < 0.8:
            n *= rng.choice((2, 3, 5, 7, 11, 13, 97, 997, 65537))
        out.append(n)
    return out


def test_factor_matches_sympy():
    import sympy

    for n in _factor_inputs():
        assert casestudy._factor(n) == sympy.factorint(n), n
        for m in (n, -n):
            expected = casestudy_oracle._squarefree_part(m)
            assert casestudy._squarefree_part(m) == expected, m


def test_factor_refuses_an_unsearched_cofactor():
    # Both primes are above 10^6, so trial division leaves their product.
    n = 1000003 * 1000033
    with pytest.raises(CaseStudyError, match=str(n)):
        casestudy._factor(n)


def _criterion7_forms(count):
    """The first `count` forms of criterion 7's seeded random stream."""
    rng = random.Random(7)
    pool = ((1, 1, 1), (1, 1, 2), (1, 2, 3), (4, 7, 13))
    out = []
    while len(out) < count:
        q = pool[rng.randrange(len(pool))]
        d = rng.randrange(3, 9) * q[0]
        basis = monomial_basis(q, d)
        if len(basis) < 2:
            continue
        coeffs = [rng.randrange(-3, 4) for _ in basis[:-1]]
        entries = [(e, c) for e, c in zip(basis, coeffs + [-sum(coeffs)]) if c]
        if len(entries) >= 2:
            out.append(WeightedForm.of(q, entries))
    return out


def _kernel_forms(q, d, order, count):
    """Seeded integer combinations of the order-`order` jet kernel."""
    rng = random.Random(d)
    basis = monomial_basis(q, d)
    kernel = sections_vanishing_to_order(q, d, order)
    out = []
    for _ in range(count):
        coeffs = [rng.randrange(-2, 3) for _ in kernel]
        vec = [sum(c * v[i] for c, v in zip(coeffs, kernel)) for i in range(len(basis))]
        if any(vec):
            out.append(WeightedForm.of(q, list(zip(basis, vec))))
    return out


def _binomials(q, degrees):
    out = []
    for d in degrees:
        basis = monomial_basis(q, d)
        out += [WeightedForm.of(q, [(basis[0], 1), (b, -1)]) for b in basis[1:3]]
    return out


def _tangent_cones():
    """Plane curves whose tangent cone at [1:1:1] is a given binary form:
    rational, partly rational, irrational and repeated tangents.  On the
    slice (s, t) = (u_1, u_2), x - 2y + z restricts to -3s and x + y - 2z
    to -3t."""
    import sympy

    x, y, z = sympy.symbols("x y z")
    u, v, ls, lt = x - z, y - z, x - 2 * y + z, x + y - 2 * z
    cones = (u * v * (u - v), u * (u - v) * (u + 2 * v) * (u - 3 * v),
             ls * lt * (x - y), ls * (u**2 - 2 * v**2), u**3 - 2 * v**3,
             u**3 + v**3, v**3 * z + u**4, lt**2 * (x - y))
    return [
        WeightedForm.of((1, 1, 1), {e: int(c) for e, c in
                                    sympy.Poly(cone, x, y, z).terms()})
        for cone in cones
    ]


def _differential_forms():
    basis56 = monomial_basis((4, 7, 13), 56)
    order3 = sections_vanishing_to_order((4, 7, 13), 56, 3)[0]
    return (
        [CPRIME, X5_EQ_YZ, WeightedForm.of((4, 7, 13), list(zip(basis56, order3)))]
        + _criterion7_forms(10)
        + _kernel_forms((1, 1, 1), 3, 2, 4)
        + _kernel_forms((1, 1, 1), 4, 3, 3)
        + _kernel_forms((1, 2, 3), 6, 2, 3)
        + _kernel_forms((4, 7, 13), 39, 2, 3)
        + _kernel_forms((4, 7, 13), 65, 3, 2)
        + _kernel_forms((1, 1, 1, 1), 3, 2, 2)
        + _kernel_forms((1, 1, 2, 3), 6, 2, 2)
        + _binomials((1, 1, 1), (2, 3))
        + _binomials((1, 2, 3), (6,))
        + _binomials((4, 7, 13), (26, 39))
        + _binomials((1, 1, 2, 3), (6,))
        + _tangent_cones()
        + [WeightedForm.of((1, 1, 1), {(1, 0, 0): 1, (0, 1, 0): -2}),
           WeightedForm.of((1, 1, 1), {(2, 0, 0): 1, (1, 1, 0): -2, (0, 2, 0): 1})]
    )


def _outcome(fn, form):
    try:
        return fn(form)
    except CaseStudyError as exc:
        return type(exc), str(exc)


def test_tangent_data_matches_the_sympy_oracle():
    kinds = set()
    for form in _differential_forms():
        got = _outcome(mult_and_tangent_at_one, form)
        assert got == _outcome(casestudy_oracle.mult_and_tangent_at_one, form), form
        if isinstance(got, TangentReport):
            kinds.add((min(got.multiplicity, 3), got.rational_tangents))
        else:
            kinds.add(got[0])
    assert kinds == {(1, True), (2, True), (2, False), (3, True), (3, False),
                     NonVanishing, UnsupportedBranchType}


def _run_python(code):
    """Run `code` in a fresh interpreter, where sympy is not yet imported."""
    src = os.path.dirname(os.path.dirname(casestudy.__file__))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))


def test_import_leaves_sympy_unloaded():
    proc = _run_python(
        "import sys, toricapprox.casestudy; print('sympy' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_casestudy_p4713_runs_with_sympy_blocked(tmp_path, capsys):
    from toricapprox.cli import main

    paths, expected = [], ""
    for in_k, in_kv in ((False, True), (True, True), (False, False)):
        path = str(tmp_path / f"ctx_{in_k}_{in_kv}.json")
        quadratic = {"d": -3, "in_k": in_k, "in_kv": in_kv}
        with open(path, "w") as fh:
            json.dump({"k_is_Q": True, "quadratics": [quadratic]}, fh)
        paths.append(path)
        assert main(["casestudy", "p4713", "--context", path]) == 0
        expected += capsys.readouterr().out
    # With sys.modules["sympy"] = None, any import of sympy raises.
    proc = _run_python(
        "import sys\n"
        "sys.modules['sympy'] = None\n"
        "from toricapprox.cli import main\n"
        f"codes = [main(['casestudy', 'p4713', '--context', p]) for p in {paths!r}]\n"
        "sys.exit(max(codes))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
