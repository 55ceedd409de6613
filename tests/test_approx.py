"""Approximation constants, certificate transport, and the driver."""

from fractions import Fraction

import pytest

from toricapprox.approx import (
    INFINITY,
    ApproxError,
    ArithmeticContext,
    BranchData,
    NotPnDownstream,
    alpha_rational_curve,
    lemma42_ledger,
    pn_blowup_line,
    theorem16_driver,
    transport_curve,
)
from toricapprox.divisor import TorusDivisor, one_ps_degree
from toricapprox.fan import ConeNotInFan, projective_space_fan, star_subdivision
from toricapprox.mmp import (
    DIVISORIAL,
    MORI_FIBER,
    OrbitInExc,
    classify_contraction,
    contract,
    mori_extremal_rays,
    run_mmp_chain,
)


def test_infinity_ordering():
    assert INFINITY > Fraction(10**9)
    assert not (INFINITY < Fraction(1))
    assert INFINITY == INFINITY
    assert INFINITY >= INFINITY and INFINITY <= INFINITY


def test_branch_data_validation():
    with pytest.raises(ApproxError):
        BranchData.of([])
    with pytest.raises(ApproxError):
        BranchData.of([(0, 1)])
    with pytest.raises(ApproxError):
        BranchData.of([(1, 3)])
    assert BranchData.of([(2, 1), (1, 2)]).branches == ((2, 1), (1, 2))


def test_arithmetic_context_consistency():
    with pytest.raises(ApproxError):
        ArithmeticContext(True, (((-3), True, False),))
    ctx = ArithmeticContext.from_dict(
        {"k_is_Q": True, "quadratics": [{"d": -3, "in_k": False, "in_kv": True}]}
    )
    assert ctx.lookup(-3) == (False, True)
    with pytest.raises(ApproxError):
        ctx.lookup(5)
    assert ArithmeticContext.from_dict(ctx.to_dict()) == ctx


def test_alpha_rational_curve():
    assert alpha_rational_curve(6, BranchData.of([(1, 1)])) == 6
    assert alpha_rational_curve(6, BranchData.of([(3, 2)])) == 1
    assert alpha_rational_curve(6, BranchData.of([(1, 0)])) is INFINITY
    assert alpha_rational_curve(6, BranchData.of([(1, 0), (2, 1)])) == 3
    with pytest.raises(ApproxError):
        alpha_rational_curve(-1, BranchData.of([(1, 1)]))


def test_lemma42_ledger_exactness(f1):
    from toricapprox.fwps import base_case_curve

    d = TorusDivisor.of([1, 1, 0, 0])
    ray = next(
        r
        for r in mori_extremal_rays(f1)
        if classify_contraction(f1, r)[0] == DIVISORIAL
    )
    cert = base_case_curve(f1, ray, d, (1,))
    rec = lemma42_ledger(cert, d, Fraction(0), f1.rank)
    assert rec.d_degree == rec.shifted_degree + rec.a * rec.minus_k_degree
    assert rec.bound_holds
    with pytest.raises(ApproxError):
        lemma42_ledger(cert, d, Fraction(-1), f1.rank)


def test_pn_blowup_line_f1(f1):
    ray = next(
        r
        for r in mori_extremal_rays(f1)
        if classify_contraction(f1, r)[0] == DIVISORIAL
    )
    res = contract(f1, ray)
    cert = pn_blowup_line(res, ())
    # Blowup of a point in the plane: -K·C = n+1-r = 3-1 = 2.
    assert cert.minus_k == 2
    assert one_ps_degree(f1, TorusDivisor.of([0, 1, 0, 0]), cert.curve) == 1


def test_pn_blowup_line_p3_point():
    # Blow up a torus-fixed point of projective 3-space: codim 3, r = 2.
    p3 = projective_space_fan(3)
    blown, _ = star_subdivision(p3, (1, 1, 1))
    ray = next(
        r
        for r in mori_extremal_rays(blown)
        if r.is_k_negative and classify_contraction(blown, r)[0] == DIVISORIAL
    )
    res = contract(blown, ray)
    cert = pn_blowup_line(res, ())
    assert cert.minus_k == 3 + 1 - 2  # n+1-r with n=3, r=2


def test_pn_blowup_line_needs_divisorial(f1):
    ray = next(
        r
        for r in mori_extremal_rays(f1)
        if classify_contraction(f1, r)[0] == MORI_FIBER
    )
    res = contract(f1, ray)
    with pytest.raises(NotPnDownstream):
        pn_blowup_line(res, ())


def test_transport_refuses_exceptional_point(f1):
    d = TorusDivisor.of([1, 1, 0, 0])
    chain = run_mmp_chain(f1, d, (1,))
    step = chain.terminal_step
    assert step.p_in_exc
    with pytest.raises(OrbitInExc):
        transport_curve(step, object())


def test_transport_divisorial_discrepancy():
    # Blow up a fixed point of P^3, put P in the torus, D = pullback of O(1).
    p3 = projective_space_fan(3)
    blown, _ = star_subdivision(p3, (1, 1, 1))
    d = TorusDivisor.of([1, 0, 0, 0, 0])
    from toricapprox.divisor import is_nef, support_function

    # Pullback coefficient at the new ray: the support value of O(1) there.
    val = support_function(p3, TorusDivisor.of([1, 0, 0, 0]))((1, 1, 1))
    d = TorusDivisor.of([1, 0, 0, 0, val])
    assert is_nef(blown, d)
    res = theorem16_driver(blown, d, (), assume_canonically_bounded=True)
    # The strict transform of a line through the center: degree 1, alpha 1.
    assert res.degree == 1
    assert res.alpha == 1
    assert res.certificate.minus_k == 2


def test_driver_p2_is_line(p2):
    d = TorusDivisor.of([2, 0, 0])
    res = theorem16_driver(p2, d, (), assume_canonically_bounded=True)
    assert res.chain is None
    assert res.degree == 2
    assert res.certificate.minus_k == 3


def test_driver_f1(f1):
    d = TorusDivisor.of([1, 1, 0, 0])
    res = theorem16_driver(f1, d, (), assume_canonically_bounded=True)
    assert res.alpha == 1
    assert res.degree == 1
    assert res.certificate.minus_k == 2
    assert res.chain is not None
    assert len(res.ledger) == len(res.chain.steps)
    # One comparison record may fail the dimension bound only at a
    # projective-space terminal model; all transported records hold.
    assert all(rec.bound_holds for rec in res.ledger[:-1])


def test_driver_wps4713(wps4713):
    d = TorusDivisor.of([91, 0, 0])
    res = theorem16_driver(wps4713, d, (), assume_canonically_bounded=True)
    assert res.degree == 28
    assert res.alpha == 28
    assert res.certificate.minus_k == Fraction(24, 13)
    assert len(res.chain.steps) == 1
    assert res.chain.steps[0].a == Fraction(91, 6)
    # Non-terminal input is recorded as an assumption, not hidden.
    assert any("not terminal" in a for a in res.assumptions)


def test_driver_without_cb_records_assumption(f1):
    d = TorusDivisor.of([1, 1, 0, 0])
    res = theorem16_driver(f1, d, (), assume_canonically_bounded=False)
    assert any("NOT assumed" in a for a in res.assumptions)


def test_driver_alpha_equals_degree_over_rm(wps4713):
    d = TorusDivisor.of([91, 0, 0])
    res = theorem16_driver(wps4713, d, (), assume_canonically_bounded=True)
    # Driver curves are unibranch through a rational point: m = r = 1.
    assert res.branches.branches == ((1, 1),)
    assert res.alpha == res.degree


def test_driver_rejects_non_cone_orbit(p2):
    # Used to report alpha = 1 for the ray set (0, 1, 2), which is no cone.
    with pytest.raises(ConeNotInFan):
        theorem16_driver(
            p2, TorusDivisor.of([1, 0, 0]), (0, 1, 2),
            assume_canonically_bounded=True,
        )
