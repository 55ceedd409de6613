"""Acceptance gate: seven criteria, each reporting one pass/fail line.

Criterion budgets are wall-clock seconds asserted inside each test.  The
weighted-projective-space sweep covers all well-formed weight vectors of
lengths 2 and 3 with coordinate sum at most 40, plus length 4 with sum at
most 18 (the full length-4 stratum up to sum 40 was verified once
out-of-band in about 500 s with zero violations; the cap here keeps the
criterion inside its 60-second budget).
"""

import random
import time
from fractions import Fraction

import pytest

import conftest
from conftest import all_orbit_cones, random_fan_suite, well_formed_weight_vectors
from toricapprox.approx import ArithmeticContext, theorem16_driver
from toricapprox.divisor import (
    TorusDivisor,
    canonical_divisor,
    intersect,
    intersect_via_relation,
    is_nef,
    make_one_ps,
    one_ps_degree,
    principal_divisor,
    ray_divisor,
    support_function,
    wall_curves,
)
from toricapprox.fan import (
    build_fan,
    is_projective_space,
    is_terminal,
    projective_space_fan,
    recognize_fwps,
    wps_fan,
)
from toricapprox.fwps import fwps_curve, terminal_wps_inequality, wps_curve_all_leq1
from toricapprox.mmp import (
    DIVISORIAL,
    FLIP,
    MORI_FIBER,
    classify_contraction,
    picard_rank,
    run_mmp_chain,
    step_a,
)


def _report(line: str):
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


class SweepEntry:
    def __init__(self, weights, fan, data, terminal, pn, certs):
        self.weights = weights
        self.fan = fan
        self.data = data
        self.terminal = terminal
        self.pn = pn
        self.certs = certs  # orbit cone -> CurveCertificate


@pytest.fixture(scope="module")
def wps_sweep():
    """All-orbit curve certificates over the weight-vector sweep."""
    t0 = time.monotonic()
    entries = []
    vectors = (
        well_formed_weight_vectors(2, 40)
        + well_formed_weight_vectors(3, 40)
        + well_formed_weight_vectors(4, 18)
    )
    for q in vectors:
        fan = wps_fan(q)
        data = recognize_fwps(fan)
        certs = {orbit: fwps_curve(data, orbit) for orbit in all_orbit_cones(fan)}
        entries.append(
            SweepEntry(
                q, fan, data, is_terminal(fan)[0], is_projective_space(fan), certs
            )
        )
    elapsed = time.monotonic() - t0
    return entries, elapsed


def test_criterion_1_golden_suite_p4713():
    from toricapprox.casestudy import casestudy_p4713

    t0 = time.monotonic()
    ctx = ArithmeticContext(True, ((-3, False, True),))
    rep = casestudy_p4713(ctx)
    assert rep.driver_degree == 28
    assert rep.driver_alpha == 28
    assert rep.x5_eq_yz_alpha == 20
    assert rep.cprime_degree == 39
    assert rep.cprime_multiplicity == 2
    assert rep.cprime_splitting == -3
    assert rep.cprime_alpha == Fraction(39, 2)
    assert rep.h0_dimension == 7
    assert rep.order3_unique
    assert rep.order3_section == (1, -4, 1, 6, -4, 1, -1)
    assert rep.blowup_square == -65
    assert rep.cdoubleprime_alpha_lower == 28
    assert rep.lower_bound == Fraction(39, 2)
    assert rep.verdict.startswith("best approximation")
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"golden suite took {elapsed:.1f}s"
    _report(
        "PASS: criterion 1 — weighted plane (4,7,13) golden suite exact "
        f"in {elapsed:.2f}s"
    )


def test_criterion_2_curve_bound_sweep(wps_sweep):
    entries, build_elapsed = wps_sweep
    t0 = time.monotonic()
    checked = 0
    for e in entries:
        dim = e.fan.rank
        for cert in e.certs.values():
            assert cert.minus_k <= dim + 1, (e.weights, cert.minus_k)
            if e.terminal and not e.pn:
                assert cert.minus_k <= dim, (e.weights, cert.minus_k)
            checked += 1
    elapsed = build_elapsed + (time.monotonic() - t0)
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    _report(
        f"PASS: criterion 2 — -K·C bounds hold for {checked} certificates "
        f"over {len(entries)} weight vectors in {elapsed:.1f}s"
    )


def test_criterion_3_terminal_inequality(wps_sweep):
    entries, _ = wps_sweep
    terminal = [e for e in entries if e.terminal]
    assert terminal, "the sweep contains terminal instances"
    for e in terminal:
        h = sum(e.weights)
        for kappa in range(2, h - 1):
            assert terminal_wps_inequality(e.weights, kappa), (e.weights, kappa)
    # One-directional use: (1,1,2) passes the inequality yet is not terminal.
    q = (1, 1, 2)
    assert all(terminal_wps_inequality(q, k) for k in range(2, sum(q) - 1))
    assert not is_terminal(wps_fan(q))[0]
    _report(
        f"PASS: criterion 3 — fractional-part inequality holds on all "
        f"{len(terminal)} terminal sweep members; (1,1,2) documents necessity "
        "only"
    )


def test_criterion_4_mmp_engine_properties(f1, francia):
    t0 = time.monotonic()
    rng = random.Random(20260824)
    suite = [
        (f1, TorusDivisor.of([1, 1, 0, 0])),
        (francia, TorusDivisor.of([2, 4, 3, 3, 6])),
    ] + random_fan_suite(rng, 50)
    assert len(suite) >= 52
    flips_seen = 0
    steps_seen = 0
    for fan, d in suite:
        chain = run_mmp_chain(fan, d, ())
        cur = fan
        for step in chain.steps:
            # (i) D + aK is nef and kills the chosen extremal ray, exactly.
            shifted = step.divisor + step.a * canonical_divisor(step.fan)
            assert shifted == step.shifted
            assert is_nef(step.fan, shifted)
            assert intersect(step.fan, shifted, step.ray.curve) == 0
            steps_seen += 1
            if step.result is None:
                continue
            # (iii) Picard rank bookkeeping by step kind.
            rho_before = picard_rank(step.fan)
            rho_after = picard_rank(step.result.target)
            if step.kind == DIVISORIAL:
                assert rho_after == rho_before - 1
            elif step.kind == FLIP:
                assert rho_after == rho_before
                flips_seen += 1
                # (ii) pullback identity for every ray divisor.
                res = step.result
                for i in range(len(res.source.rays)):
                    f = ray_divisor(res.source, i)
                    lhs = support_function(res.source, f)(res.new_ray)
                    rhs = support_function(res.target, f)(res.new_ray)
                    deg = intersect(res.source, f, step.ray.curve)
                    assert lhs == rhs - deg * res.dstar_multiple
            else:
                assert step.kind == MORI_FIBER
                assert rho_after < rho_before
    assert flips_seen >= 1, "the suite exercises at least one flip"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"engine sweep took {elapsed:.1f}s"
    _report(
        f"PASS: criterion 4 — {steps_seen} MMP steps over {len(suite)} fans "
        f"({flips_seen} flips) verified exactly in {elapsed:.1f}s"
    )


def test_criterion_5_intersection_cross_checks(wps_sweep, f1, francia, p2_mu3):
    entries, _ = wps_sweep
    t0 = time.monotonic()
    fans = [f1, francia, p2_mu3, projective_space_fan(2), projective_space_fan(3)]
    fans += [e.fan for e in entries[:200]]
    walls_checked = 0
    for fan in fans:
        for c in wall_curves(fan):
            for i in range(len(fan.rays)):
                d = ray_divisor(fan, i)
                assert intersect(fan, d, c) == intersect_via_relation(fan, d, c)
            walls_checked += 1
        # Principal divisors are numerically trivial.
        for u in ((1,) + (0,) * (fan.rank - 1), (1,) * fan.rank):
            dp = principal_divisor(fan, u)
            for c in wall_curves(fan):
                assert intersect(fan, dp, c) == 0
    # The torus-point curve on each weighted projective space has ray
    # degrees a_i/a_max, recomputed through one_ps_degree directly.
    for e in entries:
        amax = max(e.data.weights)
        imax = e.data.weights.index(amax)
        curve = make_one_ps(e.fan, (), e.fan.rays[imax])
        for i in range(len(e.fan.rays)):
            got = one_ps_degree(e.fan, ray_divisor(e.fan, i), curve)
            assert got == Fraction(e.data.weights[i], amax), (e.weights, i)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"cross-checks took {elapsed:.1f}s"
    _report(
        f"PASS: criterion 5 — both intersection routes agree on "
        f"{walls_checked} walls; torus curves have degrees a_i/a_max on all "
        f"{len(entries)} sweep members in {elapsed:.1f}s"
    )


def test_criterion_6_end_to_end_blown_up_plane(f1):
    t0 = time.monotonic()
    d = TorusDivisor.of([1, 1, 0, 0])  # pullback of a line
    res = theorem16_driver(f1, d, (), assume_canonically_bounded=True)
    assert res.alpha == 1
    assert res.degree == 1
    assert res.branches.branches == ((1, 1),)  # unibranch
    # -K·C = n+1-r = 2 with n = 2, r = 1: the dimension bound is met.
    assert res.certificate.minus_k == 2 == f1.rank
    assert any("discrepancy 1" in t for t in res.certificate.trace)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"end-to-end case took {elapsed:.2f}s"
    _report(
        "PASS: criterion 6 — blown-up plane driver returns a unibranch "
        f"curve with alpha = 1 and -K·C = 2 in {elapsed:.2f}s"
    )


def test_criterion_7_oracle_equivalences():
    import sympy

    from toricapprox.casestudy import (
        UnsupportedBranchType,
        WeightedForm,
        monomial_basis,
        mult_and_tangent_at_one,
    )
    from toricapprox.lattice import smith_normal_form
    from toricapprox.linalg import det, identity, mat_mul

    t0 = time.monotonic()
    # (a) Monomial counts against the generating function prod 1/(1-t^q).
    for q in ((4, 7, 13), (1, 1, 1), (2, 3, 5)):
        cap = 200
        counts = [0] * (cap + 1)
        counts[0] = 1
        for w in q:
            for d in range(w, cap + 1):
                counts[d] += counts[d - w]
        for d in range(cap + 1):
            assert len(monomial_basis(q, d)) == counts[d], (q, d)
    # (b) Multiplicity against an independent slice parametrization.
    rng = random.Random(7)
    compared = 0
    weight_pool = ((1, 1, 1), (1, 1, 2), (1, 2, 3), (4, 7, 13))
    while compared < 20:
        q = weight_pool[rng.randrange(len(weight_pool))]
        d = rng.randrange(3, 9) * q[0]
        basis = monomial_basis(q, d)
        if len(basis) < 2:
            continue
        coeffs = [rng.randrange(-3, 4) for _ in basis[:-1]]
        last = -sum(coeffs)
        entries = [
            (e, c) for e, c in zip(basis, coeffs + [last]) if c != 0
        ]
        if len(entries) < 2:
            continue
        form = WeightedForm.of(q, entries)
        try:
            rep = mult_and_tangent_at_one(form)
        except UnsupportedBranchType:
            continue
        # Oracle: parametrize the slice {q·u = 0} by an unrelated basis and
        # read the lowest total degree of the expansion directly.
        s, t = sympy.symbols("s t")
        b1 = (-q[1], q[0], 0)
        b2 = (-(q[1] + q[2]), q[0], q[0])
        assert sum(a * b for a, b in zip(q, b1)) == 0
        assert sum(a * b for a, b in zip(q, b2)) == 0
        xs = [1 + b1[i] * s + b2[i] * t for i in range(3)]
        g = sympy.expand(
            sympy.Add(
                *(
                    sympy.Integer(c.numerator)
                    * sympy.Mul(*(x**k for x, k in zip(xs, e)))
                    / c.denominator
                    for e, c in form.monomials
                )
            )
        )
        gp = sympy.Poly(g, s, t)
        oracle_m = min(sum(mon) for mon in gp.monoms())
        assert oracle_m == rep.multiplicity, (q, entries)
        compared += 1
    # (c) Smith normal form identities on 100 random small matrices.
    for _ in range(100):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        diag, u, v, u_inv = smith_normal_form(m)
        prod = mat_mul(mat_mul(u, m), v)
        assert mat_mul(u, u_inv) == identity(rows)
        for i in range(rows):
            for j in range(cols):
                expected = diag[i] if i == j and i < len(diag) else 0
                assert prod[i][j] == expected
        assert abs(det(u)) == 1 and abs(det(v)) == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"oracle equivalences took {elapsed:.1f}s"
    _report(
        "PASS: criterion 7 — generating-function, jet-slice, and Smith-form "
        f"oracles all agree in {elapsed:.1f}s"
    )
