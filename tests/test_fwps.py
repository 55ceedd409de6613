"""Curve constructions on (fake) weighted projective spaces."""

from fractions import Fraction

import pytest

from toricapprox.divisor import TorusDivisor, one_ps_degree
from toricapprox.fan import ConeNotInFan, recognize_fwps, wps_fan
from toricapprox.fwps import (
    FwpsError,
    IsProjectiveSpace,
    KappaOutOfRange,
    NotPnModP,
    NotWps,
    TrivialAction,
    base_case_curve,
    classify_boundary,
    fiber_fwps,
    fwps_curve,
    mu_p_normalize,
    mu_p_residues,
    mu_p_torus_curve,
    terminal_wps_inequality,
    wps_curve_all_leq1,
)
from toricapprox.mmp import DIVISORIAL, MORI_FIBER, classify_contraction, mori_extremal_rays

from conftest import all_orbit_cones


def test_universal_cover(p2_mu3):
    data = recognize_fwps(p2_mu3)
    assert data.cover_index == 3
    assert data.group_factors == (3,)
    # Etale in codimension 1: the cover keeps one ray per ray.
    assert len(data.cover_fan.rays) == len(p2_mu3.rays)


def test_terminal_wps_inequality():
    # (1,1,2) passes the inequality for every admissible kappa even though
    # the space is not terminal: the test is necessary, not sufficient.
    q = (1, 1, 2)
    h = sum(q)
    assert all(terminal_wps_inequality(q, k) for k in range(2, h - 1))
    # (1,2,3) has h=6: kappa=4 gives {4/6}+{8/6}+{12/6} = 2/3+1/3+0 = 1 <= 1.
    assert terminal_wps_inequality((1, 2, 3), 4)
    with pytest.raises(KappaOutOfRange):
        terminal_wps_inequality((1, 1, 2), 3)


def test_wps_curve_torus_4713(wps4713):
    cert = wps_curve_all_leq1(wps4713, ())
    assert cert.intersections == (
        Fraction(4, 13),
        Fraction(7, 13),
        Fraction(1),
    )
    assert cert.minus_k == Fraction(24, 13)
    assert cert.minus_k == sum(cert.intersections)
    assert max(cert.intersections) <= 1


def test_wps_curve_boundary_recursion_4713(wps4713):
    # P on the weight-4 divisor: recurse into its orbit closure.
    cert = wps_curve_all_leq1(wps4713, (0,))
    assert cert.intersections == (
        Fraction(4, 91),
        Fraction(1, 13),
        Fraction(1, 7),
    )
    assert max(cert.intersections) <= 1


def test_wps_curve_all_orbits_112(wps112):
    for orbit in all_orbit_cones(wps112):
        cert = wps_curve_all_leq1(wps112, orbit)
        assert max(cert.intersections) <= 1
        assert cert.minus_k <= wps112.rank + 1


def test_wps_curve_rejects_fake(p2_mu3):
    with pytest.raises(NotWps):
        wps_curve_all_leq1(p2_mu3, ())


def test_mu_p_normalize():
    act = mu_p_normalize((0, 1, 2), 3)
    assert act.p == 3
    assert max(act.patch_weights) <= Fraction(3 * 2, 3)
    with pytest.raises(TrivialAction):
        mu_p_normalize((1, 1, 1), 3)


def test_mu_p_residues_and_torus_curve(p2_mu3):
    data = recognize_fwps(p2_mu3)
    res = mu_p_residues(data)
    assert len(res) == 3 and res[-1] == 0
    assert len(set(r % 3 for r in res)) > 1
    cert = mu_p_torus_curve(data)
    assert cert.minus_k <= 2  # dim bound, unconditional on P^2/mu_3
    assert cert.curve.tau == ()


def test_mu_p_torus_curve_rejects_weighted(wps4713):
    data = recognize_fwps(wps4713)
    with pytest.raises(NotPnModP):
        mu_p_torus_curve(data)


def test_classify_boundary(p2_mu3):
    data = recognize_fwps(p2_mu3)
    for ray in range(3):
        case, star, witness = classify_boundary(data, ray)
        assert case in ("wps", "pn_mod_p")
        if case == "wps":
            assert witness is not None


def test_fwps_curve_all_orbits_mu3(p2_mu3):
    data = recognize_fwps(p2_mu3)
    for orbit in all_orbit_cones(p2_mu3):
        cert = fwps_curve(data, orbit)
        assert cert.minus_k <= p2_mu3.rank + 1
        assert cert.minus_k == sum(cert.intersections)


def test_fwps_curve_composite_index(p2_mu9):
    data = recognize_fwps(p2_mu9)
    assert data.cover_index == 9
    cert = fwps_curve(data, ())
    assert cert.minus_k <= p2_mu9.rank + 1
    # The composite path records the intermediate factoring in the trace.
    assert any("factored through" in t for t in cert.trace)


def test_fwps_curve_p3_mu2(p3_mu2):
    data = recognize_fwps(p3_mu2)
    assert data.cover_index == 2
    for orbit in all_orbit_cones(p3_mu2):
        cert = fwps_curve(data, orbit)
        assert cert.minus_k <= p3_mu2.rank + 1


def test_fiber_fwps_mori_fiber(f1):
    ray = next(
        r
        for r in mori_extremal_rays(f1)
        if classify_contraction(f1, r)[0] == MORI_FIBER
    )
    fib = fiber_fwps(f1, ray)
    assert fib.fan.rank == 1
    assert fib.tau_base == ()
    assert len(fib.ray_sources) == 2


def test_fiber_fwps_divisorial(f1):
    ray = next(
        r
        for r in mori_extremal_rays(f1)
        if classify_contraction(f1, r)[0] == DIVISORIAL
    )
    fib = fiber_fwps(f1, ray)
    assert fib.fan.rank == 1
    assert fib.tau_base == (1,)


def test_base_case_curve_f1_fiber(f1):
    d = TorusDivisor.of([1, 1, 0, 0])
    ray = next(
        r
        for r in mori_extremal_rays(f1)
        if classify_contraction(f1, r)[0] == DIVISORIAL
    )
    # D kills the exceptional class; P on the exceptional curve.
    cert = base_case_curve(f1, ray, d, (1,))
    assert one_ps_degree(f1, d, cert.curve) == 0
    assert cert.minus_k <= f1.rank


def test_base_case_curve_requires_p_in_exc(f1):
    d = TorusDivisor.of([1, 1, 0, 0])
    ray = next(
        r
        for r in mori_extremal_rays(f1)
        if classify_contraction(f1, r)[0] == DIVISORIAL
    )
    with pytest.raises(FwpsError):
        base_case_curve(f1, ray, d, ())


@pytest.mark.parametrize("orbit", [(1, 3), (1, 1), (1, 7)])
def test_base_case_curve_requires_a_cone_of_the_fan(f1, orbit):
    # Opposite rays, a repeated index and a ray that does not exist all
    # contain the exceptional ray 1, but none of them is a cone of F1.
    d = TorusDivisor.of([1, 1, 0, 0])
    ray = next(
        r
        for r in mori_extremal_rays(f1)
        if classify_contraction(f1, r)[0] == DIVISORIAL
    )
    with pytest.raises(ConeNotInFan):
        base_case_curve(f1, ray, d, orbit)


def test_base_case_curve_refuses_projective_space(p2):
    ray = mori_extremal_rays(p2)[0]
    with pytest.raises(IsProjectiveSpace):
        base_case_curve(p2, ray, TorusDivisor.of([0, 0, 0]), ())


def test_certificate_intersections_sum(wps4713, p2_mu3):
    for fan in (wps4713, p2_mu3):
        data = recognize_fwps(fan)
        cert = fwps_curve(data, ())
        assert sum(cert.intersections) == cert.minus_k
        assert cert.minus_k <= cert.bound


def test_make_certificate_takes_one_support_function_route(monkeypatch, wps4713):
    # The vector comes from one_ps_intersections; -K·C alone goes through
    # one_ps_degree, so the sum check still compares two routes.
    import toricapprox.fwps as fwps_module
    from toricapprox.divisor import OnePsCurve, canonical_divisor

    seen = []
    real = fwps_module.one_ps_degree
    monkeypatch.setattr(
        fwps_module, "one_ps_degree", lambda *a: seen.append(a[1]) or real(*a)
    )
    for curve in (OnePsCurve((), (1, 0)), OnePsCurve((1,), (1,))):
        seen.clear()
        fwps_module.make_certificate(wps4713, curve, 100, ())
        assert seen == [-1 * canonical_divisor(wps4713)]


def test_fwps_curve_rejects_non_cone_orbit(p2):
    # (0, 1, 2) is a set of rays of P^2 but not a cone of its fan.
    with pytest.raises(ConeNotInFan):
        fwps_curve(recognize_fwps(p2), (0, 1, 2))


def test_wps_curve_all_leq1_rejects_non_cone_orbit(p2, wps4713):
    with pytest.raises(ConeNotInFan):
        wps_curve_all_leq1(p2, (0, 1, 2))
    with pytest.raises(ConeNotInFan):
        wps_curve_all_leq1(wps4713, (3,))


INVARIANT_SCRIPT = """
import sys
from toricapprox import cli, fwps
from toricapprox.divisor import OnePsCurve
from toricapprox.fan import projective_space_fan
from toricapprox.invariant import InvariantError

print("optimize", sys.flags.optimize)
real = fwps.one_ps_intersections
fwps.one_ps_intersections = lambda fan, c: tuple(x + 1 for x in real(fan, c))
try:
    fwps.wps_curve_all_leq1(projective_space_fan(2))
except InvariantError as exc:
    print("sum:", exc)
print("exit", cli.main(["curve-find", "--fan", sys.argv[1]]))
fwps.one_ps_intersections = real
try:
    fwps.make_certificate(projective_space_fan(2), OnePsCurve((), (1, 1)), 0, ())
except InvariantError as exc:
    print("bound:", exc)
"""


def test_make_certificate_checks_survive_python_O(tmp_path):
    # Under -O a bare assert is stripped; the certificate checks must not be.
    import json
    import os
    import subprocess
    import sys

    import toricapprox
    from toricapprox.report import fan_to_doc
    from toricapprox.fan import projective_space_fan

    fan = tmp_path / "p2.json"
    fan.write_text(json.dumps(fan_to_doc(projective_space_fan(2))))
    src = os.path.dirname(os.path.dirname(toricapprox.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", INVARIANT_SCRIPT, str(fan)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.splitlines()
    assert out[0] == "optimize 1"
    assert out[1] == "sum: -K·C must equal the sum of ray degrees"
    assert out[2] == "exit 1"
    assert out[3] == "bound: -K·C = 3 exceeds the claimed bound 0"


def test_no_bare_assert_in_the_library():
    # python -O strips assert; every library invariant uses invariant.check.
    import ast
    import pathlib

    import toricapprox

    src = pathlib.Path(toricapprox.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
