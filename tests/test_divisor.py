"""Divisors, support functions, exact intersection numbers, 1-PS degrees."""

import random
from fractions import Fraction

import pytest

from toricapprox.divisor import (
    DivisorError,
    TorusDivisor,
    ZeroWeight,
    canonical_divisor,
    intersect,
    intersect_via_relation,
    is_nef,
    linear_equivalence,
    make_one_ps,
    one_ps_degree,
    one_ps_intersections,
    principal_divisor,
    ray_divisor,
    restrict_to_orbit_closure,
    support_function,
    support_value,
    wall_curves,
)
from toricapprox.approx import theorem16_driver
from toricapprox.fan import (
    ConeNotInFan,
    projective_space_fan,
    recognize_fwps,
    star_fan,
    wps_fan,
)
from toricapprox.fwps import fwps_curve

from conftest import (
    all_orbit_cones,
    random_fan_suite,
    smooth_surface_suite,
    well_formed_weight_vectors,
)
from divisor_oracle import one_ps_degree_by_functionals, support_value_by_functionals
from fan_oracle import reference_off_ray_index


def test_support_function_p2(p2):
    d = TorusDivisor.of([1, 0, 0])
    sf = support_function(p2, d)
    assert sf.cartier_index == 1
    assert sf((1, 0)) == 1
    assert sf((0, 1)) == 0
    assert sf((-1, -1)) == 0
    assert sf((2, 3)) == 2  # linear on the cone of rays 0 and 1


def test_cartier_index_wps(wps112):
    # O(1) on the (1,1,2) plane is Q-Cartier with index 2 at the singular chart.
    d = TorusDivisor.of([1, 0, 0])
    assert support_function(wps112, d).cartier_index == 2


def test_wall_curve_relations_sum_to_zero(f1):
    for c in wall_curves(f1):
        for r in range(f1.rank):
            assert sum(b * f1.rays[i][r] for i, b in enumerate(c.relation)) == 0


def test_intersection_routes_agree(p2, f1, wps4713, p2_mu3, francia):
    for fan in (p2, f1, wps4713, p2_mu3, francia):
        for i in range(len(fan.rays)):
            d = ray_divisor(fan, i)
            for c in wall_curves(fan):
                assert intersect(fan, d, c) == intersect_via_relation(fan, d, c)


def test_wall_betas_match_reference(p2, p3, f1, wps4713, wps112, p2_mu3, francia):
    # Both intersection routes divide by a beta, so only this comparison
    # catches a wrong one.
    fans = [p2, p3, f1, wps4713, wps112, p2_mu3, francia]
    fans += [fan for fan, _ in random_fan_suite(random.Random(3), 60)]
    for fan in fans:
        for c in wall_curves(fan):
            assert c.beta_a == reference_off_ray_index(fan, c.wall, c.off_a)
            assert c.beta_b == reference_off_ray_index(fan, c.wall, c.off_b)


def test_principal_divisors_numerically_trivial(f1, wps4713, francia):
    for fan in (f1, wps4713, francia):
        for u in ((1, 0), (0, 1), (1, 1))[: fan.rank] + ((1,) * fan.rank,):
            d = principal_divisor(fan, u)
            for c in wall_curves(fan):
                assert intersect(fan, d, c) == 0


def test_f1_intersection_table(f1):
    # Ray 1 is the exceptional curve: E^2 = -1; ray 2 is a fiber, squaring to 0.
    e_wall = next(c for c in wall_curves(f1) if set(c.wall) == {1})
    assert intersect(f1, ray_divisor(f1, 1), e_wall) == -1
    fiber_wall = next(c for c in wall_curves(f1) if set(c.wall) == {2})
    assert intersect(f1, ray_divisor(f1, 2), fiber_wall) == 0
    k = canonical_divisor(f1)
    assert intersect(f1, -1 * k, e_wall) == 1
    assert intersect(f1, -1 * k, fiber_wall) == 2


def test_is_nef(p2, f1):
    assert is_nef(p2, TorusDivisor.of([1, 0, 0]))
    assert not is_nef(p2, TorusDivisor.of([-1, 0, 0]))
    # The pullback of a line through the blown-up point is nef; E is not.
    assert is_nef(f1, TorusDivisor.of([1, 1, 0, 0]))
    assert not is_nef(f1, TorusDivisor.of([0, 1, 0, 0]))


def test_linear_equivalence(p2):
    d1 = ray_divisor(p2, 0)
    d2 = ray_divisor(p2, 1)
    u = linear_equivalence(p2, d1, d2)
    assert u is not None
    assert d1 - d2 == principal_divisor(p2, u)
    # O(1) and O(2) are not linearly equivalent.
    assert linear_equivalence(p2, d1, 2 * d1) is None


def test_make_one_ps_validation(p2):
    with pytest.raises(ZeroWeight):
        make_one_ps(p2, (), (0, 0))
    with pytest.raises(ConeNotInFan):
        make_one_ps(p2, (0, 1, 2), (1,))
    c = make_one_ps(p2, (), (2, 4))
    assert c.w == (1, 2)


def test_one_ps_degree_torus(p2, wps4713):
    # A line in the plane against O(1).
    d = TorusDivisor.of([1, 0, 0])
    assert one_ps_degree(p2, d, make_one_ps(p2, (), (1, 0))) == 1
    # The weight-13 one-parameter subgroup on the (4,7,13) plane against
    # O(364) = 91 D_x has degree 364/13 · (13/13·...) = 28.
    d364 = TorusDivisor.of([91, 0, 0])
    curve = make_one_ps(wps4713, (), wps4713.rays[2])
    assert one_ps_degree(wps4713, d364, curve) == 28


def test_one_ps_degree_orbit_closure(f1):
    # Restricting the pullback of O(1) to the exceptional curve gives 0.
    d = TorusDivisor.of([1, 1, 0, 0])
    curve = make_one_ps(f1, (1,), (1,))
    assert one_ps_degree(f1, d, curve) == 0
    # -K restricted to the exceptional curve has degree 1.
    assert one_ps_degree(f1, -1 * canonical_divisor(f1), curve) == 1


def test_restrict_to_orbit_closure_wps(wps4713):
    # V(ray 1) is a projective line; O(364) restricts with positive degree.
    star, restricted = restrict_to_orbit_closure(
        wps4713, TorusDivisor.of([91, 0, 0]), (1,)
    )
    assert star.fan.rank == 1
    total = sum(restricted.coeffs)
    assert total == Fraction(364, 4 * 13)


def test_degree_of_wall_curve(p2):
    c = wall_curves(p2)[0]
    for i in range(len(p2.rays)):
        assert intersect(p2, ray_divisor(p2, i), c) == 1


def test_support_function_outside_support():
    # No complete-fan point is outside; exercise the error via a support
    # function evaluated after constructing it for a valid fan but probing
    # with the zero vector, which every cone contains.
    from toricapprox.fan import projective_space_fan

    fan = projective_space_fan(2)
    sf = support_function(fan, TorusDivisor.of([1, 0, 0]))
    assert sf((0, 0)) == 0


def _orbit_curves(fan, rng):
    """Per orbit cone with a curve: the torus curve of each star ray and
    three seeded weights."""
    for tau in all_orbit_cones(fan):
        star = star_fan(fan, tau).fan
        if star.rank == 0:
            continue
        weights = list(star.rays) + [
            tuple(rng.randint(-6, 6) for _ in range(star.rank)) for _ in range(3)
        ]
        for w in weights:
            if any(w):
                yield make_one_ps(fan, tau, w)


def _check_one_pass(fan, rng):
    """The per-ray support-function route is the oracle for every entry."""
    for c in _orbit_curves(fan, rng):
        inters = one_ps_intersections(fan, c)
        oracle = tuple(
            one_ps_degree(fan, ray_divisor(fan, i), c)
            for i in range(len(fan.rays))
        )
        assert inters == oracle, (fan.rays, c)
        for r in range(fan.rank):
            assert sum(x * v[r] for x, v in zip(inters, fan.rays)) == 0


def test_one_ps_intersections_match_per_ray_wps():
    rng = random.Random(5)
    for length, max_sum in ((3, 20), (4, 12)):
        for weights in well_formed_weight_vectors(length, max_sum):
            _check_one_pass(wps_fan(weights), rng)


def test_one_ps_intersections_match_per_ray_fake_wps(p2_mu3, p2_mu9, p3_mu2):
    rng = random.Random(6)
    for fan in (p2_mu3, p2_mu9, p3_mu2):
        _check_one_pass(fan, rng)


def test_one_ps_intersections_match_per_ray_random_fans():
    rng = random.Random(7)
    for fan, _ in random_fan_suite(random.Random(4), 40):
        _check_one_pass(fan, rng)


def _certificate_curves(fan, nef_divisors):
    """The curve of every certificate the library makes on the fan: for
    each orbit, `fwps_curve` on a (fake) weighted projective space (no nef
    divisors given), else `theorem16_driver` for each nef divisor."""
    for orbit in all_orbit_cones(fan):
        if nef_divisors is None:
            yield fwps_curve(recognize_fwps(fan), orbit).curve
            continue
        for d in nef_divisors:
            res = theorem16_driver(fan, d, orbit, assume_canonically_bounded=True)
            assert res.certificate.fan is fan
            yield res.certificate.curve


def _support_value_cases(francia, fake_wps):
    """(fan, nef divisors or None for an fwps) over P^1-P^4, weighted and
    fake weighted projective spaces, random_fan_suite, francia and
    smooth_surface_suite(2, 1) (one nef divisor per fan, the last drawn)."""
    wps = well_formed_weight_vectors(3, 12) + well_formed_weight_vectors(4, 8)
    for fan in [projective_space_fan(n) for n in range(1, 5)] + [
        wps_fan(q) for q in wps
    ] + list(fake_wps):
        yield fan, None
    for fan, d in random_fan_suite(random.Random(2), 8):
        yield fan, (d,)
    francia_d = TorusDivisor.of([2, 4, 3, 3, 6])
    yield francia, tuple(m * francia_d for m in (1, 2, 3))
    for fan, nef in smooth_surface_suite(2, 1):
        yield fan, nef[-1:]


def test_support_value_matches_the_functional_route(francia, p2_mu3, p2_mu9, p3_mu2):
    # Barycentric coordinates against the per-cone functionals: at every
    # ray of the fan, and at every ray and at +-w of every certificate's
    # curve on the star fan of its orbit, for -K, the nef divisors and
    # seeded random rational divisors.  Each divisor's degree on a curve is
    # also the sum of d_i·(D_i·C) from the one-pass intersection vector.
    rng = random.Random(12)
    curves = 0
    for fan, nef in _support_value_cases(francia, (p2_mu3, p2_mu9, p3_mu2)):
        divisors = [-1 * canonical_divisor(fan), *(nef or ())] + [
            TorusDivisor.of(
                Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in fan.rays
            )
            for _ in range(2)
        ]
        for d in divisors:
            for v in fan.rays:
                assert support_value(fan, d, v) == support_value_by_functionals(
                    fan, d, v
                )
        for c in _certificate_curves(fan, nef):
            curves += 1
            inters = one_ps_intersections(fan, c)
            neg_w = tuple(-x for x in c.w)
            for d in divisors:
                sub, sub_d = fan, d
                if c.tau:
                    star, sub_d = restrict_to_orbit_closure(fan, d, c.tau)
                    sub = star.fan
                for p in (*sub.rays, c.w, neg_w):
                    assert support_value(sub, sub_d, p) == (
                        support_value_by_functionals(sub, sub_d, p)
                    ), (fan, d, c, p)
                degree = one_ps_degree(fan, d, c)
                assert degree == one_ps_degree_by_functionals(fan, d, c)
                assert degree == sum(x * y for x, y in zip(d.coeffs, inters))
    assert curves > 700, curves
