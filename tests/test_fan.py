"""Fan construction, validation, terminality, star fans, recognition."""

import random

import pytest

from conftest import random_fan_suite

from toricapprox.fan import (
    BadWeights,
    ConeNotInFan,
    NotAFan,
    NotComplete,
    NotFwps,
    NotSimplicial,
    RayAlreadyPresent,
    build_fan,
    cone_multiplicity,
    is_projective_space,
    is_terminal,
    projective_space_fan,
    recognize_fwps,
    star_fan,
    star_subdivision,
    wps_fan,
)


def test_build_rejects_rays_of_wrong_length():
    cones = [(0, 1), (1, 2), (0, 2)]
    with pytest.raises(NotAFan, match="coordinates"):
        build_fan(2, [(1,), (0, 1), (-1, -1)], cones)
    with pytest.raises(NotAFan, match="coordinates"):
        build_fan(2, [(1, 0, 0), (0, 1, 0), (-1, -1, 0)], cones)
    with pytest.raises(NotAFan, match="negative rank"):
        build_fan(-1, [], [])


def test_require_cone_rejects_repeated_indices(p2):
    assert p2.require_cone((1, 0)) == (0, 1)
    with pytest.raises(ConeNotInFan):
        p2.require_cone((0, 0))


def test_build_rejects_half_plane():
    with pytest.raises(NotComplete):
        build_fan(2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)])


def test_build_rejects_overlapping_cones():
    # Two full-dimensional cones overlapping in their interiors.
    with pytest.raises(NotAFan):
        build_fan(
            2,
            [(1, 0), (0, 1), (-1, -1), (1, 1)],
            [(0, 1), (1, 2), (2, 0), (0, 3)],
        )


def test_build_rejects_non_simplicial():
    with pytest.raises(NotSimplicial):
        build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1, 2)])


def test_build_rejects_dependent_cone_rays():
    with pytest.raises(NotSimplicial):
        build_fan(2, [(1, 0), (-1, 0), (0, 1)], [(0, 1), (1, 2), (2, 0)])


def test_build_primitivizes_rays():
    fan = build_fan(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])
    assert fan.rays[0] == (1, 0)


def test_projective_space_fan(p2, p3):
    assert is_projective_space(p2)
    assert is_projective_space(p3)
    assert len(p2.walls) == 3
    assert is_terminal(p2)[0]


def test_wps_fan_relation(wps4713):
    q = (4, 7, 13)
    for r in range(2):
        assert sum(q[i] * wps4713.rays[i][r] for i in range(3)) == 0


def test_wps_fan_rejects_bad_weights():
    with pytest.raises(BadWeights):
        wps_fan((2, 4, 6))  # not coprime
    with pytest.raises(BadWeights):
        wps_fan((1, 2, 2))  # subset (2, 2) shares a factor
    with pytest.raises(BadWeights):
        wps_fan((0, 1, 1))


def test_cone_multiplicity(p2, wps112):
    for c in p2.max_cones:
        assert cone_multiplicity(p2, c) == 1
    mults = sorted(cone_multiplicity(wps112, c) for c in wps112.max_cones)
    assert mults == [1, 1, 2]
    with pytest.raises(ConeNotInFan):
        cone_multiplicity(p2, (0, 1, 2))


def test_is_terminal(p2, wps112, wps4713):
    assert is_terminal(p2) == (True, ())
    ok, witnesses = is_terminal(wps112)
    assert not ok and len(witnesses) == 1
    ok2, witnesses2 = is_terminal(wps4713)
    assert not ok2 and witnesses2


def test_is_terminal_p1xp1():
    fan = build_fan(
        2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]
    )
    assert is_terminal(fan) == (True, ())


def test_star_fan_of_wps_is_wps(wps4713):
    star = star_fan(wps4713, (0,))
    assert star.fan.rank == 1
    assert set(star.fan.rays) == {(1,), (-1,)}
    data = recognize_fwps(star.fan)
    # The orbit closure of the weight-4 ray is a projective line.
    assert data.weights == (1, 1)
    # b bookkeeping covers exactly the star's other rays.
    assert set(star.ray_map) == {1, 2}
    assert all(b >= 1 for b in star.b.values())


def test_star_fan_zero_cone_is_identity(p2):
    star = star_fan(p2, ())
    assert star.fan == p2
    assert star.ray_map == {0: 0, 1: 1, 2: 2}


def test_star_subdivision(p2):
    fan, replaced = star_subdivision(p2, (1, 1))
    assert fan.rays[-1] == (1, 1)
    assert len(fan.max_cones) == len(p2.max_cones) + 1
    # Only the cone containing (1,1) is replaced, by two pieces.
    assert list(replaced) == [(0, 1)]
    assert len(replaced[(0, 1)]) == 2
    with pytest.raises(RayAlreadyPresent):
        star_subdivision(p2, (1, 0))
    with pytest.raises(RayAlreadyPresent):
        # Non-primitive input is primitivized before the duplicate check.
        star_subdivision(p2, (2, 0))


def test_recognize_fwps_wps(wps4713):
    data = recognize_fwps(wps4713)
    assert data.weights == (4, 7, 13)
    assert data.cover_index == 1
    assert data.group_factors == ()


def test_recognize_fwps_quotient(p2_mu3):
    data = recognize_fwps(p2_mu3)
    assert data.weights == (1, 1, 1)
    assert data.cover_index == 3
    assert data.group_factors == (3,)
    assert is_projective_space(data.cover_fan)


def test_recognize_fwps_rejects_extra_rays(f1):
    with pytest.raises(NotFwps):
        recognize_fwps(f1)


def test_is_projective_space_negative(wps112, p2_mu3):
    assert not is_projective_space(wps112)
    assert not is_projective_space(p2_mu3)


def test_cone_containing_locates_first_cone():
    # (k, D, num) with sum num_i v_i = D·p over the k-th cone's rays, all
    # num_i >= 0, and no earlier cone has all coefficients >= 0.
    rng = random.Random(5)
    for fan, _ in random_fan_suite(random.Random(6), 12):
        points = list(fan.rays) + [
            tuple(rng.randint(-4, 4) for _ in range(fan.rank)) for _ in range(20)
        ]
        for p in points:
            k, d, num = fan.cone_containing(p)
            cone = fan.max_cones[k]
            assert d > 0 and min(num) >= 0
            assert all(
                sum(x * fan.rays[i][r] for x, i in zip(num, cone)) == d * p[r]
                for r in range(fan.rank)
            )
            assert fan.contains(k, p) == (d, num)
            for j in range(k):
                assert fan.contains(j, p) is None
                assert min(fan.scaled_coefficients(j, p)[1]) < 0
