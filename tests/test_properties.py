"""Property-based invariants over randomized exact inputs."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from toricapprox.divisor import (
    TorusDivisor,
    canonical_divisor,
    intersect,
    is_nef,
    make_one_ps,
    one_ps_degree,
    principal_divisor,
    support_function,
    wall_curves,
)
from toricapprox.fan import projective_space_fan, wps_fan
from toricapprox.lattice import primitive_part, smith_normal_form
from toricapprox.linalg import det, identity, mat_mul

from conftest import random_fan_suite

entries = st.integers(min_value=-20, max_value=20)


@st.composite
def int_matrix(draw):
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    return [
        [draw(entries) for _ in range(cols)] for _ in range(rows)
    ]


@settings(max_examples=80, deadline=None)
@given(int_matrix())
def test_snf_diagonalizes_with_unimodular_factors(m):
    diag, u, v, u_inv = smith_normal_form(m)
    prod = mat_mul(mat_mul(u, m), v)
    assert mat_mul(u, u_inv) == identity(len(m))
    for i in range(len(m)):
        for j in range(len(m[0])):
            expected = diag[i] if i == j and i < len(diag) else 0
            assert prod[i][j] == expected
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or b % a == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(entries, min_size=1, max_size=5))
def test_primitive_part_idempotent(v):
    if all(x == 0 for x in v):
        return
    p = primitive_part(v)
    assert primitive_part(p) == p
    # p divides v componentwise by a single positive integer.
    ratios = {a // b for a, b in zip(v, p) if b != 0}
    assert len(ratios) == 1 and ratios.pop() > 0


@settings(max_examples=30, deadline=None)
@given(st.tuples(entries, entries), st.tuples(entries, entries))
def test_intersection_is_linear_p2(u1, u2):
    fan = projective_space_fan(2)
    d1 = TorusDivisor.of([u1[0], u1[1], 0])
    d2 = TorusDivisor.of([u2[0], u2[1], 0])
    for c in wall_curves(fan):
        assert intersect(fan, d1 + d2, c) == intersect(fan, d1, c) + intersect(
            fan, d2, c
        )
        assert intersect(fan, 3 * d1, c) == 3 * intersect(fan, d1, c)


@settings(max_examples=30, deadline=None)
@given(st.tuples(entries, entries))
def test_principal_divisors_trivial_on_walls(u):
    fan = wps_fan((1, 2, 3))
    d = principal_divisor(fan, u)
    for c in wall_curves(fan):
        assert intersect(fan, d, c) == 0


@settings(max_examples=25, deadline=None)
@given(st.tuples(entries, entries).filter(lambda w: any(w)))
def test_one_ps_degree_additive_in_divisor(w):
    fan = wps_fan((1, 1, 2))
    curve = make_one_ps(fan, (), w)
    d1 = TorusDivisor.of([2, 0, 0])
    d2 = TorusDivisor.of([0, 3, 1])
    lhs = one_ps_degree(fan, d1 + d2, curve)
    assert lhs == one_ps_degree(fan, d1, curve) + one_ps_degree(fan, d2, curve)


def test_nef_pullbacks_stay_nef_on_random_fans():
    rng = random.Random(424242)
    for fan, d in random_fan_suite(rng, 12):
        assert is_nef(fan, d)
        sf = support_function(fan, d)
        # Convexity: every functional under-estimates every ray coefficient.
        for u in sf.functionals:
            for i, v in enumerate(fan.rays):
                assert Fraction(sum(a * b for a, b in zip(u, v))) <= d.coeffs[i]


def test_canonical_divisor_degrees_on_random_fans():
    rng = random.Random(99)
    for fan, _ in random_fan_suite(rng, 8):
        k = canonical_divisor(fan)
        for c in wall_curves(fan):
            # Exact rational intersection; both routes agree (asserted inside
            # is_nef via support functions) and the value is bounded by the
            # classical toric bound dim+1 in absolute value only for extremal
            # wall curves of Fano type — here just check exactness/type.
            val = intersect(fan, k, c)
            assert isinstance(val, Fraction)
