"""Integer lattice layer: Smith normal form, primitivity, quotients."""

import random

import pytest

from toricapprox.lattice import (
    DependentKernel,
    NotFullRank,
    ZeroVector,
    invariant_factors,
    is_primitive,
    primitive_part,
    quotient_lattice,
    smith_normal_form,
    sublattice_index,
)
from toricapprox.linalg import det, identity, mat_mul, mat_vec


def _check_snf(m):
    diag, u, v, u_inv = smith_normal_form(m)
    prod = mat_mul(mat_mul(u, m), v)
    rows, cols = len(m), len(m[0])
    assert mat_mul(u, u_inv) == identity(rows)
    for i in range(rows):
        for j in range(cols):
            expected = diag[i] if i == j and i < len(diag) else 0
            assert prod[i][j] == expected
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    assert all(d >= 0 for d in diag)


def test_snf_golden_2x2():
    diag = smith_normal_form([[2, 4], [6, 8]])[0]
    assert diag == (2, 4)


def test_snf_golden_rectangular():
    diag = smith_normal_form([[1, 2, 3], [4, 5, 6]])[0]
    assert diag == (1, 3)


def test_snf_zero_matrix():
    diag = smith_normal_form([[0, 0], [0, 0]])[0]
    assert diag == (0, 0)


def test_snf_random_matrices_identity():
    rng = random.Random(20260824)
    for _ in range(60):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
        _check_snf(m)


def test_sublattice_index():
    assert sublattice_index([(2, 0), (0, 3)], 2) == 6
    assert sublattice_index([(1, 0), (0, 1)], 2) == 1
    with pytest.raises(NotFullRank):
        sublattice_index([(1, 2)], 2)


def test_invariant_factors():
    assert invariant_factors([(2, 0), (0, 2)], 2) == (2, 2)
    assert invariant_factors([(1, 0), (0, 6)], 2) == (6,)


def test_primitive_part():
    assert primitive_part((2, 4, 6)) == (1, 2, 3)
    assert primitive_part((-3, 6)) == (-1, 2)
    assert is_primitive((3, 5))
    assert not is_primitive((2, 4))
    with pytest.raises(ZeroVector):
        primitive_part((0, 0))


def test_quotient_lattice_round_trip():
    quot = quotient_lattice([(1, 2, 3)], 3)
    assert quot.rank == 2
    assert quot.apply((1, 2, 3)) == (0, 0)
    # projection . lift = identity on the quotient.
    for e in ((1, 0), (0, 1)):
        assert quot.apply(quot.lift_point(e)) == e


def test_quotient_lattice_saturates():
    # (2, 2) is not primitive; callers must pass primitive kernel generators.
    with pytest.raises(DependentKernel):
        quotient_lattice([(2, 2)], 2)
    with pytest.raises(DependentKernel):
        quotient_lattice([(1, 0), (1, 0)], 2)


def test_quotient_lattice_kernel_basis_spans():
    quot = quotient_lattice([(1, 3)], 2)
    (k,) = quot.kernel_basis
    assert k in ((1, 3), (-1, -3))


def test_quotient_random_properties():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(2, 5)
        v = tuple(rng.randrange(-5, 6) for _ in range(n))
        if all(x == 0 for x in v):
            continue
        v = primitive_part(v)
        quot = quotient_lattice([v], n)
        assert quot.rank == n - 1
        assert all(x == 0 for x in quot.apply(v))
        # The section is a genuine right inverse of the projection.
        proj_lift = mat_mul(quot.projection, quot.lift)
        assert proj_lift == identity(quot.rank)
