"""The fraction-free elimination against the Fraction Gauss-Jordan reference."""

import random
from fractions import Fraction

from fan_oracle import (
    reference_det_adjugate,
    reference_nullspace,
    reference_rank,
    reference_solve_general,
)
from toricapprox.linalg import (
    det_adjugate,
    mat_vec,
    nullspace,
    rank,
    solve_general,
)


def _matrix(rng, rows, cols, k):
    """A rows x cols integer matrix of rank at most k, as a product."""
    left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rows)]
    right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(k)]
    return [
        [sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)]
        for i in range(rows)
    ]


def _rational(rng, m):
    """m with rows and columns scaled by nonzero Fractions (same rank)."""
    def unit():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))

    rs = [unit() for _ in m]
    cs = [unit() for _ in m[0]]
    return [[r * x * c for x, c in zip(row, cs)] for r, row in zip(rs, m)]


def test_elimination_matches_reference():
    rng = random.Random(9)
    ranks_seen = set()
    inconsistent = 0
    for _ in range(600):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        m = _matrix(rng, rows, cols, rng.randint(0, min(rows, cols)))
        if rng.random() < 0.5:
            m = _rational(rng, m)
        r = reference_rank(m)
        ranks_seen.add((min(rows, cols), r))
        assert rank(m) == r, m
        assert nullspace(m) == reference_nullspace(m), m
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        for b in (mat_vec(m, x), [rng.randint(-4, 4) for _ in range(rows)]):
            expect = reference_solve_general(m, b)
            inconsistent += expect is None
            assert solve_general(m, b) == expect, (m, b)
    # Every rank of every size up to 6 occurs, and so do inconsistent systems.
    assert ranks_seen >= {(s, r) for s in range(1, 7) for r in range(s + 1)}
    assert inconsistent > 50


def test_det_adjugate_matches_reference():
    rng = random.Random(10)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        m = _matrix(rng, n, n, rng.randint(0, n))
        expect = reference_det_adjugate(m)
        singular += expect[0] == 0
        assert det_adjugate(m) == expect, m
    assert 50 < singular < 250


def test_elimination_edge_cases():
    assert rank([]) == 0
    assert solve_general([], []) == ()
    assert nullspace([]) == []
    assert rank([[0, 0], [0, 0]]) == 0
    assert nullspace([[0, 0]]) == [(1, 0), (0, 1)]
    assert solve_general([[0, 0]], [1]) is None
    assert det_adjugate([[0, 1], [1, 0]]) == (-1, ((0, -1), (-1, 0)))
    assert det_adjugate([[2, 4], [1, 2]]) == (0, None)
