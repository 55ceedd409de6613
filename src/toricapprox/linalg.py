"""Exact rational linear algebra helpers.

Everything here works on plain tuples/lists of ints or Fractions.  Matrices
are sequences of rows.  These routines back the lattice and fan modules; they
are deliberately small-scale (ranks up to ~6, a few dozen constraints) and
favour clarity over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Vec = tuple
Mat = tuple


def vec_dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def mat_vec(m: Sequence, v: Sequence):
    return tuple(vec_dot(row, v) for row in m)


def mat_mul(a: Sequence, b: Sequence):
    bt = list(zip(*b))
    return tuple(tuple(vec_dot(row, col) for col in bt) for row in a)


def identity(n: int):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def det(m: Sequence) -> int:
    """Determinant of a square integer matrix."""
    return det_adjugate(m)[0]


def _rref(m: list, cols: int) -> list:
    """Gauss-Jordan over Fractions, in place, on the first cols columns of
    the rows m; pivot rows are scaled to 1.  Returns the pivot columns."""
    pivots = []
    for col in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
    return pivots


def rank(m: Sequence) -> int:
    rows = [[Fraction(x) for x in row] for row in m]
    return len(_rref(rows, len(rows[0]) if rows else 0))


def det_adjugate(m: Sequence):
    """(det m, adj m) of a square integer matrix, by fraction-free elimination.

    Bareiss's Gauss-Jordan variant on [m | I]: every intermediate entry is a
    minor of the augmented matrix, so each division is exact and no Fraction
    is made.  On exit the left block is p·I and the right block p·m^-1, with
    p the last pivot, which is det m up to the sign of the row swaps.
    Returns (0, None) when m is singular.
    """
    n = len(m)
    a = [
        list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)
    ]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        p = pivot_row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [
                    (p * x - f * y) // prev for x, y in zip(a[i], pivot_row)
                ]
        prev = p
    return sign * prev, tuple(tuple(sign * x for x in row[n:]) for row in a)


def unimodular_inverse(u: Sequence) -> tuple:
    """Exact integer inverse of a matrix with determinant +-1 (rows)."""
    d, adj = det_adjugate(u)
    assert d in (1, -1), "matrix is not unimodular"
    return tuple(tuple(d * x for x in row) for row in adj)


def solve_general(a: Sequence, b: Sequence):
    """One rational solution of a·x = b (possibly under/overdetermined).

    Returns None when inconsistent.
    """
    cols = len(a[0]) if a else 0
    aug = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    pivots = _rref(aug, cols)
    if any(row[cols] != 0 for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for i, col in enumerate(pivots):
        x[col] = aug[i][cols]
    return tuple(x)


def nullspace(a: Sequence):
    """Basis of the rational kernel of a (list of Fraction tuples)."""
    cols = len(a[0]) if a else 0
    m = [[Fraction(x) for x in row] for row in a]
    pivots = _rref(m, cols)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(tuple(v))
    return basis


def clear_denominators(v: Sequence[Fraction]) -> tuple:
    """Scale a rational vector to a primitive integer vector (same direction)."""
    from math import lcm

    denoms = [Fraction(x).denominator for x in v]
    mult = 1
    for d in denoms:
        mult = lcm(mult, d)
    ints = [int(Fraction(x) * mult) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def nonneg_combination(columns: Sequence, target: Sequence):
    """Exact feasibility of  sum_j x_j col_j = target,  x_j >= 0.

    Phase-1 simplex with Bland's rule over Fractions.  Returns a tuple of
    coefficients if feasible, else None.
    """
    m = len(target)
    n = len(columns)
    # Orient rows so all right-hand sides are >= 0.
    a = [[Fraction(columns[j][i]) for j in range(n)] for i in range(m)]
    b = [Fraction(t) for t in target]
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    # Tableau with artificial variables; minimize their sum.
    # Columns: n structural + m artificial.
    tab = [a[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)] + [b[i]]
           for i in range(m)]
    basis = [n + i for i in range(m)]
    # Objective row for sum of artificials (reduced costs).
    obj = [Fraction(0)] * (n + m) + [Fraction(0)]
    for i in range(m):
        for j in range(n + m + 1):
            obj[j] -= tab[i][j]
    for j in range(n, n + m):
        obj[j] += Fraction(1)
    while True:
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            return None  # unbounded; cannot happen for a feasibility phase
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        f = obj[enter]
        obj = [x - f * y for x, y in zip(obj, tab[leave] + [])]
        basis[leave] = enter
    total = sum(tab[i][-1] for i in range(m) if basis[i] >= n)
    if total != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i][-1]
    return tuple(x)
