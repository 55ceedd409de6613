"""Reference fan validator: pairwise face enumeration and a probe grid.

`reference_build` validates a fan the slow, direct way: any two maximal
cones must meet in the cone over their common rays (checked by enumerating
the extreme rays of the intersection), and every direction of the 3^rank
grid must lie in some maximal cone.  It serves as the differential oracle
for `toricapprox.fan.build_fan`, which uses a sign-test certificate.

`reference_rank`, `reference_solve_general` and `reference_nullspace` are
Gauss-Jordan over Fractions, with pivot rows scaled to 1, and
`reference_det_adjugate` is Gaussian elimination over Fractions; they are
the references for the fraction-free elimination of `toricapprox.linalg`,
and the validator below uses them.

`reference_off_ray_index` computes the index of an off-wall ray's image in
N / sat(span(wall)) from an explicit quotient lattice; it is the reference
for the `beta_a` / `beta_b` that `toricapprox.divisor.wall_curves` reads
off the cone inverses.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from toricapprox.fan import NotAFan, NotComplete, NotSimplicial
from toricapprox.lattice import primitive_part, quotient_lattice
from toricapprox.linalg import clear_denominators, vec_dot


def _rref(m, cols):
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


def reference_rank(m):
    rows = [[Fraction(x) for x in row] for row in m]
    return len(_rref(rows, len(rows[0]) if rows else 0))


def reference_solve_general(a, b):
    """One rational solution of a·x = b with free variables 0, or None."""
    cols = len(a[0]) if a else 0
    aug = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    pivots = _rref(aug, cols)
    if any(row[cols] != 0 for row in aug[len(pivots):]):
        return None
    x = [Fraction(0)] * cols
    for i, col in enumerate(pivots):
        x[col] = aug[i][cols]
    return tuple(x)


def reference_nullspace(a):
    """Kernel basis, one vector per non-pivot column of the RREF."""
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


def reference_det_adjugate(m):
    """(det m, adj m) of a square matrix over Fractions; (0, None) when
    singular.  det is the signed product of the pivots, adj = det·m^-1."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return 0, None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    inverse = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    _rref(inverse, n)
    return det, tuple(tuple(det * x for x in row[n:]) for row in inverse)


def solve_square(a, b):
    """Solve a·x = b for square nonsingular a; returns None if singular."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def cone_extreme_rays(inequalities, equalities, dim):
    """Extreme rays of {x : A_ineq x >= 0, A_eq x = 0} for a pointed cone.

    Enumerates candidate rays as kernels of (dim-1)-subsets of the active
    constraint set.  Returns primitive integer generators, deduplicated.
    """
    cons = [tuple(row) for row in inequalities]
    eqs = [tuple(row) for row in equalities]
    found = {}
    need = dim - 1 - reference_rank(eqs) if eqs else dim - 1
    if need < 0:
        need = 0
    for subset in combinations(range(len(cons)), need):
        system = eqs + [cons[i] for i in subset]
        kern = reference_nullspace(system) if system else [
            tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)
        ]
        if len(kern) != 1:
            continue
        v = clear_denominators(kern[0])
        for cand in (v, tuple(-x for x in v)):
            if all(vec_dot(row, cand) >= 0 for row in cons) and all(
                vec_dot(row, cand) == 0 for row in eqs
            ):
                found[cand] = True
    return list(found.keys())


def validate_pairwise_faces(rank_, rays, max_cones):
    """Any two maximal cones must intersect in the cone of their common rays."""

    def ineq_rows(cone):
        # x in cone  <=>  M^{-1} x >= 0 where M has the rays as columns.
        m = tuple(tuple(rays[i][r] for i in cone) for r in range(rank_))
        rows = []
        for k in range(rank_):
            e = [Fraction(int(j == k)) for j in range(rank_)]
            # row k of M^{-1}: solve M^T y = e_k
            rows.append(clear_denominators(solve_square(tuple(zip(*m)), e)))
        return rows

    cached = {c: ineq_rows(c) for c in max_cones}
    for a, b in combinations(max_cones, 2):
        common = sorted(set(a) & set(b))
        extreme = cone_extreme_rays(cached[a] + cached[b], [], rank_)
        expected = {primitive_part(rays[i]) for i in common}
        if {tuple(v) for v in extreme} != expected:
            raise NotAFan(
                f"cones {a} and {b} do not intersect in a common face"
            )


def _in_cone(rays, cone, point):
    m = tuple(tuple(rays[i][r] for i in cone) for r in range(len(point)))
    lam = reference_solve_general(m, point)
    return lam is not None and all(x >= 0 for x in lam)


def reference_build(rank_, rays, max_cones):
    """Walls of the fan after the reference validation, or the FanError.

    Same contract as build_fan: NotSimplicial, NotComplete or NotAFan on
    invalid input; returns the walls (wall, cone_a, cone_b) otherwise.
    """
    if rank_ == 0:
        return ()
    prim = tuple(primitive_part(v) for v in rays)
    if len(set(prim)) != len(prim):
        raise NotAFan("duplicate rays")
    cones = tuple(tuple(sorted(c)) for c in max_cones)
    if len(set(cones)) != len(cones):
        raise NotAFan("duplicate maximal cones")
    for c in cones:
        if len(c) != rank_:
            raise NotSimplicial(f"maximal cone {c} does not have {rank_} rays")
        if any(i < 0 or i >= len(prim) for i in c):
            raise NotAFan(f"cone {c} references a missing ray")
        m = tuple(tuple(prim[i][r] for i in c) for r in range(rank_))
        if reference_det_adjugate(m)[0] == 0:
            raise NotSimplicial(f"rays of cone {c} are dependent")
    if {i for c in cones for i in c} != set(range(len(prim))):
        raise NotAFan("unused rays in ray table")
    incidence = {}
    for c in cones:
        for w in combinations(c, rank_ - 1):
            incidence.setdefault(w, []).append(c)
    walls = []
    for w in sorted(incidence):
        owners = incidence[w]
        if len(owners) == 1:
            raise NotComplete(f"wall {w} lies on only one maximal cone")
        if len(owners) > 2:
            raise NotAFan(f"wall {w} lies on {len(owners)} maximal cones")
        a, b = sorted(owners)
        walls.append((w, a, b))
    validate_pairwise_faces(rank_, prim, cones)
    for probe in product((-1, 0, 1), repeat=rank_):
        if any(probe) and not any(_in_cone(prim, c, probe) for c in cones):
            raise NotComplete(f"direction {probe} is not covered")
    return tuple(walls)


def reference_off_ray_index(fan, wall, ray):
    """|image of v_ray| in the rank-1 lattice N / sat(span(wall))."""
    if wall:
        quot = quotient_lattice([fan.rays[i] for i in wall], fan.rank)
        img = quot.apply(fan.rays[ray])
    else:
        img = fan.rays[ray]
    return abs(img[0]) if len(img) == 1 else abs(
        img[next(j for j, x in enumerate(img) if x != 0)]
    )
