"""Shared fixtures: standard fans and a deterministic random-fan builder."""

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from itertools import combinations

import pytest

from toricapprox.divisor import TorusDivisor, is_nef, support_function
from toricapprox.fan import (
    Fan,
    build_fan,
    projective_space_fan,
    star_subdivision,
    wps_fan,
)


@pytest.fixture
def p2():
    return projective_space_fan(2)


@pytest.fixture
def p3():
    return projective_space_fan(3)


@pytest.fixture
def f1():
    """Hirzebruch surface: the blowup of the projective plane at a point."""
    return build_fan(
        2, [(1, 0), (0, 1), (-1, 1), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]
    )


@pytest.fixture
def wps4713():
    return wps_fan((4, 7, 13))


@pytest.fixture
def wps112():
    return wps_fan((1, 1, 2))


@pytest.fixture
def p2_mu3():
    """Quotient of the projective plane by a scalar-free order-3 action."""
    return build_fan(2, [(1, 0), (1, 3), (-2, -3)], [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def p2_mu9():
    """P^2 divided by a cyclic group of order 9 (scalar-free in codim 1)."""
    return build_fan(2, [(1, 2), (1, -7), (-2, 5)], [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def p3_mu2():
    """P^3 divided by an order-2 scalar-free action."""
    return build_fan(
        3,
        [(2, -1, 0), (0, 1, 0), (0, 0, 1), (-2, 0, -1)],
        list(combinations(range(4), 3)),
    )


@pytest.fixture
def francia():
    """A threefold with a K-negative small contraction (one flip available)."""
    return build_fan(
        3,
        [(1, 0, 0), (0, 1, 0), (1, 1, 1), (1, 0, -1), (-3, -2, 0)],
        [(0, 2, 3), (1, 2, 3), (4, 1, 2), (4, 1, 3), (4, 0, 3), (4, 0, 2)],
    )


def twisted_prism(perturbed: bool = False) -> Fan:
    """A complete simplicial threefold fan that is not projective.

    Two triangles, at heights -1 and 1, joined by a twisted band of
    triangles.  Its three wall classes (-1,1,0,1,-1,0), (0,-1,1,0,1,-1)
    and (1,0,-1,-1,0,1) sum to 0, so NE(X) contains a line; all three are
    flips with K·C = 0, so no extremal ray is K-negative.  `perturbed`
    moves the rays keeping the cones: then one extremal ray is a K-negative
    flip, and the chain on D = 0 runs a flip, a divisorial contraction and
    a Mori fiber step.
    """
    rays = (
        [(1, -1, -1), (-1, 2, -1), (-1, -1, -1), (2, 0, 1), (0, 1, 1), (-1, 0, 1)]
        if perturbed else
        [(1, 0, -1), (0, 1, -1), (-1, -1, -1), (1, 0, 1), (0, 1, 1), (-1, -1, 1)]
    )
    return build_fan(3, rays, [
        (0, 1, 2), (3, 4, 5), (0, 1, 4), (0, 3, 4),
        (1, 2, 5), (1, 4, 5), (0, 2, 3), (2, 3, 5),
    ])


def subdivided_fan_with_nef(rng, base: Fan, base_divisor: TorusDivisor, steps: int):
    """Star-subdivide a fan repeatedly, pulling the nef divisor back exactly.

    Subdivision centers are interior points of randomly chosen maximal
    cones, so every intermediate fan stays complete and simplicial and the
    pulled-back divisor stays nef.
    """
    fan, d = base, base_divisor
    for _ in range(steps):
        cone = fan.max_cones[rng.randrange(len(fan.max_cones))]
        weights = [rng.choice([1, 1, 2]) for _ in cone]
        center = tuple(
            sum(w * fan.rays[i][r] for w, i in zip(weights, cone))
            for r in range(fan.rank)
        )
        from toricapprox.lattice import primitive_part

        center = primitive_part(center)
        if center in fan.rays:
            continue
        value = support_function(fan, d)(center)
        fan2, _ = star_subdivision(fan, center)
        d = TorusDivisor(d.coeffs + (value,))
        assert is_nef(fan2, d)
        fan, d = fan2, d
    return fan, d


def random_fan_suite(rng, count: int):
    """Deterministic stream of (fan, nef divisor) pairs of rank 2 and 3."""
    bases = [
        (projective_space_fan(2), TorusDivisor.of([1, 0, 0])),
        (projective_space_fan(3), TorusDivisor.of([2, 0, 0, 0])),
        (wps_fan((1, 1, 2)), TorusDivisor.of([2, 0, 0])),
        (wps_fan((1, 2, 3)), TorusDivisor.of([6, 0, 0])),
        (
            build_fan(2, [(1, 0), (1, 3), (-2, -3)], [(0, 1), (0, 2), (1, 2)]),
            TorusDivisor.of([3, 0, 0]),
        ),
    ]
    out = []
    while len(out) < count:
        base, d0 = bases[rng.randrange(len(bases))]
        assert is_nef(base, d0)
        fan, d = subdivided_fan_with_nef(rng, base, d0, rng.randrange(1, 4))
        out.append((fan, d))
    return out


def hirzebruch_fan(a: int) -> Fan:
    """The Hirzebruch surface F_a (F_0 = P^1 x P^1, F_1 = the blown-up plane)."""
    return build_fan(
        2, [(1, 0), (0, 1), (-1, a), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]
    )


def smooth_surface_suite(max_a: int, blowups: int, nef_draws: int = 5):
    """(fan, divisors) pairs over smooth complete toric surfaces.

    The fans are P^2 and F_0 ... F_max_a, each with every sequence of at most
    `blowups` blowups at torus-fixed points (star subdivision at v_i + v_j of
    a maximal cone), deduplicated by rays and cones.  Every smooth complete
    toric surface is one of these for some max_a and blowups (Oda 1978;
    Fulton, *Introduction to Toric Varieties*, 2.5).  The divisors are D = 0
    and up to `nef_draws` distinct nef vectors with entries 0-3, drawn from a
    `random.Random` seeded by the fan's rays, so a fan gets the same divisors
    in every slice of the suite.
    """
    import random

    fans = {}

    def grow(fan, depth):
        fans.setdefault(fan, None)
        if depth < blowups:
            for i, j in fan.max_cones:
                v = tuple(x + y for x, y in zip(fan.rays[i], fan.rays[j]))
                grow(star_subdivision(fan, v)[0], depth + 1)

    for base in [projective_space_fan(2)] + [
        hirzebruch_fan(a) for a in range(max_a + 1)
    ]:
        grow(base, 0)
    out = []
    for fan in fans:
        rng = random.Random(repr(fan.rays))
        divisors = [TorusDivisor.of([0] * len(fan.rays))]
        for _ in range(50):
            if len(divisors) > nef_draws:
                break
            d = TorusDivisor.of([rng.randrange(4) for _ in fan.rays])
            if d not in divisors and is_nef(fan, d):
                divisors.append(d)
        out.append((fan, tuple(divisors)))
    return out


def all_orbit_cones(fan: Fan):
    """The zero cone and every cone of the fan (one per orbit stratum)."""
    out = [()]
    for k in range(1, fan.rank + 1):
        for c in combinations(range(len(fan.rays)), k):
            if fan.has_cone(c):
                out.append(c)
    return out


def well_formed_weight_vectors(length: int, max_sum: int):
    """Non-decreasing well-formed weight vectors of the given length.

    Well-formed: positive, coprime, and every (length-1)-subset coprime —
    exactly the vectors wps_fan accepts.
    """
    from itertools import combinations_with_replacement
    from math import gcd

    out = []
    for q in combinations_with_replacement(range(1, max_sum + 1), length):
        if sum(q) > max_sum:
            continue
        ok = True
        for i in range(-1, length):
            rest = q if i < 0 else q[:i] + q[i + 1:]
            g = 0
            for x in rest:
                g = gcd(g, x)
            if (i < 0 and g != 1) or (i >= 0 and g != 1):
                ok = False
                break
        if ok:
            out.append(q)
    return out


def hermite_forms(n: int, dets):
    """Every n x n integer matrix in row-style Hermite normal form whose
    determinant is in `dets`: upper triangular, positive diagonal, each
    entry above the diagonal reduced modulo the diagonal entry below it.

    Each is the unique such form of its orbit under left multiplication by
    GL(n, Z), so H -> H^-1·Z^n runs once over the lattices that contain
    Z^n with index det H; H·v is v written in a basis of that lattice."""
    from itertools import product
    from math import prod

    above = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in product(range(1, max(dets) + 1), repeat=n):
        if prod(diag) not in dets:
            continue
        for vals in product(*(range(diag[j]) for _, j in above)):
            h = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), x in zip(above, vals):
                h[i][j] = x
            yield tuple(map(tuple, h))


def fake_wps_suite(max_index: int = 6):
    """Fake weighted projective spaces of rank 2 and 3.

    The rays of wps_fan(q), for every well-formed q of length 3 (sum <= 16)
    and of length 4 (sum <= 9), are mapped by every Hermite form
    (`hermite_forms`) of determinant 2..max_index; a fan is kept when every
    ray image is primitive.  Each is then the fan of a fake weighted
    projective space with weights q whose cover lattice has that index,
    and each such lattice appears once: 1523 fans for max_index 6.
    """
    from math import gcd

    from toricapprox.linalg import mat_vec

    out = []
    for q in well_formed_weight_vectors(3, 16) + well_formed_weight_vectors(4, 9):
        base = wps_fan(q)
        for h in hermite_forms(base.rank, range(2, max_index + 1)):
            rays = [mat_vec(h, v) for v in base.rays]
            if all(gcd(*v) == 1 for v in rays):
                out.append(build_fan(base.rank, rays, base.max_cones))
    return out
