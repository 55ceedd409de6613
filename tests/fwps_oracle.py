"""Reference routes for fake weighted projective spaces: Fraction lattice
maps and per-coordinate solves.

These are the former implementations, kept as differential oracles:

- `reference_recognize_fwps` finds the weights as the `nullspace` of the
  ray matrix and the cover rays through the rational matrix
  `ambient_to_cover` = diag^-1·u of the Smith form of the rays; it is the
  reference for `toricapprox.fan.recognize_fwps`, which reads the weights
  off the inverse of the cone of the first rank rays.
- `reference_mu_p_residues` solves for each character m_i over the cover
  rays and pairs it with a standard basis vector whose image under
  `ambient_to_cover` has denominator p.
- `reference_intermediate_quotient` scales a basis vector by the lcm of
  its image's denominators and solves for every ray in the new basis.
- `reference_fiber` rewrites each ray image in the fiber lattice with
  `solve_general`, after a second quotient by the span of the images.

`reference_is_projective_space` is the former predicate that also checks
every maximal cone for multiplicity 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from toricapprox.fan import (
    FwpsData,
    NotFwps,
    build_fan,
    cone_multiplicity,
)
from toricapprox.fwps import FiberData
from toricapprox.lattice import (
    _quotient_by_span,
    primitive_part,
    smith_normal_form,
    sublattice_index,
)
from toricapprox.linalg import (
    clear_denominators,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    solve_general,
    vec_dot,
)


def _ambient_to_cover(fan):
    """diag^-1·u for the Smith form u·M·v = diag of the ray matrix M."""
    n = fan.rank
    cols = tuple(tuple(fan.rays[i][r] for i in range(n + 1)) for r in range(n))
    diag, u, _, _ = smith_normal_form(cols)
    return tuple(
        tuple(Fraction(u[j][r], diag[j]) for r in range(n)) for j in range(n)
    )


def reference_recognize_fwps(fan) -> FwpsData:
    n = fan.rank
    if len(fan.rays) != n + 1:
        raise NotFwps(
            f"fan has {len(fan.rays)} rays, a rank-{n} fwps needs {n + 1}"
        )
    cols = tuple(tuple(fan.rays[i][r] for i in range(n + 1)) for r in range(n))
    kern = nullspace(cols)
    if len(kern) != 1:
        raise NotFwps("rays admit more than one relation")
    rel = clear_denominators(kern[0])
    if all(x < 0 for x in rel):
        rel = tuple(-x for x in rel)
    if not all(x > 0 for x in rel):
        raise NotFwps(f"ray relation {rel} is not positive")
    diag, u, _, uinv = smith_normal_form(cols)
    index = prod(diag)
    cover_to_ambient = tuple(
        tuple(uinv[r][j] * diag[j] for j in range(n)) for r in range(n)
    )
    ambient_to_cover = _ambient_to_cover(fan)
    cover_rays = [
        tuple(int(x) for x in mat_vec(ambient_to_cover, v)) for v in fan.rays
    ]
    cover = build_fan(n, cover_rays, fan.max_cones)
    assert cover.rays == tuple(tuple(r) for r in cover_rays)
    assert sublattice_index(cover.rays, n) == 1
    return FwpsData(
        fan=fan,
        weights=rel,
        cover_index=index,
        cover_fan=cover,
        cover_to_ambient=cover_to_ambient,
        group_factors=tuple(d for d in diag if d > 1),
    )


def _basis_vectors(n: int):
    for k in range(n):
        yield tuple(1 if r == k else 0 for r in range(n))


def reference_mu_p_residues(data: FwpsData) -> tuple:
    """For W = P^n/mu_p: p·<m_i, xi> mod p, then 0 for x_n."""
    n = data.fan.rank
    p = data.cover_index
    ambient_to_cover = _ambient_to_cover(data.fan)
    rays = data.cover_fan.rays
    xi = None
    for cand in _basis_vectors(n):
        img = mat_vec(ambient_to_cover, cand)
        if any(Fraction(x).denominator == p for x in img):
            xi = img
            break
    assert xi is not None
    res = []
    for i in range(n):
        rows = [rays[k] for k in range(n + 1)]
        target = [(1 if k == i else 0) - (1 if k == n else 0) for k in range(n + 1)]
        m = solve_general(rows, target)
        res.append(int(p * vec_dot(m, xi)) % p)
    res.append(0)
    return tuple(res)


def reference_intermediate_quotient(data: FwpsData, p: int) -> tuple:
    """(fan on N'' = N' + Z·xi, basis of N'' as columns)."""
    n = data.fan.rank
    ambient_to_cover = _ambient_to_cover(data.fan)
    xi = None
    for cand in _basis_vectors(n):
        img = mat_vec(ambient_to_cover, cand)
        denom = lcm(*(Fraction(x).denominator for x in img))
        if denom % p == 0:
            xi = tuple((denom // p) * c for c in cand)
            break
    assert xi is not None
    gens = [tuple(col) for col in zip(*data.cover_to_ambient)] + [tuple(xi)]
    cols = tuple(tuple(g[r] for g in gens) for r in range(n))
    diag, _, _, uinv = smith_normal_form(cols)
    to_ambient = tuple(
        tuple(uinv[r][k] * diag[k] for k in range(n)) for r in range(n)
    )
    new_rays = [
        tuple(int(x) for x in solve_general(to_ambient, v)) for v in data.fan.rays
    ]
    return build_fan(n, new_rays, data.fan.max_cones), to_ambient


def reference_fiber(fan, ray) -> FiberData:
    j_minus, j_plus = ray.j_minus, ray.j_plus
    quot = _quotient_by_span([fan.rays[i] for i in j_minus], fan.rank)
    imgs = [quot.apply(fan.rays[i]) for i in j_plus]
    # The first fdim columns of u^-1, for the Smith form u·M·v of the
    # matrix M whose columns are the images, span their saturation.
    fdim = rank(imgs)
    _, _, _, uinv = smith_normal_form(tuple(zip(*imgs)))
    basis = tuple(tuple(row[:fdim]) for row in uinv)
    fib_rays = []
    for img in imgs:
        coords = solve_general(basis, img)
        fib_rays.append(primitive_part(tuple(int(x) for x in coords)))
    fiber = build_fan(
        fdim, fib_rays, list(combinations(range(len(j_plus)), fdim))
    )
    return FiberData(fiber, j_plus, j_minus, mat_mul(quot.lift, basis))


def reference_is_projective_space(fan) -> bool:
    if len(fan.rays) != fan.rank + 1:
        return False
    try:
        data = reference_recognize_fwps(fan)
    except NotFwps:
        return False
    return (
        data.cover_index == 1
        and all(w == 1 for w in data.weights)
        and all(cone_multiplicity(fan, c) == 1 for c in fan.max_cones)
    )
