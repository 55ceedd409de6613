"""Exact integer linear algebra over free abelian groups.

Smith normal forms, sublattice indices, primitive vectors, and torsion-free
quotient lattices.  All inputs and outputs are plain int tuples; arithmetic
is arbitrary precision.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, prod
from typing import Sequence

from toricapprox.linalg import identity, mat_vec, rank


class LatticeError(ValueError):
    pass


class NotFullRank(LatticeError):
    pass


class ZeroVector(LatticeError):
    pass


class DependentKernel(LatticeError):
    pass


def smith_normal_form(m: Sequence[Sequence[int]]):
    """Smith normal form of an integer matrix.

    Returns (diag, u, v, u_inv) with u·m·v diagonal, d1 | d2 | ..., u and
    v unimodular and u_inv = u^-1.  diag is the tuple of diagonal entries
    (length min(rows, cols)), all >= 0.  Elementary row/column reduction
    with the minimal-absolute-value pivot rule; each row operation on u is
    applied to u_inv as the inverse column operation.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]
    u_inv = [list(r) for r in identity(rows)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for row in u_inv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]
        for row in u_inv:
            row[src] -= c * row[dst]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for row in u_inv:
            row[i] = -row[i]

    t = 0
    while t < min(rows, cols):
        # Find pivot of minimal nonzero absolute value in the remaining block.
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        if a[t][t] < 0:
            negate_row(t)
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                add_row(t, i, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                add_col(t, j, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # Enforce divisibility: pivot must divide the rest of the block.
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % a[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1
    diag = tuple(a[i][i] for i in range(min(rows, cols)))
    return (diag,) + tuple(tuple(map(tuple, x)) for x in (u, v, u_inv))


def sublattice_index(gens: Sequence[Sequence[int]], ambient_rank: int) -> int:
    """Index [Z^rank : <gens>] of the sublattice spanned by gens.

    Raises NotFullRank when the rational span of gens is proper.
    """
    if rank(gens) < ambient_rank:
        raise NotFullRank(
            f"generators span a rank-{rank(gens)} subspace of rank {ambient_rank}"
        )
    return prod(smith_normal_form(list(gens))[0])


def primitive_part(v: Sequence[int]) -> tuple:
    """v divided by the gcd of its entries; errors on the zero vector."""
    g = gcd(*v)
    if g == 0:
        raise ZeroVector("the zero vector spans no ray")
    return tuple(x // g for x in v)


def is_primitive(v: Sequence[int]) -> bool:
    return gcd(*v) == 1


class QuotientMap(namedtuple(
    "QuotientMap",
    "projection rank kernel_basis lift",
)):
    """Projection of Z^n onto a torsion-free quotient Z^n / sat(<kernel>).

    projection is (rank x n); kernel_basis is a basis of the saturated
    kernel; lift is an (n x rank) section with projection·lift = identity.
    """

    __slots__ = ()

    def apply(self, v: Sequence[int]) -> tuple:
        return mat_vec(self.projection, v)

    def lift_point(self, q: Sequence[int]) -> tuple:
        return tuple(sum(self.lift[i][j] * q[j] for j in range(self.rank))
                     for i in range(len(self.lift)))


def _quotient_by_span(gens: Sequence[Sequence[int]], ambient_rank: int) -> QuotientMap:
    """Quotient of Z^ambient_rank by the saturation of the span of gens.

    gens may be any (possibly redundant) generating set of the subgroup.
    """
    k = rank(gens) if gens else 0
    q = ambient_rank - k
    if not gens:
        return QuotientMap(identity(ambient_rank), ambient_rank, (), identity(ambient_rank))
    # Columns of the matrix are the generators; u rotates Z^n so that the
    # saturated span becomes the first k coordinates.
    cols = tuple(zip(*gens))
    _, u, _, uinv = smith_normal_form(cols)
    proj = tuple(u[k:])
    # The columns of u^-1 give the kernel basis and the section.
    n = ambient_rank
    kernel_basis = tuple(tuple(uinv[i][j] for i in range(n)) for j in range(k))
    lift = tuple(tuple(uinv[i][k + j] for j in range(q)) for i in range(n))
    return QuotientMap(proj, q, kernel_basis, lift)


def quotient_lattice(kernel_gens: Sequence[Sequence[int]], ambient_rank: int) -> QuotientMap:
    """Torsion-free quotient of Z^ambient_rank by the saturation of kernel_gens.

    kernel_gens must be primitive and linearly independent.
    """
    for v in kernel_gens:
        if not is_primitive(v):
            raise DependentKernel(f"kernel generator {v} is not primitive")
    if rank(kernel_gens) != len(kernel_gens):
        raise DependentKernel("kernel generators are linearly dependent")
    return _quotient_by_span(kernel_gens, ambient_rank)


def invariant_factors(gens: Sequence[Sequence[int]], ambient_rank: int) -> tuple:
    """Nontrivial invariant factors of Z^rank / <gens> for full-rank gens."""
    if rank(gens) < ambient_rank:
        raise NotFullRank("generators do not span rationally")
    diag = smith_normal_form(list(gens))[0]
    return tuple(d for d in diag if d not in (0, 1))
