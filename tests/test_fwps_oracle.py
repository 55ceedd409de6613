"""Differential tests of the fwps lattice data against tests/fwps_oracle.py.

`recognize_fwps`, `mu_p_residues`, the intermediate quotient and
`fiber_fwps` read N/N' off the fan's cone inverses and one Smith form;
the oracle keeps the former Fraction matrix, nullspace and per-coordinate
solves.  Both must give equal records on every fake weighted projective
space of `fake_wps_suite` and on the fans of `random_fan_suite`.
"""

import random
from fractions import Fraction

import pytest

from toricapprox.fan import (
    NotFwps,
    is_projective_space,
    projective_space_fan,
    recognize_fwps,
    star_fan,
    wps_fan,
)
from toricapprox.fwps import (
    NotPnModP,
    _intermediate_quotient,
    _is_pn_mod_p,
    fiber_fwps,
    fwps_curve,
    mu_p_residues,
)
from toricapprox.mmp import mori_extremal_rays

from conftest import all_orbit_cones, fake_wps_suite, random_fan_suite
from fwps_oracle import (
    reference_fiber,
    reference_intermediate_quotient,
    reference_is_projective_space,
    reference_mu_p_residues,
    reference_recognize_fwps,
)


@pytest.fixture(scope="module")
def fakes():
    return fake_wps_suite()


@pytest.fixture(scope="module")
def random_fans():
    return [
        fan
        for seed in (1, 2)
        for fan, _ in random_fan_suite(random.Random(seed), 30)
    ]


def _primes(q):
    return [p for p in range(2, q + 1) if q % p == 0 and all(p % r for r in range(2, p))]


def test_recognize_fwps_matches_the_fraction_route(fakes, random_fans):
    fans = list(fakes) + [wps_fan(q) for q in ((1, 1, 2), (4, 7, 13), (1, 2, 3, 5))]
    # Orbit closures of the random fans: some have rank + 1 rays.
    fans += [
        star_fan(fan, (i,)).fan for fan in random_fans for i in range(len(fan.rays))
    ]
    recognized = 0
    for fan in fans:
        try:
            expect = reference_recognize_fwps(fan)
        except NotFwps:
            with pytest.raises(NotFwps):
                recognize_fwps(fan)
            continue
        assert recognize_fwps(fan) == expect, fan
        recognized += 1
    assert recognized > len(fakes)


def test_mu_p_residues_and_intermediate_quotients_match(fakes):
    residues = intermediates = 0
    for fan in fakes:
        data = recognize_fwps(fan)
        if not all(w == 1 for w in data.weights):
            continue
        if _is_pn_mod_p(data):
            assert mu_p_residues(data) == reference_mu_p_residues(data), fan
            residues += 1
        else:
            with pytest.raises(NotPnModP):
                mu_p_residues(data)
        for p in _primes(data.cover_index):
            got = _intermediate_quotient(data, p)
            assert got == reference_intermediate_quotient(data, p), (fan, p)
            intermediates += 1
    assert residues >= 40 and intermediates >= 100


def test_fiber_fwps_matches_the_solve_route(random_fans):
    fibers = 0
    for fan in random_fans:
        for ray in mori_extremal_rays(fan):
            assert fiber_fwps(fan, ray) == reference_fiber(fan, ray), (fan, ray)
            fibers += 1
    assert fibers > 100


def test_is_projective_space_matches_the_multiplicity_check(fakes, random_fans):
    # A fake space has index > 1, so only a fifth of them take part.
    fans = list(fakes[::5]) + list(random_fans)
    fans += [projective_space_fan(n) for n in range(1, 6)]
    fans += list(dict.fromkeys(recognize_fwps(fan).cover_fan for fan in fakes))
    verdicts = [is_projective_space(fan) for fan in fans]
    assert verdicts == [reference_is_projective_space(fan) for fan in fans]
    assert any(verdicts) and not all(verdicts)


def test_fwps_curve_bounds_on_fake_suite(fakes):
    # -K·C <= n + 1 on every certificate; <= n on prime P^n / mu_p.  Every
    # quotient of P^n runs, and every fifth other fan.
    certs = 0
    for k, fan in enumerate(fakes):
        data = recognize_fwps(fan)
        if k % 5 and not all(w == 1 for w in data.weights):
            continue
        bound = Fraction(fan.rank if _is_pn_mod_p(data) else fan.rank + 1)
        for orbit in all_orbit_cones(fan):
            cert = fwps_curve(data, orbit)
            assert cert.minus_k == sum(cert.intersections)
            assert cert.minus_k <= bound, (fan, orbit)
            certs += 1
    assert certs > 2000
