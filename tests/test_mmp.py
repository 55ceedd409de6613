"""Extremal rays, contractions, flips, the a-value step, and chains."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import mmp_oracle
import toricapprox.mmp as mmp
from conftest import random_fan_suite
from toricapprox.divisor import (
    TorusDivisor,
    canonical_divisor,
    intersect,
    is_nef,
    ray_divisor,
    support_function,
    wall_curves,
)
from toricapprox.fan import is_projective_space
from toricapprox.fwps import fiber_fwps
from toricapprox.mmp import (
    DIVISORIAL,
    FLIP,
    MORI_FIBER,
    ExtremalRay,
    FlipRequired,
    NoKNegativeRay,
    NotExtremal,
    classify_contraction,
    contract,
    flip,
    mori_extremal_rays,
    orbit_in_exc,
    picard_rank,
    push_divisor,
    run_mmp_chain,
    step_a,
)


def test_extremal_rays_p2(p2):
    rays = mori_extremal_rays(p2)
    assert len(rays) == 1
    assert rays[0].k_degree == -3
    assert classify_contraction(p2, rays[0]) == (MORI_FIBER, ())


def test_extremal_rays_f1(f1):
    rays = mori_extremal_rays(f1)
    assert len(rays) == 2
    kinds = sorted(
        classify_contraction(f1, r)[0] for r in rays
    )
    assert kinds == [DIVISORIAL, MORI_FIBER]


def test_classify_rejects_non_extremal(f1):
    rays = mori_extremal_rays(f1)
    # A positive combination of the two extremal classes is not extremal.
    combo = tuple(
        a + b for a, b in zip(rays[0].curve.relation, rays[1].curve.relation)
    )
    fake = type(rays[0])(
        curve=replace(rays[0].curve, relation=combo),
        j_minus=tuple(i for i, b in enumerate(combo) if b < 0),
        k_degree=Fraction(-1),
    )
    with pytest.raises(NotExtremal):
        classify_contraction(f1, fake)


def test_divisorial_contraction_f1_gives_p2(f1):
    ray = next(
        r
        for r in mori_extremal_rays(f1)
        if classify_contraction(f1, r)[0] == DIVISORIAL
    )
    res = contract(f1, ray)
    assert res.kind == DIVISORIAL
    assert res.exc_cone == (1,)
    assert is_projective_space(res.target)
    assert picard_rank(res.target) == picard_rank(f1) - 1
    # Pushing the pullback of a line recovers the line.
    d = TorusDivisor.of([1, 1, 0, 0])
    out = push_divisor(res, d)
    assert sorted(out.coeffs) == [0, 0, 1]


def test_push_divisor_rejects_non_pullback(f1):
    ray = next(
        r
        for r in mori_extremal_rays(f1)
        if classify_contraction(f1, r)[0] == DIVISORIAL
    )
    res = contract(f1, ray)
    with pytest.raises(AssertionError):
        push_divisor(res, ray_divisor(f1, 1))


def test_mori_fiber_contraction_f1(f1):
    ray = next(
        r
        for r in mori_extremal_rays(f1)
        if classify_contraction(f1, r)[0] == MORI_FIBER
    )
    res = contract(f1, ray)
    assert res.kind == MORI_FIBER
    assert res.target.rank == 1
    fiber = fiber_fwps(f1, ray).fan
    assert fiber.rank == 1
    assert set(fiber.rays) == {(1,), (-1,)}


def test_contract_refuses_flip(francia):
    ray = next(
        r
        for r in mori_extremal_rays(francia)
        if r.is_k_negative and classify_contraction(francia, r)[0] == FLIP
    )
    with pytest.raises(FlipRequired):
        contract(francia, ray)


def test_flip_francia(francia):
    ray = next(
        r
        for r in mori_extremal_rays(francia)
        if r.is_k_negative and classify_contraction(francia, r)[0] == FLIP
    )
    res = flip(francia, ray)
    # Same rays, different triangulation; Picard rank preserved.
    assert res.target.rays == francia.rays
    assert set(res.target.max_cones) != set(francia.max_cones)
    assert picard_rank(res.target) == picard_rank(francia)
    # The flipped small contraction exchanges the exceptional cones.
    assert res.exc_cone != res.flipped_exc_cone
    assert res.dstar_multiple > 0
    # The pullback identity is validated inside flip(); recheck one divisor.
    f = ray_divisor(francia, 0)
    lhs = support_function(francia, f)(res.new_ray)
    rhs = support_function(res.target, f)(res.new_ray)
    deg = intersect(francia, f, ray.curve)
    assert lhs == rhs - deg * res.dstar_multiple


def test_step_a_f1(f1):
    d = TorusDivisor.of([1, 1, 0, 0])
    a, ray = step_a(f1, d)
    assert a == 0  # D already kills the exceptional ray
    shifted = d + a * canonical_divisor(f1)
    assert is_nef(f1, shifted)
    assert intersect(f1, shifted, ray.curve) == 0


def test_step_a_needs_k_negative_ray():
    # A fan whose every extremal class is K-trivial or positive does not
    # exist among Fano-type fixtures; simulate by shifting to -K nef failing.
    # Instead verify the error path on a fan where all rays are K-positive:
    # none exists for complete toric surfaces (always uniruled), so check
    # the exception type is raised for an empty candidate list via monkeypatch.
    import toricapprox.mmp as mmp

    orig = mmp.mori_extremal_rays
    try:
        mmp.mori_extremal_rays = lambda fan: ()
        with pytest.raises(NoKNegativeRay):
            from toricapprox.fan import projective_space_fan

            step_a(projective_space_fan(2), TorusDivisor.of([1, 0, 0]))
    finally:
        mmp.mori_extremal_rays = orig


def test_orbit_in_exc():
    assert orbit_in_exc((0, 1), (0,))
    assert not orbit_in_exc((1,), (0,))
    assert orbit_in_exc((), ())  # Mori fiber steps catch every point


def test_chain_f1_torus_point(f1):
    d = TorusDivisor.of([1, 1, 0, 0])
    chain = run_mmp_chain(f1, d, ())
    kinds = [s.kind for s in chain.steps]
    assert kinds == [DIVISORIAL, MORI_FIBER]
    assert [s.a for s in chain.steps] == [0, Fraction(1, 3)]
    assert chain.terminal_step.p_in_exc
    assert chain.terminal_step.result is None


def test_chain_stops_immediately_on_exceptional_point(f1):
    d = TorusDivisor.of([1, 1, 0, 0])
    chain = run_mmp_chain(f1, d, (1,))  # P on the exceptional curve
    assert len(chain.steps) == 1
    assert chain.steps[0].kind == DIVISORIAL
    assert chain.steps[0].p_in_exc


def test_chain_wps4713(wps4713):
    d = TorusDivisor.of([91, 0, 0])
    chain = run_mmp_chain(wps4713, d, ())
    assert len(chain.steps) == 1
    step = chain.steps[0]
    assert step.kind == MORI_FIBER
    assert step.a == Fraction(91, 6)
    assert step.p_in_exc


def test_chain_francia(francia):
    d = TorusDivisor.of([2, 4, 3, 3, 6])
    assert is_nef(francia, d)
    chain = run_mmp_chain(francia, d, ())
    kinds = [s.kind for s in chain.steps]
    assert FLIP in kinds
    assert chain.terminal_step.p_in_exc


def test_chain_classifies_each_step_once(monkeypatch, francia):
    # A chain step's ray comes from mori_extremal_rays, so the chain itself
    # never classifies it: only contract/flip do, on every non-terminal step.
    cases = random_fan_suite(random.Random(1), 30) + [
        (francia, TorusDivisor.of([2, 4, 3, 3, 6]))
    ]
    calls = []
    real = mmp.classify_contraction
    monkeypatch.setattr(
        mmp, "classify_contraction",
        lambda *args: calls.append(args) or real(*args),
    )
    kinds = Counter()
    for fan, d in cases:
        calls.clear()
        chain = run_mmp_chain(fan, d, ())
        assert len(calls) == len(chain.steps) - 1, fan
        for s in chain.steps:
            want = mmp_oracle.classify_contraction(s.fan, s.ray)
            assert (s.kind, s.exc_cone) == want, (fan, s.ray)
            kinds[s.kind] += 1
    assert set(kinds) == {MORI_FIBER, DIVISORIAL, FLIP}, kinds


def test_chain_requires_nef(f1):
    with pytest.raises(AssertionError):
        run_mmp_chain(f1, TorusDivisor.of([0, 1, 0, 0]), ())


def test_picard_rank(p2, f1, francia):
    assert picard_rank(p2) == 1
    assert picard_rank(f1) == 2
    assert picard_rank(francia) == 2


def _wall_rays(fan):
    """An ExtremalRay for every wall curve, built as mori_extremal_rays does,
    and a K-negative one for the negative of the first class, which lies
    outside the Mori cone and is no wall class."""
    k = canonical_divisor(fan)
    curves = wall_curves(fan)
    neg = tuple(-b for b in curves[0].relation)
    return [
        ExtremalRay(c, c.negative_rays, intersect(fan, k, c)) for c in curves
    ] + [ExtremalRay(
        replace(curves[0], relation=neg),
        tuple(i for i, b in enumerate(neg) if b < 0),
        Fraction(-1),
    )]


def _classification(fan, ray, fn):
    try:
        return fn(fan, ray)
    except NotExtremal as exc:
        return type(exc), str(exc)


def test_classification_matches_the_full_cone_oracle(p2, p3, wps4713, francia):
    fans = [p2, p3, wps4713, francia] + [
        fan for fan, _ in random_fan_suite(random.Random(3), 8)
    ]
    seen = Counter()
    for fan in fans:
        assert mori_extremal_rays(fan) == mmp_oracle.mori_extremal_rays(fan)
        for ray in _wall_rays(fan):
            got = _classification(fan, ray, classify_contraction)
            want = _classification(fan, ray, mmp_oracle.classify_contraction)
            assert got == want, (fan, ray)
            if got[0] is NotExtremal:
                seen[NotExtremal, ray.is_k_negative] += 1
            else:
                seen[got[0]] += 1
    assert set(seen) == {MORI_FIBER, DIVISORIAL, FLIP,
                         (NotExtremal, False), (NotExtremal, True)}, seen


def test_classification_runs_one_lp(monkeypatch, p2, f1, francia):
    def ray_of(fan, kind):
        return next(
            r for r in mori_extremal_rays(fan)
            if r.is_k_negative and classify_contraction(fan, r)[0] == kind
        )

    cases = [(francia, ray_of(francia, FLIP), 1),
             (f1, ray_of(f1, DIVISORIAL), 1),
             (p2, ray_of(p2, MORI_FIBER), 0)]
    calls = []
    real = mmp.nonneg_combination
    monkeypatch.setattr(
        mmp, "nonneg_combination", lambda *args: calls.append(args) or real(*args)
    )
    for fan, ray, lps in cases:
        calls.clear()
        classify_contraction(fan, ray)
        assert len(calls) == lps, fan
