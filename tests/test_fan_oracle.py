"""build_fan's sign-test certificate against the pairwise-face reference."""

import random
from itertools import combinations

import pytest

from conftest import random_fan_suite
from fan_oracle import reference_build
from toricapprox.fan import (
    FanError,
    NotAFan,
    NotComplete,
    NotSimplicial,
    build_fan,
    projective_space_fan,
)

# Every fan that tests/test_fan.py and tests/test_report_cli.py reject,
# except those with a negative rank or a ray of the wrong length: the
# reference validator predates build_fan's check of those.
REJECTED = [
    (2, [(1, 0), (0, 1), (-1, 0)], [(0, 1), (1, 2)]),
    (2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (2, 0), (0, 3)]),
    (2, [(1, 0), (0, 1), (-1, -1)], [(0, 1, 2)]),
    (2, [(1, 0), (-1, 0), (0, 1)], [(0, 1), (1, 2), (2, 0)]),
]

# Every wall is paired, but the cones on wall (0,) lie on the same side.
SAME_SIDE = (2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (1, 2), (0, 2)])

# A pentagram: five cones, each under 180 degrees and every wall paired
# across, winding twice around the origin.
PENTAGRAM = (
    2,
    [(1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
)


def outcome(build, rank, rays, cones):
    """('ok', walls) or (exception class, None)."""
    try:
        result = build(rank, rays, cones)
    except FanError as exc:
        return type(exc), None
    return "ok", result.walls if hasattr(result, "walls") else result


def assert_same_verdict(rank, rays, cones):
    new = outcome(build_fan, rank, rays, cones)
    ref = outcome(reference_build, rank, rays, cones)
    assert new == ref, (rank, rays, cones)
    return new[0]


def mutate(rng, rank, rays, cones):
    """One seeded mutation of a fan description."""
    rays, cones = [list(v) for v in rays], [tuple(c) for c in cones]
    kind = rng.randrange(6)
    if kind == 0:
        cones.pop(rng.randrange(len(cones)))
    elif kind == 1:
        cones.append(tuple(rng.sample(range(len(rays)), rank)))
    elif kind == 2:
        cones[rng.randrange(len(cones))] = tuple(
            rng.sample(range(len(rays)), rank)
        )
    elif kind == 3:
        v = rays[rng.randrange(len(rays))]
        v[rng.randrange(rank)] += rng.choice((-1, 1))
    elif kind == 4:
        i = rng.randrange(len(rays))
        rays[i] = [-x for x in rays[i]]
    else:
        # A new ray replacing one ray of one cone.
        rays.append([rng.randint(-2, 2) for _ in range(rank)])
        k = rng.randrange(len(cones))
        cone = list(cones[k])
        cone[rng.randrange(rank)] = len(rays) - 1
        cones[k] = tuple(cone)
    if all(any(v) for v in rays):
        return rank, [tuple(v) for v in rays], cones
    return None


def test_oracle_agrees_on_rejection_cases():
    expected = [NotComplete, NotAFan, NotSimplicial, NotSimplicial]
    for case, cls in zip(REJECTED, expected):
        assert assert_same_verdict(*case) is cls


def test_certificate_checks_fire():
    assert assert_same_verdict(*SAME_SIDE) is NotAFan
    with pytest.raises(NotAFan, match="same side"):
        build_fan(*SAME_SIDE)
    assert assert_same_verdict(*PENTAGRAM) is NotAFan
    with pytest.raises(NotAFan, match="lies in 2 maximal cones"):
        build_fan(*PENTAGRAM)


def test_oracle_agrees_on_random_fans_and_mutations():
    rng = random.Random(20200511)
    verdicts = {}
    for fan, _ in random_fan_suite(rng, 24):
        case = (fan.rank, fan.rays, fan.max_cones)
        assert assert_same_verdict(*case) == "ok"
        for _ in range(8):
            mutated = mutate(rng, *case)
            if mutated is not None:
                verdict = assert_same_verdict(*mutated)
                verdicts[verdict] = verdicts.get(verdict, 0) + 1
    # The mutations reach every verdict.
    assert set(verdicts) == {"ok", NotAFan, NotComplete, NotSimplicial}


def test_oracle_agrees_on_projective_spaces():
    for n in range(1, 5):
        rays = [tuple(int(r == i) for r in range(n)) for i in range(n)]
        rays.append(tuple(-1 for _ in range(n)))
        cones = list(combinations(range(n + 1), n))
        assert assert_same_verdict(n, rays, cones) == "ok"


def test_projective_space_builds_up_to_rank_6():
    for n in range(2, 7):
        fan = projective_space_fan(n)
        assert len(fan.max_cones) == n + 1
        assert len(fan.walls) == (n + 1) * n // 2
        assert all(fan.cone_inverse(k)[0] == 1 for k in range(n + 1))
