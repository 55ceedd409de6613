"""The fan intern in `build_fan` and the per-fan memo of derived values."""

import gc
import os
import subprocess
import sys

import pytest

import toricapprox
from conftest import all_orbit_cones
from toricapprox import divisor, fan as fan_module
from toricapprox.approx import theorem16_driver
from toricapprox.divisor import (
    TorusDivisor,
    canonical_divisor,
    one_ps_degree,
    support_function,
)
from toricapprox.fan import (
    Fan,
    NotAFan,
    StarFanResult,
    build_fan,
    projective_space_fan,
    recognize_fwps,
    star_fan,
    wps_fan,
)
from toricapprox.fwps import fwps_curve

P2_RAYS = [[1, 0], [0, 1], [-1, -1]]
P2_CONES = [[0, 1], [1, 2], [0, 2]]


def test_equal_input_as_lists_or_tuples_is_one_fan():
    a = build_fan(2, P2_RAYS, P2_CONES)
    b = build_fan(2, tuple(map(tuple, P2_RAYS)), tuple(map(tuple, P2_CONES)))
    assert a is b


def test_rejected_fan_raises_every_time():
    rays = [[1, 0], [1, 0], [-1, -1]]
    for _ in range(2):
        with pytest.raises(NotAFan):
            build_fan(2, rays, P2_CONES)


def test_intern_is_bounded():
    for k in range(1, 601):
        build_fan(2, [[1, 0], [0, 1], [-1, -k]], P2_CONES)
    info = fan_module._build_fan.cache_info()
    assert info.maxsize == 512
    assert info.currsize <= 512


def test_support_function_is_memoized_on_the_fan():
    fan = projective_space_fan(2)
    d = TorusDivisor.of([1, 2, 3])
    first = support_function(fan, d)
    hits = support_function.cache_info().hits
    assert support_function(fan, d) is first
    assert support_function.cache_info().hits == hits + 1


def test_degrees_build_no_support_function(p2_mu3):
    # A curve's degree reads phi_D at two points by barycentric
    # coordinates: no per-cone SupportFunction is built for it, so none
    # stays memoized on a fan (a star fan lives as long as the intern keeps
    # it).  Only is_nef and intersect build them.
    made = support_function.cache_info
    for fan in (wps_fan((1, 2, 3, 5)), p2_mu3):
        data = recognize_fwps(fan)
        divisors = [canonical_divisor(fan), TorusDivisor.of(range(len(fan.rays)))]
        for orbit in all_orbit_cones(fan):
            before = made().currsize
            curve = fwps_curve(data, orbit).curve
            assert made().currsize == before, (fan.rays, orbit)
            for d in divisors:
                one_ps_degree(fan, d, curve)
            assert made().currsize == before, (fan.rays, orbit)


@pytest.mark.parametrize("module", [fan_module, divisor])
def test_each_layer_exposes_cache_info(module):
    # Profilers read hit rates off module-level objects with cache_info().
    infos = [
        obj.cache_info()
        for obj in vars(module).values()
        if hasattr(obj, "cache_info")
        and getattr(obj, "__module__", None) == module.__name__
    ]
    assert infos
    for info in infos:
        assert {"hits", "misses", "currsize"} <= set(info._fields)


def _exercise(f1):
    """fwps_curve on every orbit of a few wps fans, and one driver run."""
    fans = [wps_fan(q) for q in ((1, 1, 2), (4, 7, 13), (2, 3, 5), (1, 2, 3, 5))]
    for fan in fans:
        data = recognize_fwps(fan)
        for orbit in all_orbit_cones(fan):
            fwps_curve(data, orbit)
    theorem16_driver(f1, TorusDivisor.of([1, 1, 0, 0]), (),
                     assume_canonically_bounded=True)
    return fans + [f1]


def _assert_star_layout(fan, star):
    # ray_map and b are tuples indexed by source ray, None and 0 exactly
    # off the star (on tau and on rays of no cone containing tau).
    on_star = {i for c in fan.max_cones if set(star.tau) <= set(c) for i in c}
    on_star -= set(star.tau)
    assert type(star.ray_map) is tuple and type(star.b) is tuple
    assert len(star.ray_map) == len(star.b) == len(fan.rays)
    for i, (j, b) in enumerate(zip(star.ray_map, star.b)):
        assert (j is None) == (i not in on_star) == (b == 0)
        if j is not None:
            image = star.quotient.apply(fan.rays[i])
            assert image == tuple(b * x for x in star.fan.rays[j])


def test_memo_layout(f1):
    fans = _exercise(f1)
    for fan in fans:
        for tau in all_orbit_cones(fan):
            _assert_star_layout(fan, star_fan(fan, tau))
    memoized = 0
    for fan in (o for o in gc.get_objects() if isinstance(o, Fan)):
        # One memo dict per fan: its values sit in the fan's own __dict__.
        assert not any(isinstance(v, dict) for v in vars(fan).values())
        for value in vars(fan).values():
            if isinstance(value, StarFanResult):
                _assert_star_layout(fan, value)
                memoized += 1
        assert "rays" in dir(fan)
    assert memoized
    # Every zero-cone star of one rank shares one identity quotient.
    p2 = projective_space_fan(2)
    assert star_fan(p2, ()).quotient is star_fan(f1, ()).quotient
    assert star_fan(p2, ()).ray_map == (0, 1, 2)


def test_build_fan_keeps_primitive_int_tuples():
    fan_module._build_fan.cache_clear()
    rays = ((1, 0), (0, 1), (-1, -9973))
    cones = ((0, 1), (1, 2), (0, 2))
    fan = build_fan(2, rays, cones)
    assert all(a is b for a, b in zip(fan.rays, rays))
    assert all(a is b for a, b in zip(fan.max_cones, cones))
    assert fan.require_cone(cones[1]) is cones[1]
    assert fan.require_cone([2, 0]) == (0, 2)
    # Anything else is copied into a primitive tuple of exact ints.
    other = build_fan(2, [(True, False), (0, 3), (-1, -1)], [(1, 0), (1, 2), (0, 2)])
    assert other.rays == ((1, 0), (0, 1), (-1, -1))
    assert all(type(x) is int for v in other.rays for x in v)
    assert other.max_cones == ((0, 1), (1, 2), (0, 2))


LEAK_CHECK = """
import gc
from toricapprox import fan as fan_module
from toricapprox.approx import theorem16_driver
from toricapprox.divisor import TorusDivisor
from toricapprox.fwps import fwps_curve

def work():
    for q in ((1, 1, 2), (4, 7, 13), (1, 2, 3, 5)):
        fan = fan_module.wps_fan(q)
        data = fan_module.recognize_fwps(fan)
        fwps_curve(data, ())
        for i in range(len(fan.rays)):
            fwps_curve(data, (i,))
    f1 = fan_module.build_fan(
        2, [(1, 0), (0, 1), (-1, 1), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])
    theorem16_driver(f1, TorusDivisor.of([1, 1, 0, 0]), (),
                     assume_canonically_bounded=True)

def live_fans():
    return sum(isinstance(o, fan_module.Fan) for o in gc.get_objects())

work()
before = live_fans()
fan_module._build_fan.cache_clear()
gc.collect()
print(before, live_fans())
"""


def test_no_fan_outlives_the_intern():
    # Memo values and the shared identity quotients hold no fan that the
    # intern has let go: after a cyclic collection no Fan is alive.
    src = os.path.dirname(os.path.dirname(os.path.abspath(toricapprox.__file__)))
    flags = ["-O"] * sys.flags.optimize
    out = subprocess.run(
        [sys.executable, *flags, "-c", LEAK_CHECK],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    before, after = map(int, out.stdout.split())
    assert before > 0 and after == 0
