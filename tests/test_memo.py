"""The fan intern in `build_fan` and the per-fan memo of derived values."""

import pytest

from toricapprox import divisor, fan as fan_module
from toricapprox.divisor import TorusDivisor, support_function
from toricapprox.fan import NotAFan, build_fan, projective_space_fan

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
