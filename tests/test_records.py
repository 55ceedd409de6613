"""Result records are named tuples: immutable, without a per-instance
__dict__ (a Fan keeps one for the values memoized on it), validated where
they were validated before, and cheap to import."""

import os
import subprocess
import sys

import pytest

import toricapprox
from toricapprox import approx, casestudy, divisor, fan, fwps, lattice, mmp
from toricapprox.approx import ApproxError, ArithmeticContext, BranchData
from toricapprox.divisor import OnePsCurve, TorusDivisor
from toricapprox.fan import (
    Fan,
    build_fan,
    cone_multiplicity,
    projective_space_fan,
    star_fan,
)
from toricapprox.report import context_from_doc

RECORD_NAMES = {
    approx: "BranchData ArithmeticContext Lemma42Record ApproxResult",
    casestudy: "WeightedForm TangentReport Candidate CaseStudyReport",
    divisor: "TorusDivisor SupportFunction WallCurve OnePsCurve",
    fan: "Fan StarFanResult FwpsData",
    fwps: "CurveCertificate MuPAction FiberData",
    lattice: "QuotientMap",
    mmp: "ExtremalRay ContractionResult FlipResult MmpStepRecord MmpChain",
}
RECORDS = [
    getattr(module, name)
    for module, names in RECORD_NAMES.items()
    for name in names.split()
]


def test_import_loads_neither_dataclasses_nor_inspect():
    # A CLI call is a fresh process; it should not pay for these imports.
    src = os.path.dirname(os.path.dirname(toricapprox.__file__))
    code = (
        "import sys, toricapprox.cli, toricapprox.casestudy\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_refuses_assignment(cls):
    # tuple.__new__ skips the validating constructors; the values do not
    # matter here.
    rec = tuple.__new__(cls, range(len(cls._fields)))
    for name in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert tuple(rec) == tuple(range(len(cls._fields)))
    if cls is not Fan:
        assert not hasattr(rec, "__dict__")


def test_fan_refuses_assignment_of_memoized_values():
    p2 = projective_space_fan(2)
    with pytest.raises(AttributeError):
        p2.cone_inverses = ()
    with pytest.raises(AttributeError):
        del p2.cone_inverses
    assert p2.cone_inverses[0] == 1


def test_fan_memoizes_on_itself():
    p2 = build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    assert star_fan(p2, (0,)) is star_fan(p2, (0,))
    hits = cone_multiplicity.cache_info().hits
    assert cone_multiplicity(p2, (0, 1)) == cone_multiplicity(p2, (0, 1)) == 1
    assert cone_multiplicity.cache_info().hits == hits + 1
    # build_fan fills the cone inverses; a Fan made directly computes them
    # on first use and keeps them.
    assert "cone_inverses" in vars(p2)
    bare = Fan(*p2)
    assert bare == p2 and hash(bare) == hash(p2)
    assert "cone_inverses" not in vars(bare)
    assert bare.cone_inverses == p2.cone_inverses
    assert bare.cone_inverses is bare.cone_inverses


def test_records_are_plain_tuples_to_compare_and_hash():
    curve = OnePsCurve((0,), (1, 0))
    assert curve == ((0,), (1, 0))
    assert hash(curve) == hash(((0,), (1, 0)))
    assert curve._replace(w=(0, 1)) == OnePsCurve((0,), (0, 1))


def test_divisor_arithmetic_is_not_tuple_arithmetic():
    d = TorusDivisor.of([1, 2, 3])
    assert d * 2 == 2 * d == TorusDivisor.of([2, 4, 6])
    assert d + d == TorusDivisor.of([2, 4, 6])


@pytest.mark.parametrize("make", [
    lambda: BranchData(()),
    lambda: BranchData(((0, 1),)),
    lambda: BranchData(((1, 3),)),
    lambda: BranchData.of([]),
    lambda: BranchData.of([(1, 1)])._replace(branches=((1, 5),)),
    lambda: ArithmeticContext(True, ((5, True, False),)),
    lambda: ArithmeticContext(quadratics=((5, True, False),)),
    lambda: ArithmeticContext()._replace(quadratics=((5, True, False),)),
    lambda: context_from_doc(
        {"quadratics": [{"d": 5, "in_k": True, "in_kv": False}]}
    ),
])
def test_validating_records_refuse_bad_input(make):
    with pytest.raises(ApproxError):
        make()


def test_validating_records_keep_their_defaults():
    assert ArithmeticContext() == (True, ())
    assert BranchData.of([(2, 1)]).branches == ((2, 1),)
