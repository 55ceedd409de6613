"""Result documents (serialization, determinism) and the command line."""

import json
from fractions import Fraction

import pytest

from toricapprox import report
from toricapprox.approx import INFINITY, theorem16_driver
from toricapprox.cli import (
    EXIT_ASSUMPTION,
    EXIT_INPUT,
    EXIT_OK,
    main,
)
from toricapprox.divisor import TorusDivisor
from toricapprox.fan import projective_space_fan, wps_fan


def test_frac_round_trip():
    for x in (Fraction(3, 7), Fraction(-2), Fraction(0), Fraction(28)):
        assert report.str_to_frac(report.frac_to_str(x)) == x
    assert report.frac_to_str(INFINITY) == "infinity"
    assert report.str_to_frac("infinity") is INFINITY
    assert report.frac_to_str(Fraction(5)) == "5"  # integers without /1


def test_fan_doc_round_trip(f1):
    doc = report.fan_to_doc(f1)
    assert report.fan_from_doc(doc) == f1


def test_divisor_doc_round_trip():
    d = TorusDivisor.of([Fraction(1, 2), 3, 0])
    assert report.divisor_from_doc(report.divisor_to_doc(d)) == d


def test_render_deterministic(wps4713):
    res = theorem16_driver(
        wps4713, TorusDivisor.of([91, 0, 0]), (), assume_canonically_bounded=True
    )
    doc = report.approx_to_doc(res)
    one = report.render(doc, "json")
    two = report.render(doc, "json")
    assert one == two
    assert report.parse(one) == doc
    # No floats anywhere in the document tree.
    def no_floats(x):
        if isinstance(x, float):
            return False
        if isinstance(x, dict):
            return all(no_floats(v) for v in x.values())
        if isinstance(x, list):
            return all(no_floats(v) for v in x)
        return True

    assert no_floats(doc)


def test_render_text_format(p2):
    doc = report.fan_to_doc(p2)
    text = report.render(doc, "text")
    assert "rank" in text and "{" not in text


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def p2_files(tmp_path):
    fan = _write(tmp_path, "fan.json", report.fan_to_doc(projective_space_fan(2)))
    div = _write(tmp_path, "div.json", ["1", "0", "0"])
    return fan, div


def test_cli_fan_check_valid(p2_files, capsys):
    fan, _ = p2_files
    assert main(["fan-check", "--fan", fan]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True
    assert out["rays"] == 3


def test_cli_fan_check_invalid_fan_is_a_verdict(tmp_path, capsys):
    # A readable description that fails validation: verdict, exit 0.
    path = _write(
        tmp_path,
        "bad.json",
        {"rank": 2, "rays": [[1, 0], [0, 1], [-1, 0]], "max_cones": [[0, 1], [1, 2]]},
    )
    assert main(["fan-check", "--fan", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False


def test_cli_unreadable_input_exit_3(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert main(["fan-check", "--fan", str(path)]) == EXIT_INPUT
    assert main(["fan-check", "--fan", str(tmp_path / "missing.json")]) == EXIT_INPUT


def test_cli_non_utf8_input_exit_3(tmp_path, capsys):
    # Used to end in a UnicodeDecodeError traceback with exit 1.
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["fan-check", "--fan", str(path)]) == EXIT_INPUT
    assert "cannot read" in _input_error(capsys)


def test_cli_fan_terminal(p2_files, tmp_path, capsys):
    fan, _ = p2_files
    assert main(["fan-terminal", "--fan", fan]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["terminal"] is True
    wps = _write(tmp_path, "wps.json", report.fan_to_doc(wps_fan((1, 1, 2))))
    assert main(["fan-terminal", "--fan", wps]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["terminal"] is False and out["witness"]


# wps_fan((10**12 + 1, 10**12 + 3, 10**12 + 7)): every cone has multiplicity
# about 10**12.  Enumerating its lattice points ended in MemoryError, exit 1.
HUGE_PLANE_DOC = {"rank": 2, "rays": [[-1000000000003, 2], [1000000000001, -3],
                                      [0, 1]],
                  "max_cones": [[0, 1], [0, 2], [1, 2]]}


def test_cli_fan_terminal_huge_multiplicity_plane(tmp_path, capsys):
    path = _write(tmp_path, "fan.json", HUGE_PLANE_DOC)
    assert main(["fan-terminal", "--fan", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out == {"terminal": False, "witness": [[0, 1], [0, 2], [1, 2]]}
    assert main(["curve-find", "--fan", path, "--orbit", "[0]"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["curve"]["tau"] == [0]


def test_cli_divisor_nef(p2_files, capsys):
    fan, div = p2_files
    assert main(["divisor-nef", "--fan", fan, "--divisor", div]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["nef"] is True


def test_cli_divisor_length_mismatch(p2_files, tmp_path, capsys):
    fan, _ = p2_files
    short = _write(tmp_path, "short.json", ["1", "0"])
    assert main(["divisor-nef", "--fan", fan, "--divisor", short]) == EXIT_INPUT


def test_cli_mmp_run(tmp_path, capsys):
    from toricapprox.fan import build_fan

    f1 = build_fan(
        2, [(1, 0), (0, 1), (-1, 1), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)]
    )
    fan = _write(tmp_path, "f1.json", report.fan_to_doc(f1))
    div = _write(tmp_path, "d.json", ["1", "1", "0", "0"])
    assert main(["mmp-run", "--fan", fan, "--divisor", div]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert [s["kind"] for s in out["steps"]] == ["Divisorial", "MoriFiber"]


def test_cli_curve_find_and_alpha(tmp_path, capsys):
    fan = _write(tmp_path, "wps.json", report.fan_to_doc(wps_fan((4, 7, 13))))
    div = _write(tmp_path, "d.json", ["91", "0", "0"])
    assert main(["curve-find", "--fan", fan]) == EXIT_OK
    cert = json.loads(capsys.readouterr().out)
    assert cert["intersections"] == ["4/13", "7/13", "1"]
    assert main(["alpha", "--fan", fan, "--divisor", div]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["alpha"] == "28"


def test_cli_theorem_run_requires_assumption(p2_files, capsys):
    fan, div = p2_files
    code = main(["theorem-run", "--fan", fan, "--divisor", div])
    assert code == EXIT_ASSUMPTION
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "assumption required"


def test_cli_theorem_run_with_assumption(p2_files, capsys):
    fan, div = p2_files
    code = main(["theorem-run", "--fan", fan, "--divisor", div, "--assume-cb"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["alpha"] == "1"


def test_cli_casestudy_search_small(capsys):
    code = main(
        ["casestudy", "search", "--weights", "1,1,1", "--cap", "1"]
    )
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["candidates"][0]["alpha"] == "1"


def test_cli_bad_verb_exit_3(capsys):
    assert main(["no-such-verb"]) == EXIT_INPUT


def _input_error(capsys) -> str:
    """The stderr error document of an exit-3 run; no traceback."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return json.loads(err)["error"]


def test_cli_non_cone_orbit_exit_3(p2_files, capsys):
    fan, div = p2_files
    assert main(["curve-find", "--fan", fan, "--orbit", "[0,1,2]"]) == EXIT_INPUT
    assert "not a cone" in _input_error(capsys)
    code = main(
        ["theorem-run", "--fan", fan, "--divisor", div, "--orbit", "[0,1,2]",
         "--assume-cb"]
    )
    assert code == EXIT_INPUT
    assert "not a cone" in _input_error(capsys)


def test_cli_mmp_run_missing_ray_orbit_exit_3(p2_files, capsys):
    fan, div = p2_files
    code = main(["mmp-run", "--fan", fan, "--divisor", div, "--orbit", "[5]"])
    assert code == EXIT_INPUT
    assert "not a cone" in _input_error(capsys)


def test_cli_divisor_zero_denominator_exit_3(p2_files, tmp_path, capsys):
    fan, _ = p2_files
    bad = _write(tmp_path, "bad.json", ["1/0", "0", "0"])
    assert main(["divisor-nef", "--fan", fan, "--divisor", bad]) == EXIT_INPUT
    assert "invalid divisor" in _input_error(capsys)


def test_cli_casestudy_without_context_exit_3(capsys):
    assert main(["casestudy", "p4713"]) == EXIT_INPUT
    assert "--context" in _input_error(capsys)


def test_cli_fan_check_ray_of_wrong_length(tmp_path, capsys):
    cones = [[0, 1], [1, 2], [0, 2]]
    short = _write(tmp_path, "short.json",
                   {"rank": 2, "rays": [[1], [0, 1], [-1, -1]], "max_cones": cones})
    long = _write(tmp_path, "long.json",
                  {"rank": 2, "rays": [[1, 0, 0], [0, 1, 0], [-1, -1, 0]],
                   "max_cones": cones})
    for path in (short, long):
        assert main(["fan-check", "--fan", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["valid"] is False
        assert main(["curve-find", "--fan", path]) == EXIT_INPUT
        assert "coordinates" in _input_error(capsys)


def test_cli_negative_rank_exit_3(tmp_path, capsys):
    path = _write(tmp_path, "neg.json", {"rank": -1, "rays": [], "max_cones": []})
    assert main(["fan-check", "--fan", path]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["valid"] is False
    assert main(["fan-terminal", "--fan", path]) == EXIT_INPUT
    assert "negative rank" in _input_error(capsys)


def test_cli_orbit_float_index_exit_3(p2_files, capsys):
    fan, _ = p2_files
    assert main(["curve-find", "--fan", fan, "--orbit", "[1.5]"]) == EXIT_INPUT
    assert "ray indices" in _input_error(capsys)


def test_cli_orbit_bool_index_exit_3(p2_files, capsys):
    fan, _ = p2_files
    assert main(["curve-find", "--fan", fan, "--orbit", "[true]"]) == EXIT_INPUT
    assert "ray indices" in _input_error(capsys)


def test_cli_orbit_not_a_list_exit_3(p2_files, capsys):
    fan, _ = p2_files
    assert main(["curve-find", "--fan", fan, "--orbit", "{}"]) == EXIT_INPUT
    assert "ray indices" in _input_error(capsys)


def test_cli_orbit_repeated_index_exit_3(p2_files, capsys):
    fan, _ = p2_files
    assert main(["curve-find", "--fan", fan, "--orbit", "[0,0]"]) == EXIT_INPUT
    assert "not a cone" in _input_error(capsys)


def test_cli_divisor_float_entry_exit_3(p2_files, tmp_path, capsys):
    fan, _ = p2_files
    for entry in (1.5, 0.1):
        bad = _write(tmp_path, "float.json", [entry, 0, 0])
        assert main(["divisor-nef", "--fan", fan, "--divisor", bad]) == EXIT_INPUT
        assert "invalid divisor" in _input_error(capsys)
    good = _write(tmp_path, "mixed.json", [1, "1/2", 0])
    assert main(["divisor-nef", "--fan", fan, "--divisor", good]) == EXIT_OK


@pytest.mark.parametrize("entry", ["1.5", "1e5", "1_0", " 2 "])
def test_cli_divisor_decimal_string_exit_3(p2_files, tmp_path, capsys, entry):
    # Only an optional sign, digits and an optional /digits are accepted.
    fan, _ = p2_files
    bad = _write(tmp_path, "bad.json", [entry, 0, 0])
    assert main(["divisor-nef", "--fan", fan, "--divisor", bad]) == EXIT_INPUT
    assert "invalid divisor" in _input_error(capsys)


def test_cli_divisor_huge_exponent_exit_3(p2_files, tmp_path, capsys):
    # Fraction("1e10000000") alone builds a ten-million-digit integer.
    fan, _ = p2_files
    bad = _write(tmp_path, "bad.json", ["1e10000000", 0, 0])
    assert main(["divisor-nef", "--fan", fan, "--divisor", bad]) == EXIT_INPUT
    assert "invalid divisor" in _input_error(capsys)
    good = _write(tmp_path, "good.json", ["+2", "-1/2", "007"])
    assert main(["divisor-nef", "--fan", fan, "--divisor", good]) == EXIT_OK


def _assert_divisor_refused(p2_files, tmp_path, capsys, doc):
    fan, _ = p2_files
    bad = _write(tmp_path, "not_a_list.json", doc)
    for verb in ("divisor-nef", "alpha"):
        assert main([verb, "--fan", fan, "--divisor", bad]) == EXIT_INPUT
        assert "a divisor is a list" in _input_error(capsys)


def test_cli_divisor_string_doc_exit_3(p2_files, tmp_path, capsys):
    # Was read character by character as D = (1, 0, 0), with exit 0.
    _assert_divisor_refused(p2_files, tmp_path, capsys, "100")


def test_cli_divisor_object_doc_exit_3(p2_files, tmp_path, capsys):
    # Was read key by key as D = (1, 0, 2), with exit 0.
    _assert_divisor_refused(p2_files, tmp_path, capsys,
                            {"1": "x", "0": 0, "2": []})


def test_cli_divisor_number_doc_exit_3(p2_files, tmp_path, capsys):
    # Was refused only by the iteration's "'int' object is not iterable".
    _assert_divisor_refused(p2_files, tmp_path, capsys, 100)


def test_cli_theorem_run_non_terminal_input(tmp_path, capsys):
    # P(8,9,11,12) used to end on the driver's comparison assertion, exit 1.
    fan = _write(tmp_path, "fan.json", {
        "rank": 3,
        "rays": [[9, 2, 3], [-8, -3, -4], [0, 1, 0], [0, 0, 1]],
        "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    })
    div = _write(tmp_path, "d.json", ["1", "0", "0", "0"])
    code = main(["theorem-run", "--fan", fan, "--divisor", div, "--orbit", "[3]",
                 "--assume-cb"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["certificate"]["minus_k_degree"] == "10/3"
    assert out["ledger"][-1]["bound_holds"] is False


def _assert_fan_refused(tmp_path, capsys, doc):
    # fan_from_doc used to pass every entry through int(), so each of these
    # was read as a valid P^2.
    path = _write(tmp_path, "fan.json", doc)
    for verb in ("fan-check", "fan-terminal", "curve-find"):
        assert main([verb, "--fan", path]) == EXIT_INPUT
        assert "is not an int" in _input_error(capsys)


P2_DOC = {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
          "max_cones": [[0, 1], [1, 2], [0, 2]]}


def test_cli_fan_float_ray_entry_exit_3(tmp_path, capsys):
    _assert_fan_refused(tmp_path, capsys, dict(P2_DOC, rays=[[1.5, 0], [0, 1], [-1, -1]]))


def test_cli_fan_float_cone_index_exit_3(tmp_path, capsys):
    doc = dict(P2_DOC, max_cones=[[0, 1], [1, 2], [0, 2.9]])
    _assert_fan_refused(tmp_path, capsys, doc)


def test_cli_fan_string_rank_exit_3(tmp_path, capsys):
    _assert_fan_refused(tmp_path, capsys, dict(P2_DOC, rank="2"))


def test_cli_fan_bool_entry_exit_3(tmp_path, capsys):
    _assert_fan_refused(tmp_path, capsys, dict(P2_DOC, rays=[[True, 0], [0, 1], [-1, -1]]))


@pytest.mark.parametrize("weights", ["0,0,0", "1,2,0", "-1,2,3"])
def test_cli_casestudy_search_non_positive_weights_exit_3(weights, capsys):
    # "0,0,0" and "1,2,0" used to end in a ZeroDivisionError traceback, and
    # "-1,2,3" was searched as if it were a weighted plane.
    argv = ["casestudy", "search", f"--weights={weights}", "--cap", "5"]
    assert main(argv) == EXIT_INPUT
    assert "positive ints" in _input_error(capsys)


def test_cli_casestudy_search_not_coprime_weights_exit_3(capsys):
    # Used to exit 0 with candidates measured on P(2, 4, 6), which wps_fan
    # refuses.
    argv = ["casestudy", "search", "--weights", "2,4,6", "--cap", "4"]
    assert main(argv) == EXIT_INPUT
    assert "not coprime" in _input_error(capsys)


def test_cli_casestudy_search_not_well_formed_weights_exit_3(capsys):
    # Used to exit 0; the pair (2, 2) shares a factor.
    argv = ["casestudy", "search", "--weights", "2,2,3", "--cap", "4"]
    assert main(argv) == EXIT_INPUT
    assert "not well-formed" in _input_error(capsys)


def test_cli_casestudy_search_two_weights_exit_3(capsys):
    # Used to end in a DimensionError traceback.
    argv = ["casestudy", "search", "--weights", "1,1", "--cap", "5"]
    assert main(argv) == EXIT_INPUT
    assert "planes only" in _input_error(capsys)


def test_cli_alpha_negative_degree_exit_3(p2_files, tmp_path, capsys):
    # Used to end in an ApproxError traceback ("the degree must be
    # non-negative") with exit 1.
    fan, _ = p2_files
    neg = _write(tmp_path, "neg.json", [-1, -1, -1])
    assert main(["alpha", "--fan", fan, "--divisor", neg]) == EXIT_INPUT
    assert "non-negative" in _input_error(capsys)


P4713_CONTEXT = {"k_is_Q": True,
                 "quadratics": [{"d": -3, "in_k": False, "in_kv": True}]}


def _context_argvs(tmp_path, p2_files, doc):
    fan, div = p2_files
    ctx = _write(tmp_path, "ctx.json", doc)
    return [
        ["theorem-run", "--fan", fan, "--divisor", div, "--assume-cb",
         "--context", ctx],
        ["casestudy", "p4713", "--context", ctx],
    ]


@pytest.mark.parametrize("quadratic", [
    {"d": -3.7, "in_k": False, "in_kv": True},
    {"d": -3, "in_k": False, "in_kv": "no"},
    {"d": -3, "in_k": 0, "in_kv": True},
])
def test_cli_context_entry_of_wrong_type_exit_3(quadratic, p2_files, tmp_path,
                                                capsys):
    # A float d used to be truncated and any flag passed through bool(), so
    # each of these exited 0.
    doc = dict(P4713_CONTEXT, quadratics=[quadratic])
    for argv in _context_argvs(tmp_path, p2_files, doc):
        assert main(argv) == EXIT_INPUT
        assert "invalid context" in _input_error(capsys)


def test_cli_context_not_an_object_exit_3(p2_files, tmp_path, capsys):
    # Used to end in an AttributeError traceback.
    for argv in _context_argvs(tmp_path, p2_files, []):
        assert main(argv) == EXIT_INPUT
        assert "a context is an object" in _input_error(capsys)


def test_cli_valid_context_exit_0(p2_files, tmp_path, capsys):
    for argv in _context_argvs(tmp_path, p2_files, P4713_CONTEXT):
        assert main(argv) == EXIT_OK
        json.loads(capsys.readouterr().out)


def test_cli_closed_stdout_exit_0(p2_files):
    # The read end of stdout is closed before the child writes; the write
    # used to end in a BrokenPipeError traceback and exit 1.
    import os
    import subprocess
    import sys

    import toricapprox

    fan, _ = p2_files
    src = os.path.dirname(os.path.dirname(toricapprox.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argvs = [["fan-check", "--fan", fan],
             ["casestudy", "search", "--weights", "1,2,3", "--cap", "2"]]
    for argv in argvs:
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "toricapprox.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
