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


def test_cli_fan_terminal(p2_files, tmp_path, capsys):
    fan, _ = p2_files
    assert main(["fan-terminal", "--fan", fan]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["terminal"] is True
    wps = _write(tmp_path, "wps.json", report.fan_to_doc(wps_fan((1, 1, 2))))
    assert main(["fan-terminal", "--fan", wps]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["terminal"] is False and out["witness"]


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
