"""Hypothesis fuzz of the command line over argv and input documents.

Every verb of `cli.VERBS` runs on small fixture fans and on mutations of
their fan, divisor and context documents, with random `--orbit` text.
Each request must end in a documented outcome: exit 0 with a result
document on stdout, exit 2 with the assumption document on stdout, exit 3
with an {"error": ...} document on stderr, or exit 1 with an
{"internal_error": ...} document on stderr.  No exception may leave
`cli.main`.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toricapprox import cli, report
from toricapprox.fan import build_fan, projective_space_fan, wps_fan

FANS = [
    report.fan_to_doc(f)
    for f in (
        projective_space_fan(2),
        build_fan(2, [(1, 0), (0, 1), (-1, 1), (0, -1)],
                  [(0, 1), (1, 2), (2, 3), (3, 0)]),
        projective_space_fan(3),
        wps_fan((1, 1, 2)),
        build_fan(2, [(1, 0), (1, 3), (-2, -3)], [(0, 1), (0, 2), (1, 2)]),
    )
]
CONTEXT = {"k_is_Q": True,
           "quadratics": [{"d": -3, "in_k": False, "in_kv": True}]}

JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-4, 4) | st.integers()
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
ENTRY = st.integers(0, 3) | st.integers(-3, 3) | st.sampled_from(["1/2", "-2/3", "5"])


def _mutate(data, doc, depth=0):
    """A copy of `doc` with one node replaced, dropped or left alone; half
    of the documents stay valid."""
    choice = data.draw(st.sampled_from(["keep"] * 3 + ["replace", "drop", "descend"]))
    if choice == "replace" or (choice == "descend" and depth > 3):
        return data.draw(JSON)
    if not isinstance(doc, (list, dict)) or not doc or choice == "keep":
        return doc
    keys = list(doc) if isinstance(doc, dict) else list(range(len(doc)))
    key = data.draw(st.sampled_from(keys))
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    if choice == "drop":
        del out[key]
    else:
        out[key] = _mutate(data, doc[key], depth + 1)
    return out


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _argv(data, workdir, verb):
    """argv for `verb`: every argument its spec in `cli.VERBS` names."""
    fan = data.draw(st.sampled_from(FANS))
    n = len(fan["rays"])
    argv = [verb]
    for name, _ in cli.VERBS[verb][1]:
        if name == "--fan":
            argv += [name, _write(workdir / "fan.json", _mutate(data, fan))]
        elif name == "--divisor":
            d = data.draw(st.lists(ENTRY, min_size=n, max_size=n))
            argv += [name, _write(workdir / "d.json", _mutate(data, d))]
        elif name == "--orbit":
            orbit = st.lists(st.integers(-1, n), max_size=4).map(json.dumps)
            text = data.draw(st.just("[]") | orbit | st.text(max_size=6))
            argv.append(f"{name}={text}")  # text may begin with "-"
        elif name == "--context" and data.draw(st.booleans()):
            argv += [name, _write(workdir / "ctx.json", _mutate(data, CONTEXT))]
        elif name == "--assume-cb" and data.draw(st.booleans()):
            argv.append(name)
        elif name == "subject":
            argv.append(data.draw(st.sampled_from(["p4713", "search"])))
        elif name == "--weights" and data.draw(st.booleans()):
            weights = st.lists(st.integers(-1, 9), max_size=4).map(
                lambda w: ",".join(map(str, w)))
            planes = st.sampled_from(["1,1,1", "1,1,2", "1,2,3", "4,7,13"])
            text = data.draw(planes | weights | st.text(max_size=6))
            argv.append(f"{name}={text}")
        elif name == "--cap":
            # The search is exponential in the cap; keep it small.
            argv += [name, str(data.draw(st.integers(-1, 3)))]
    return argv + ["--format", data.draw(st.sampled_from(["json", "text"]))]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_request_ends_in_a_documented_outcome(workdir, data):
    argv = _argv(data, workdir, data.draw(st.sampled_from(sorted(cli.VERBS))))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == cli.EXIT_OK:
        assert out.strip() and not err
        if argv[-1] == "json":
            assert isinstance(json.loads(out), dict)
    elif code == cli.EXIT_ASSUMPTION:
        assert argv[0] == "theorem-run" and not err
        if argv[-1] == "json":
            assert json.loads(out)["error"] == "assumption required"
    elif code == cli.EXIT_INPUT:
        assert not out and isinstance(json.loads(err)["error"], str)
    else:
        assert code == cli.EXIT_INTERNAL, code
        assert not out and isinstance(json.loads(err)["internal_error"], str)
