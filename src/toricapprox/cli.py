"""Command-line surface.

Verbs: fan-check, fan-terminal, divisor-nef, mmp-run, curve-find, alpha,
theorem-run, casestudy.  Exit codes: 0 success, 1 internal invariant
failure, 2 required assumption flag absent, 3 malformed input, 4 optional
dependency absent (`casestudy search` needs sympy, the `search` extra).

Each verb is one row of `VERBS`: its help, its argument specs and a
handler that returns a result document, or a (document, exit code) pair.
`main` is the one place that runs a handler, prints its document and maps
an exception to an exit code; `report` checks every input document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from toricapprox import report
from toricapprox.approx import (
    ApproxError,
    ArithmeticContext,
    BranchData,
    alpha_rational_curve,
    theorem16_driver,
)
from toricapprox.divisor import is_nef, one_ps_degree
from toricapprox.fan import FanError, is_terminal, recognize_fwps
from toricapprox.fwps import FwpsError, fwps_curve
from toricapprox.mmp import MmpError, run_mmp_chain
from toricapprox.report import InputError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_ASSUMPTION = 2
EXIT_INPUT = 3
EXIT_DEPENDENCY = 4


def _load(path: str, kind: str, parse, *args):
    """The JSON document in file `path`, read by `parse`."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # also bytes that are not UTF-8
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(doc, *args)
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"invalid {kind} in {path}: {exc}") from exc


def _inputs(args):
    """(fan, divisor, orbit, context) read in this order; an input that the
    verb does not take is None."""
    fan = d = orbit = context = None
    if "fan" in args:
        fan = _load(args.fan, "fan", report.fan_from_doc)
    if "divisor" in args:
        d = _load(args.divisor, "divisor", report.divisor_from_doc, len(fan.rays))
    if "orbit" in args:
        orbit = report.orbit_from_doc(args.orbit, fan)
    if "context" in args:
        context = (
            ArithmeticContext()
            if args.context is None
            else _load(args.context, "context", report.context_from_doc)
        )
    return fan, d, orbit, context


def _nef_inputs(args):
    fan, d, orbit, context = _inputs(args)
    if not is_nef(fan, d):
        raise InputError("the divisor is not nef")
    return fan, d, orbit, context


def _curve(fan, orbit):
    try:
        return fwps_curve(recognize_fwps(fan), orbit)
    except (FanError, FwpsError) as exc:
        raise InputError(str(exc)) from exc


def _fan_check(args):
    try:
        fan = _inputs(args)[0]
    except InputError as exc:
        # Distinguish unreadable input (exit 3) from a readable description
        # that fails fan validation (a verdict, exit 0).
        if isinstance(exc.__cause__, FanError):
            return {"valid": False, "error": str(exc.__cause__)}
        raise
    return {
        "valid": True,
        "rank": fan.rank,
        "rays": len(fan.rays),
        "max_cones": len(fan.max_cones),
        "walls": len(fan.walls),
    }


def _fan_terminal(args):
    ok, offending = is_terminal(_inputs(args)[0])
    return {
        "terminal": ok,
        "witness": None if ok else [list(map(int, p)) for p in offending],
    }


def _divisor_nef(args):
    fan, d, _, _ = _inputs(args)
    return {"nef": is_nef(fan, d)}


def _mmp_run(args):
    fan, d, orbit, _ = _nef_inputs(args)
    return report.chain_to_doc(run_mmp_chain(fan, d, orbit))


def _curve_find(args):
    fan, _, orbit, _ = _inputs(args)
    return report.certificate_to_doc(_curve(fan, orbit))


def _alpha(args):
    fan, d, orbit, _ = _inputs(args)
    cert = _curve(fan, orbit)
    degree = one_ps_degree(fan, d, cert.curve)
    try:
        alpha = alpha_rational_curve(degree, BranchData.of([(1, 1)]))
    except ApproxError as exc:
        raise InputError(
            f"the divisor has degree {report.frac_to_str(degree)} on the "
            f"found curve: {exc}"
        ) from exc
    return {
        "alpha": report.frac_to_str(alpha),
        "degree": report.frac_to_str(degree),
        "certificate": report.certificate_to_doc(cert),
    }


def _theorem_run(args):
    if not args.assume_cb:
        return {
            "error": "assumption required",
            "explanation": (
                "the dense-sequence comparison needs the canonical "
                "boundedness assumption (alpha of -K at least dim for "
                "all Zariski-dense sequences); pass --assume-cb to "
                "accept it"
            ),
        }, EXIT_ASSUMPTION
    fan, d, orbit, context = _nef_inputs(args)
    res = theorem16_driver(
        fan, d, orbit, context, assume_canonically_bounded=True
    )
    return report.approx_to_doc(res)


def _casestudy(args):
    from toricapprox.casestudy import (
        CaseStudyError,
        casestudy_p4713,
        curve_alpha_search,
    )

    context = _inputs(args)[3]
    if args.subject == "p4713":
        # The verdict turns on sqrt(-3); refuse before the long computation.
        try:
            context.lookup(-3)
        except ApproxError as exc:
            raise InputError(
                f"casestudy p4713 needs a --context declaring d = -3: {exc}"
            ) from exc
        return report.casestudy_to_doc(casestudy_p4713(context))
    try:
        weights = tuple(int(x) for x in args.weights.split(","))
    except (AttributeError, ValueError) as exc:
        raise InputError(f"invalid weights {args.weights!r}") from exc
    try:
        cands = curve_alpha_search(weights, args.cap, context)
    except (CaseStudyError, FanError) as exc:
        raise InputError(f"invalid weights {args.weights!r}: {exc}") from exc
    except ModuleNotFoundError as exc:
        if exc.name != "sympy":
            raise
        return {
            "error": "missing dependency",
            "explanation": (
                "casestudy search factors polynomials with sympy, which is "
                "not installed; install the search extra: "
                "pip install 'toricapprox[search]'"
            ),
        }, EXIT_DEPENDENCY
    return report.candidates_to_doc(cands)


FAN = ("--fan", {"required": True})
DIVISOR = ("--divisor", {"required": True})
ORBIT = ("--orbit", {"default": "[]"})
CONTEXT = ("--context", {"default": None})
FORMAT = ("--format", {"choices": ("json", "text"), "default": "json"})

# verb -> (help, argument specs, handler)
VERBS = {
    "fan-check": ("validate a fan file", (FAN,), _fan_check),
    "fan-terminal": ("test terminality", (FAN,), _fan_terminal),
    "divisor-nef": ("test nefness", (FAN, DIVISOR), _divisor_nef),
    "mmp-run": ("run the a-value MMP chain", (FAN, DIVISOR, ORBIT), _mmp_run),
    "curve-find": (
        "low-degree curve on a fake weighted projective space",
        (FAN, ORBIT),
        _curve_find,
    ),
    "alpha": (
        "alpha of the found curve against a divisor",
        (FAN, DIVISOR, ORBIT),
        _alpha,
    ),
    "theorem-run": (
        "end-to-end driver",
        (FAN, DIVISOR, ORBIT, CONTEXT, ("--assume-cb", {"action": "store_true"})),
        _theorem_run,
    ),
    "casestudy": (
        "weighted-plane case study",
        (
            ("subject", {"choices": ("p4713", "search")}),
            CONTEXT,
            ("--weights", {"default": None}),
            ("--cap", {"type": int, "default": 39}),
        ),
        _casestudy,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toricapprox",
        description=(
            "exact toolkit for rational-curve approximation on toric varieties"
        ),
    )
    sub = p.add_subparsers(dest="verb", required=True)
    for verb, (help_, specs, handler) in VERBS.items():
        sp = sub.add_parser(verb, help=help_)
        for name, kwargs in (*specs, FORMAT):
            sp.add_argument(name, **kwargs)
        sp.set_defaults(handler=handler)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        result = args.handler(args)
        doc, code = result if isinstance(result, tuple) else (result, EXIT_OK)
        text = report.render(doc, args.format)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        # Invariant and MMP failures state their own case; anything else is
        # named by its type.
        known = isinstance(exc, (AssertionError, MmpError))
        message = str(exc) if known else f"{type(exc).__name__}: {exc}"
        print(json.dumps({"internal_error": message}), file=sys.stderr)
        return EXIT_INTERNAL
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so that
        # the interpreter's final flush does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
