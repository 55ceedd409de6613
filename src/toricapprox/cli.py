"""Command-line surface.

Verbs: fan-check, fan-terminal, divisor-nef, mmp-run, curve-find, alpha,
theorem-run, casestudy.  Exit codes: 0 success, 1 internal invariant
failure, 2 required assumption flag absent, 3 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

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

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_ASSUMPTION = 2
EXIT_INPUT = 3


class InputError(ValueError):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_fan(path: str):
    doc = _load_json(path)
    try:
        return report.fan_from_doc(doc)
    except (KeyError, TypeError, ValueError, FanError) as exc:
        raise InputError(f"invalid fan in {path}: {exc}") from exc


def _load_divisor(path: str, fan):
    doc = _load_json(path)
    try:
        d = report.divisor_from_doc(doc)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"invalid divisor in {path}: {exc}") from exc
    if len(d.coeffs) != len(fan.rays):
        raise InputError(
            f"divisor has {len(d.coeffs)} coefficients for {len(fan.rays)} rays"
        )
    return d


def _load_orbit(text: str, fan):
    try:
        return fan.require_cone(int(i) for i in json.loads(text))
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise InputError(f"invalid orbit {text!r}: {exc}") from exc


def _load_context(path):
    if path is None:
        return ArithmeticContext()
    doc = _load_json(path)
    try:
        return ArithmeticContext.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid context in {path}: {exc}") from exc


def _emit(doc, fmt: str):
    print(report.render(doc, fmt))


def cmd_fan_check(args) -> int:
    try:
        fan = _load_fan(args.fan)
    except InputError as exc:
        # Distinguish unreadable input (exit 3) from a readable description
        # that fails fan validation (a verdict, exit 0).
        if isinstance(exc.__cause__, FanError):
            _emit({"valid": False, "error": str(exc.__cause__)}, args.format)
            return EXIT_OK
        raise
    _emit(
        {
            "valid": True,
            "rank": fan.rank,
            "rays": len(fan.rays),
            "max_cones": len(fan.max_cones),
            "walls": len(fan.walls),
        },
        args.format,
    )
    return EXIT_OK


def cmd_fan_terminal(args) -> int:
    fan = _load_fan(args.fan)
    ok, offending = is_terminal(fan)
    _emit(
        {
            "terminal": ok,
            "witness": None if ok else [list(map(int, p)) for p in offending],
        },
        args.format,
    )
    return EXIT_OK


def cmd_divisor_nef(args) -> int:
    fan = _load_fan(args.fan)
    d = _load_divisor(args.divisor, fan)
    _emit({"nef": is_nef(fan, d)}, args.format)
    return EXIT_OK


def cmd_mmp_run(args) -> int:
    fan = _load_fan(args.fan)
    d = _load_divisor(args.divisor, fan)
    orbit = _load_orbit(args.orbit, fan)
    if not is_nef(fan, d):
        raise InputError("the divisor is not nef")
    chain = run_mmp_chain(fan, d, orbit)
    _emit(report.chain_to_doc(chain), args.format)
    return EXIT_OK


def cmd_curve_find(args) -> int:
    fan = _load_fan(args.fan)
    orbit = _load_orbit(args.orbit, fan)
    try:
        data = recognize_fwps(fan)
        cert = fwps_curve(data, orbit)
    except (FanError, FwpsError) as exc:
        raise InputError(str(exc)) from exc
    _emit(report.certificate_to_doc(cert), args.format)
    return EXIT_OK


def cmd_alpha(args) -> int:
    fan = _load_fan(args.fan)
    d = _load_divisor(args.divisor, fan)
    orbit = _load_orbit(args.orbit, fan)
    try:
        data = recognize_fwps(fan)
        cert = fwps_curve(data, orbit)
    except (FanError, FwpsError) as exc:
        raise InputError(str(exc)) from exc
    degree = one_ps_degree(fan, d, cert.curve)
    alpha = alpha_rational_curve(degree, BranchData.of([(1, 1)]))
    _emit(
        {
            "alpha": report.frac_to_str(alpha),
            "degree": report.frac_to_str(degree),
            "certificate": report.certificate_to_doc(cert),
        },
        args.format,
    )
    return EXIT_OK


def cmd_theorem_run(args) -> int:
    if not args.assume_cb:
        _emit(
            {
                "error": "assumption required",
                "explanation": (
                    "the dense-sequence comparison needs the canonical "
                    "boundedness assumption (alpha of -K at least dim for "
                    "all Zariski-dense sequences); pass --assume-cb to "
                    "accept it"
                ),
            },
            args.format,
        )
        return EXIT_ASSUMPTION
    fan = _load_fan(args.fan)
    d = _load_divisor(args.divisor, fan)
    orbit = _load_orbit(args.orbit, fan)
    context = _load_context(args.context)
    if not is_nef(fan, d):
        raise InputError("the divisor is not nef")
    res = theorem16_driver(
        fan, d, orbit, context, assume_canonically_bounded=True
    )
    _emit(report.approx_to_doc(res), args.format)
    return EXIT_OK


def cmd_casestudy(args) -> int:
    from toricapprox.casestudy import casestudy_p4713, curve_alpha_search

    context = _load_context(args.context)
    if args.subject == "p4713":
        # The verdict turns on sqrt(-3); refuse before the long computation.
        try:
            context.lookup(-3)
        except ApproxError as exc:
            raise InputError(
                f"casestudy p4713 needs a --context declaring d = -3: {exc}"
            ) from exc
        rep = casestudy_p4713(context)
        _emit(report.casestudy_to_doc(rep), args.format)
        return EXIT_OK
    if args.subject == "search":
        try:
            weights = tuple(int(x) for x in args.weights.split(","))
        except (AttributeError, ValueError) as exc:
            raise InputError(f"invalid weights {args.weights!r}") from exc
        cands = curve_alpha_search(weights, args.cap, context)
        _emit(report.candidates_to_doc(cands), args.format)
        return EXIT_OK
    raise InputError(f"unknown casestudy subject {args.subject!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="toricapprox",
        description=(
            "exact toolkit for rational-curve approximation on toric varieties"
        ),
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("json", "text"), default="json")

    sp = sub.add_parser("fan-check", help="validate a fan file")
    sp.add_argument("--fan", required=True)
    common(sp)
    sp.set_defaults(func=cmd_fan_check)

    sp = sub.add_parser("fan-terminal", help="test terminality")
    sp.add_argument("--fan", required=True)
    common(sp)
    sp.set_defaults(func=cmd_fan_terminal)

    sp = sub.add_parser("divisor-nef", help="test nefness")
    sp.add_argument("--fan", required=True)
    sp.add_argument("--divisor", required=True)
    common(sp)
    sp.set_defaults(func=cmd_divisor_nef)

    sp = sub.add_parser("mmp-run", help="run the a-value MMP chain")
    sp.add_argument("--fan", required=True)
    sp.add_argument("--divisor", required=True)
    sp.add_argument("--orbit", default="[]")
    common(sp)
    sp.set_defaults(func=cmd_mmp_run)

    sp = sub.add_parser(
        "curve-find", help="low-degree curve on a fake weighted projective space"
    )
    sp.add_argument("--fan", required=True)
    sp.add_argument("--orbit", default="[]")
    common(sp)
    sp.set_defaults(func=cmd_curve_find)

    sp = sub.add_parser("alpha", help="alpha of the found curve against a divisor")
    sp.add_argument("subject", nargs="?", default="curve", choices=("curve",))
    sp.add_argument("--fan", required=True)
    sp.add_argument("--divisor", required=True)
    sp.add_argument("--orbit", default="[]")
    common(sp)
    sp.set_defaults(func=cmd_alpha)

    sp = sub.add_parser("theorem-run", help="end-to-end driver")
    sp.add_argument("--fan", required=True)
    sp.add_argument("--divisor", required=True)
    sp.add_argument("--orbit", default="[]")
    sp.add_argument("--context", default=None)
    sp.add_argument("--assume-cb", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_theorem_run)

    sp = sub.add_parser("casestudy", help="weighted-plane case study")
    sp.add_argument("subject", choices=("p4713", "search"))
    sp.add_argument("--context", default=None)
    sp.add_argument("--weights", default=None)
    sp.add_argument("--cap", type=int, default=39)
    common(sp)
    sp.set_defaults(func=cmd_casestudy)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_INPUT
    except (AssertionError, MmpError) as exc:
        print(json.dumps({"internal_error": str(exc)}), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
