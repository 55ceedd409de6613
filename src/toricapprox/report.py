"""Deterministic result documents with exact rationals as "p/q" strings.

Every serializer produces plain JSON-compatible dicts; rendering is
byte-stable (sorted keys, fixed separators).  Rationals never appear as
floats; parse(print(x)) is the identity on documents.

The `*_from_doc` readers are the one place that checks input documents
(fans, divisors, orbits, arithmetic contexts): an entry of the wrong JSON
type is refused, never coerced.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from toricapprox.approx import (
    INFINITY,
    ApproxResult,
    ArithmeticContext,
    Lemma42Record,
)
from toricapprox.divisor import TorusDivisor
from toricapprox.fan import Fan, FanError, build_fan
from toricapprox.fwps import CurveCertificate
from toricapprox.mmp import MmpChain

SCHEMA_VERSION = 1


class InputError(ValueError):
    """A malformed input document or argument (command-line exit 3)."""


def frac_to_str(x) -> str:
    if x is INFINITY:
        return "infinity"
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(
        f.numerator
    )


def str_to_frac(s: str):
    if s == "infinity":
        return INFINITY
    return Fraction(s)


def fan_to_doc(fan: Fan) -> dict:
    return {
        "rank": fan.rank,
        "rays": [list(v) for v in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def fan_from_doc(doc: dict) -> Fan:
    """Rank, ray coordinates and cone indices must be JSON ints; a float
    or a bool is refused rather than truncated."""
    rank = doc["rank"]
    rays = [tuple(v) for v in doc["rays"]]
    cones = [tuple(c) for c in doc["max_cones"]]
    for x in (rank, *(x for v in rays for x in v), *(i for c in cones for i in c)):
        if type(x) is not int:
            raise TypeError(f"fan entry {x!r} is not an int")
    return build_fan(rank, rays, cones)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def divisor_from_doc(doc, n_rays=None) -> TorusDivisor:
    """A JSON list of ints or "p/q" strings ("3", "-1/2"); an inexact JSON
    float, and a decimal or exponent string ("1.5", "1e5"), are refused.
    Given `n_rays`, there must be one entry per ray."""
    if not isinstance(doc, list):
        raise TypeError(f"a divisor is a list, not {type(doc).__name__}")
    for s in doc:
        if type(s) is not int and not isinstance(s, str):
            raise TypeError(f"divisor entry {s!r} is not an int or a string")
        if isinstance(s, str) and not _RATIONAL.fullmatch(s):
            raise ValueError(f"divisor entry {s!r} is not an int or p/q string")
    d = TorusDivisor.of([Fraction(s) for s in doc])
    if n_rays is not None and len(d.coeffs) != n_rays:
        raise InputError(
            f"divisor has {len(d.coeffs)} coefficients for {n_rays} rays"
        )
    return d


def orbit_from_doc(text: str, fan: Fan) -> tuple:
    """A JSON list of distinct ray indices that spans a cone of the fan."""
    try:
        orbit = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid orbit {text!r}: {exc}") from exc
    if not isinstance(orbit, list) or any(type(i) is not int for i in orbit):
        raise InputError(f"invalid orbit {text!r}: not a list of ray indices")
    try:
        return fan.require_cone(orbit)
    except FanError as exc:
        raise InputError(f"invalid orbit {text!r}: {exc}") from exc


def context_from_doc(doc) -> ArithmeticContext:
    """Each quadratic's `d` must be a JSON int, and `k_is_Q`, `in_k` and
    `in_kv` JSON booleans; a float, a string or an int flag is refused
    rather than coerced."""
    if not isinstance(doc, dict):
        raise TypeError(f"a context is an object, not {type(doc).__name__}")
    quads = doc.get("quadratics", [])
    if not isinstance(quads, list):
        raise TypeError(f"quadratics is a list, not {type(quads).__name__}")
    quads = tuple((q["d"], q["in_k"], q["in_kv"]) for q in quads)
    k_is_q = doc.get("k_is_Q", True)
    for d, _, _ in quads:
        if type(d) is not int:
            raise TypeError(f"context entry d = {d!r} is not an int")
    for flag in (k_is_q, *(f for q in quads for f in q[1:])):
        if type(flag) is not bool:
            raise TypeError(f"context flag {flag!r} is not a boolean")
    return ArithmeticContext(k_is_q, quads)


def divisor_to_doc(d: TorusDivisor):
    return [frac_to_str(c) for c in d.coeffs]


def certificate_to_doc(cert: CurveCertificate) -> dict:
    return {
        "curve": {"tau": list(cert.curve.tau), "w": list(cert.curve.w)},
        "intersections": [frac_to_str(x) for x in cert.intersections],
        "minus_k_degree": frac_to_str(cert.minus_k),
        "bound": frac_to_str(cert.bound),
        "trace": list(cert.trace),
        "assumptions": list(cert.assumptions),
    }


def ledger_record_to_doc(rec: Lemma42Record) -> dict:
    return {
        "a": frac_to_str(rec.a),
        "d_degree": frac_to_str(rec.d_degree),
        "shifted_degree": frac_to_str(rec.shifted_degree),
        "minus_k_degree": frac_to_str(rec.minus_k_degree),
        "dim": rec.dim,
        "bound_holds": rec.bound_holds,
    }


def chain_to_doc(chain: MmpChain) -> dict:
    return {
        "canonically_bounded": chain.canonically_bounded,
        "steps": [
            {
                "kind": s.kind,
                "a": frac_to_str(s.a),
                "relation": list(s.ray.curve.relation),
                "exc_cone": list(s.exc_cone),
                "p_orbit": list(s.p_orbit),
                "p_in_exc": s.p_in_exc,
            }
            for s in chain.steps
        ],
    }


def approx_to_doc(res: ApproxResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "alpha": frac_to_str(res.alpha),
        "degree": frac_to_str(res.degree),
        "branches": [list(b) for b in res.branches.branches],
        "certificate": certificate_to_doc(res.certificate),
        "chain": chain_to_doc(res.chain) if res.chain is not None else None,
        "ledger": [ledger_record_to_doc(r) for r in res.ledger],
        "assumptions": list(res.assumptions),
        "comparison": res.comparison,
        "best_approximation": res.best_approximation,
    }


def casestudy_to_doc(rep) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "driver_degree": frac_to_str(rep.driver_degree),
        "driver_alpha": frac_to_str(rep.driver_alpha),
        "x5_eq_yz_alpha": frac_to_str(rep.x5_eq_yz_alpha),
        "cprime": {
            "degree": rep.cprime_degree,
            "multiplicity": rep.cprime_multiplicity,
            "splitting": rep.cprime_splitting,
            "alpha": frac_to_str(rep.cprime_alpha),
            "note": rep.cprime_alpha_note,
        },
        "h0_dimension": rep.h0_dimension,
        "order3_section": list(rep.order3_section),
        "order3_unique": rep.order3_unique,
        "order3_multiplicity": rep.order3_multiplicity,
        "blowup_square": frac_to_str(rep.blowup_square),
        "cdoubleprime_alpha_lower": frac_to_str(rep.cdoubleprime_alpha_lower),
        "lower_bound": frac_to_str(rep.lower_bound),
        "lower_bound_note": rep.lower_bound_note,
        "verdict": rep.verdict,
        "assumptions": list(rep.assumptions),
    }


def candidates_to_doc(cands) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "candidates": [
            {
                "degree": c.degree,
                "multiplicity": c.multiplicity,
                "splitting": c.splitting,
                "alpha": frac_to_str(c.alpha) if c.alpha is not None else None,
                "conditional": c.conditional,
                "note": c.note,
                "monomials": [
                    {"exponents": list(e), "coefficient": frac_to_str(co)}
                    for e, co in c.form.monomials
                ],
            }
            for c in cands
        ],
    }


def render(doc, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=2)
    return _render_text(doc, 0)


def parse(text: str):
    return json.loads(text)


def _render_text(doc, depth: int) -> str:
    pad = "  " * depth
    if isinstance(doc, dict):
        lines = []
        for k in sorted(doc):
            v = doc[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, depth + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
        return "\n".join(lines)
    if isinstance(doc, list):
        lines = []
        for v in doc:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_text(v, depth + 1))
            else:
                lines.append(f"{pad}- {v}")
        return "\n".join(lines)
    return f"{pad}{doc}"
