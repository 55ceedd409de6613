"""The op of each workload, the document its output renders to, and the
invariants every output document must satisfy.

Library calls go through module attributes (`fanmod.wps_fan`, ...) so that
the traced run's rebinding applies to the benchmark's own calls too.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations

from toricapprox import approx, cli, divisor, fwps, report
from toricapprox import fan as fanmod


class CliExit1(Exception):
    """A CLI request that ended with exit code 1 (internal failure)."""


def orbit_cones(fan) -> list:
    """The zero cone and every cone of the fan, one per torus orbit."""
    out = [()]
    for k in range(1, fan.rank + 1):
        for c in combinations(range(len(fan.rays)), k):
            if fan.has_cone(c):
                out.append(c)
    return out


def _minus_k_bound(minus_k, rank: int, terminal: bool, pn: bool) -> list:
    if minus_k > rank + 1:
        return [f"-K.C = {minus_k} > {rank + 1}"]
    if terminal and not pn and minus_k > rank:
        return [f"-K.C = {minus_k} > {rank} on a terminal fan that is not P^n"]
    return []


def _minus_k_ok(fan, cert_doc) -> list:
    """The -K.C bound of a certificate document on the fan it was made on."""
    minus_k = report.str_to_frac(cert_doc["minus_k_degree"])
    return _minus_k_bound(minus_k, fan.rank, fanmod.is_terminal(fan)[0],
                          fanmod.is_projective_space(fan))


def _alpha_matches(fan, d, cert_doc, alpha) -> list:
    """alpha against a fresh one_ps_degree of the certificate's curve."""
    curve = divisor.OnePsCurve(tuple(cert_doc["curve"]["tau"]),
                               tuple(cert_doc["curve"]["w"]))
    fresh = divisor.one_ps_degree(fan, d, curve)
    return [] if alpha == fresh else [f"alpha {alpha} != fresh degree {fresh}"]


def _fan(t: dict):
    return fanmod.build_fan(
        t["rank"],
        [tuple(v) for v in t["rays"]],
        [tuple(c) for c in t["max_cones"]],
    )


class WpsSweep:
    """Fan, fwps recognition, a certificate for every orbit cone, and
    terminality of one weighted projective space."""

    def __init__(self, stream):
        self.stream = [tuple(q) for q in stream]

    def run(self, i: int):
        q = self.stream[i]
        fan = fanmod.wps_fan(q)
        data = fanmod.recognize_fwps(fan)
        certs = [fwps.fwps_curve(data, orbit) for orbit in orbit_cones(fan)]
        terminal, witness = fanmod.is_terminal(fan)
        return q, fan, data, certs, terminal, witness

    def document(self, out) -> dict:
        q, fan, data, certs, terminal, witness = out
        return {
            "weights": list(q),
            "fan": report.fan_to_doc(fan),
            "fwps": {
                "weights": list(data.weights),
                "cover_index": data.cover_index,
                "group_factors": list(data.group_factors),
            },
            "terminal": terminal,
            "witness": [list(c) for c in witness],
            "certificates": [report.certificate_to_doc(c) for c in certs],
        }

    def check(self, i: int, doc: dict) -> list:
        q = self.stream[i]
        pn = all(w == 1 for w in q)
        bad = []
        for cert in doc["certificates"]:
            minus_k = report.str_to_frac(cert["minus_k_degree"])
            bad += _minus_k_bound(minus_k, len(q) - 1, doc["terminal"], pn)
        return [f"{q}: {b}" for b in bad]


class MmpDriver:
    """build_fan, then theorem16_driver(assume_canonically_bounded=True) on
    one (fan, nef divisor, orbit cone) triple."""

    def __init__(self, stream):
        self.stream = stream

    def run(self, i: int):
        t = self.stream[i]
        fan = _fan(t)
        d = divisor.TorusDivisor.of([Fraction(c) for c in t["divisor"]])
        return approx.theorem16_driver(
            fan, d, tuple(t["orbit"]), assume_canonically_bounded=True
        )

    def document(self, res) -> dict:
        return report.approx_to_doc(res)

    def check(self, i: int, doc: dict) -> list:
        t = self.stream[i]
        fan = _fan(t)
        d = divisor.TorusDivisor.of([Fraction(c) for c in t["divisor"]])
        alpha = report.str_to_frac(doc["alpha"])
        bad = _alpha_matches(fan, d, doc["certificate"], alpha)
        bad += _minus_k_ok(fan, doc["certificate"])
        expect = t.get("expect_alpha")
        if expect is not None and alpha != Fraction(expect):
            bad.append(f"golden alpha {alpha} != {expect}")
        return [f"{t['rays']} orbit {t['orbit']}: {b}" for b in bad]


class CliSession:
    """One `cli.main(argv)` request against the seeded file pool, run from
    the pool directory."""

    def __init__(self, stream):
        self.stream = stream

    def run(self, i: int):
        argv = self.stream[i]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        if code == cli.EXIT_INTERNAL:
            raise CliExit1(err.getvalue().strip())
        return argv, code, out.getvalue(), err.getvalue()

    def document(self, out) -> dict:
        argv, code, stdout, stderr = out
        return {"argv": argv, "exit": code, "stdout": stdout, "stderr": stderr}

    def check(self, i: int, doc: dict) -> list:
        argv, code, stdout = doc["argv"], doc["exit"], doc["stdout"]
        verb = argv[0]
        bad = []
        fan_file = argv[argv.index("--fan") + 1] if "--fan" in argv else ""
        if fan_file.startswith("invalid"):
            if verb == "fan-check":
                if code != 0 or json.loads(stdout)["valid"]:
                    bad.append("invalid fan not reported invalid")
            elif code != cli.EXIT_INPUT:
                bad.append(f"invalid fan gave exit {code}, not 3")
            return [f"{argv}: {b}" for b in bad]
        if code != 0:
            return [f"{argv}: exit {code}"]
        out = json.loads(stdout)
        if verb == "casestudy":
            if out["lower_bound"] != "39/2":
                bad.append(f"lower bound {out['lower_bound']} != 39/2")
        elif verb == "fan-check" and not out["valid"]:
            bad.append("valid fan reported invalid")
        elif verb in ("curve-find", "alpha", "theorem-run"):
            cert = out if verb == "curve-find" else out["certificate"]
            fan = report.fan_from_doc(_load(argv, "--fan"))
            bad += _minus_k_ok(fan, cert)
            if verb != "curve-find":
                d = report.divisor_from_doc(_load(argv, "--divisor"))
                alpha = report.str_to_frac(out["alpha"])
                bad += _alpha_matches(fan, d, cert, alpha)
        return [f"{argv}: {b}" for b in bad]


def _load(argv, flag):
    with open(argv[argv.index(flag) + 1]) as fh:
        return json.load(fh)


WORKLOADS = {
    "wps_sweep": WpsSweep,
    "mmp_driver": MmpDriver,
    "cli_session": CliSession,
}
