"""Approximation constants of rational curves and the end-to-end driver.

The branch formula alpha = min d/(r·m), transport of curve certificates
back up a minimal-model-program chain, the blown-up-projective-space line
construction, the a-value comparison ledger, and the driver assembling a
low-degree unibranch curve through a torus-orbit point together with its
alpha value and assumption ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from toricapprox.fan import Fan, is_projective_space, star_fan
from toricapprox.divisor import (
    OnePsCurve,
    TorusDivisor,
    canonical_divisor,
    one_ps_degree,
    ray_divisor,
    support_function,
)
from toricapprox.fwps import (
    CurveCertificate,
    IsProjectiveSpace,
    base_case_curve,
    make_certificate,
    wps_curve_all_leq1,
)
from toricapprox.mmp import (
    DIVISORIAL,
    FLIP,
    MORI_FIBER,
    ContractionResult,
    FlipResult,
    MmpChain,
    MmpStepRecord,
    OrbitInExc,
    run_mmp_chain,
)


class ApproxError(ValueError):
    pass


class NotPnDownstream(ApproxError):
    pass


class AssumptionRequired(ApproxError):
    """An explicit assumption flag (canonical boundedness) is missing."""


class _Infinity:
    """Positive infinity for approximation constants, kept out of float land."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "infinity"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("toricapprox-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


INFINITY = _Infinity()


@dataclass(frozen=True)
class BranchData:
    """Preimage points on the normalization of a rational curve at P.

    branches: tuples (m, r): m >= 1 the branch multiplicity, r in {0,1,2}
    the local-field residue degree contribution (0 when the branch point's
    residue field does not embed in the completion).
    """

    branches: tuple

    def __post_init__(self):
        if not self.branches:
            raise ApproxError("at least one branch is required")
        for m, r in self.branches:
            if m < 1 or r not in (0, 1, 2):
                raise ApproxError(f"invalid branch (m={m}, r={r})")

    @staticmethod
    def of(pairs: Sequence) -> "BranchData":
        return BranchData(tuple((int(m), int(r)) for m, r in pairs))


@dataclass(frozen=True)
class ArithmeticContext:
    """Declared arithmetic of the ground field k and the chosen place.

    k_is_q: whether k is the rational field; quadratics maps a squarefree
    integer d to flags (sqrt(d) in k, sqrt(d) in the completion k_v).
    Membership in k implies membership in k_v.
    """

    k_is_q: bool = True
    quadratics: tuple = ()  # tuple of (d, in_k, in_kv)

    def __post_init__(self):
        for d, in_k, in_kv in self.quadratics:
            if in_k and not in_kv:
                raise ApproxError(
                    f"sqrt({d}) in k requires sqrt({d}) in k_v"
                )

    def lookup(self, d: int):
        for dd, in_k, in_kv in self.quadratics:
            if dd == d:
                return in_k, in_kv
        raise ApproxError(f"no declaration for the field Q(sqrt({d}))")

    @staticmethod
    def from_dict(doc: dict) -> "ArithmeticContext":
        quads = tuple(
            (int(q["d"]), bool(q["in_k"]), bool(q["in_kv"]))
            for q in doc.get("quadratics", ())
        )
        return ArithmeticContext(bool(doc.get("k_is_Q", True)), quads)

    def to_dict(self) -> dict:
        return {
            "k_is_Q": self.k_is_q,
            "quadratics": [
                {"d": d, "in_k": in_k, "in_kv": in_kv}
                for d, in_k, in_kv in self.quadratics
            ],
        }


def alpha_rational_curve(d, branches: BranchData):
    """alpha of D restricted to a rational curve: min over branches of
    d/(r·m); a branch with r = 0 contributes infinity."""
    d = Fraction(d)
    if d < 0:
        raise ApproxError("the degree must be non-negative")
    best = INFINITY
    for m, r in branches.branches:
        if r == 0:
            continue
        val = d / (r * m)
        if best is INFINITY or val < best:
            best = val
    return best


@dataclass(frozen=True)
class Lemma42Record:
    """One instance of the a-value comparison alpha(D) = alpha(D+aK) + a·(-K·C).

    The displayed chain bound needs (-K·C)/m <= dim; bound_holds records
    whether it does (it can fail only on projective space itself, where the
    driver argues directly instead)."""

    a: Fraction
    d_degree: Fraction
    shifted_degree: Fraction
    minus_k_degree: Fraction
    dim: int
    bound_holds: bool


def lemma42_ledger(
    cert: CurveCertificate, d: TorusDivisor, a, dim: int
) -> Lemma42Record:
    """Record the exact a-value comparison for a certificate's curve."""
    a = Fraction(a)
    if a < 0:
        raise ApproxError("a must be non-negative")
    dd = one_ps_degree(cert.fan, d, cert.curve)
    k = canonical_divisor(cert.fan)
    shifted = one_ps_degree(cert.fan, d + a * k, cert.curve)
    minus_k = one_ps_degree(cert.fan, -1 * k, cert.curve)
    assert dd == shifted + a * minus_k, "exact degree bookkeeping"
    return Lemma42Record(a, dd, shifted, minus_k, dim, minus_k <= dim)


def transport_curve(step: MmpStepRecord, cert: CurveCertificate) -> CurveCertificate:
    """Strict transform of a downstream certificate across one MMP step.

    Divisorial: the orbit cone pulls back along the ray correspondence and
    the weight is unchanged (same lattice); asserts the discrepancy identity
    -K_X·C = -K_Y·C' - r·(E·C) with r > 0.  Flip: rays agree, the cone must
    survive; asserts preservation of the step's shifted-divisor degree and
    the sign of the exceptional correction.  Requires P outside this step's
    exceptional locus.
    """
    if step.p_in_exc:
        raise OrbitInExc("P lies in this step's exceptional locus")
    if step.kind == DIVISORIAL:
        return _transport_divisorial(step, cert)
    if step.kind == FLIP:
        return _transport_flip(step, cert)
    raise ApproxError("Mori fiber steps are always terminal for P")


def _transport_divisorial(step, cert):
    res: ContractionResult = step.result
    x, y = res.source, res.target
    assert cert.fan == y, "certificate must live on the step's target"
    inv = {j: i for i, j in enumerate(res.ray_map) if j is not None}
    tau_x = tuple(sorted(inv[j] for j in cert.curve.tau))
    if not x.has_cone(tau_x):
        raise OrbitInExc(f"orbit cone {tau_x} is not a cone upstream")
    curve = OnePsCurve(tau_x, cert.curve.w)
    e = res.exc_cone[0]
    k_y = canonical_divisor(y)
    # K_X = psi*K_Y + r·E: read r off the support function at the collapsed ray.
    r = Fraction(-1) - support_function(y, k_y)(x.rays[e])
    assert r > 0, "the discrepancy of a terminal divisorial step is positive"
    e_deg = one_ps_degree(x, ray_divisor(x, e), curve)
    assert e_deg >= 0, "the curve avoids E, so E·C >= 0"
    minus_k_x = one_ps_degree(x, -1 * canonical_divisor(x), curve)
    assert minus_k_x == cert.minus_k - r * e_deg, (
        "discrepancy identity for the strict transform"
    )
    return make_certificate(
        x,
        curve,
        bound=minus_k_x,
        trace=(
            f"strict transform across the divisorial contraction of ray {e} "
            f"(discrepancy {r}, E·C = {e_deg})",
        )
        + cert.trace,
        assumptions=cert.assumptions,
    )


def _transport_flip(step, cert):
    res: FlipResult = step.result
    x, x2 = res.source, res.target
    assert cert.fan == x2, "certificate must live on the step's target"
    tau = cert.curve.tau
    if not x.has_cone(tau):
        raise OrbitInExc(f"orbit cone {tau} does not survive the flip upstream")
    curve = OnePsCurve(tau, cert.curve.w)
    # Degree preservation for the step's shifted divisor (a pullback from
    # the small contraction's base on both sides).
    d_src = one_ps_degree(x, step.shifted, curve)
    d_tgt = one_ps_degree(x2, step.shifted, cert.curve)
    assert d_src == d_tgt, "shifted-divisor degree is preserved across the flip"
    # Sign of the exceptional correction on the common subdivision.
    star = res.star
    wstar_idx = star.rays.index(res.new_ray)
    c_star = OnePsCurve(tau, cert.curve.w)
    dstar_deg = res.dstar_multiple * one_ps_degree(
        star, ray_divisor(star, wstar_idx), c_star
    )
    assert dstar_deg >= 0, "the exceptional correction has non-negative degree"
    minus_k_x = one_ps_degree(x, -1 * canonical_divisor(x), curve)
    assert minus_k_x <= cert.minus_k, "-K·C cannot increase across the flip"
    return make_certificate(
        x,
        curve,
        bound=minus_k_x,
        trace=(
            f"strict transform across the flip of {res.exc_cone} "
            f"(correction degree {dstar_deg})",
        )
        + cert.trace,
        assumptions=cert.assumptions,
    )


def pn_blowup_line(res: ContractionResult, p_orbit: Sequence = ()) -> CurveCertificate:
    """Strict transform of a line through P and the contracted center.

    For a divisorial contraction whose target is projective n-space with
    center Z = image of the exceptional divisor: the line class h meets Z,
    its strict transform has E·C = 1 and -K_X·C = n+1-r <= n, with r the
    discrepancy = codim(Z) - 1.  The toric representative computes the
    class; the actual line is chosen through P (general in its orbit) and a
    general point of Z.
    """
    if res.kind != DIVISORIAL:
        raise NotPnDownstream("a divisorial step with downstream P^n is required")
    x, y = res.source, res.target
    if not is_projective_space(y):
        raise NotPnDownstream("the downstream fan is not projective space")
    n = y.rank
    e = res.exc_cone[0]
    v_e = x.rays[e]
    # Minimal cone of Y containing v_e: rays of the containing maximal cone
    # with positive barycentric coefficient.
    mc = y.cone_containing(v_e)
    coeffs = y.cone_coefficients(mc, v_e)
    sigma_z = tuple(i for i, t in zip(mc, coeffs) if t > 0)
    r = len(sigma_z) - 1
    assert r >= 1, "the center has codimension at least 2"
    from toricapprox.lattice import primitive_part

    w = primitive_part(
        tuple(sum(y.rays[i][k] for i in sigma_z) for k in range(n))
    )
    line = OnePsCurve((), w)
    assert one_ps_degree(y, -1 * canonical_divisor(y), line) == n + 1, (
        "the downstream curve is a line"
    )
    curve = OnePsCurve((), w)
    e_deg = one_ps_degree(x, ray_divisor(x, e), curve)
    assert e_deg == 1, "the line meets the center transversally once"
    cert = make_certificate(
        x,
        curve,
        bound=Fraction(n + 1 - r),
        trace=(
            f"strict transform of a line through the blown-up center "
            f"(codimension {r + 1}, discrepancy {r})",
        ),
        assumptions=(
            "the line is chosen through P (general in its orbit) and a "
            "general point of the center; the toric representative computes "
            "its class",
        ),
    )
    assert cert.minus_k == n + 1 - r, "the Fano degree drops by the discrepancy"
    return cert


@dataclass(frozen=True)
class ApproxResult:
    """Driver output: the curve, its alpha value, and the assumption ledger.

    alpha = degree/(r·m) with m = 1 and r = 1 for driver-produced curves
    (unibranch through a rational point); comparison: the conditional
    statement alpha_{P,C}(D) <= alpha of every Zariski-dense sequence,
    valid under the canonical-boundedness assumption; the certificate is
    not claimed to be a curve of best approximation.
    """

    certificate: CurveCertificate
    degree: Fraction
    alpha: object
    branches: BranchData
    chain: Optional[MmpChain]
    ledger: tuple
    assumptions: tuple
    comparison: str
    best_approximation: str = (
        "not necessarily a curve of best approximation"
    )


_COMPARISON = (
    "alpha_{P,C}(D) <= alpha_{P,{x_i}}(D) for every Zariski-dense sequence "
    "{x_i}, assuming -K is canonically bounded at P"
)


def theorem16_driver(
    fan: Fan,
    d: TorusDivisor,
    p_orbit: Sequence = (),
    context: Optional[ArithmeticContext] = None,
    assume_canonically_bounded: bool = False,
) -> ApproxResult:
    """A unibranch rational curve through P with alpha at most that of any
    Zariski-dense sequence, assembled from the MMP chain.

    Runs the a-value chain on (fan, D, P); at the terminal step builds the
    fiber curve (or the line when the terminal model is projective space);
    transports the certificate back upstream, switching to the
    line-through-the-center construction whenever a divisorial step
    contracts onto projective space; attaches an a-value comparison record
    per step.  The comparison with dense sequences is conditional on
    canonical boundedness, which is recorded, never verified.
    """
    from toricapprox.fan import is_terminal
    from toricapprox.fwps import recognize_fwps, fwps_curve
    from toricapprox.divisor import is_nef

    p_orbit = fan.require_cone(p_orbit)
    assert is_nef(fan, d), "the driver needs a nef divisor"
    assumptions = []
    if not assume_canonically_bounded:
        assumptions.append(
            "canonical boundedness NOT assumed: the dense-sequence "
            "comparison is not asserted"
        )
    terminal_ok, offending = is_terminal(fan)
    if not terminal_ok:
        assumptions.append(
            f"input is not terminal (witness cones {offending}): a "
            "terminal resolution that is an isomorphism at P is required "
            "for the theorem; proceeding on the given model"
        )
    branches = BranchData.of([(1, 1)])
    if is_projective_space(fan):
        cert = wps_curve_all_leq1(fan, p_orbit)
        degree = one_ps_degree(fan, d, cert.curve)
        return ApproxResult(
            certificate=cert,
            degree=degree,
            alpha=alpha_rational_curve(degree, branches),
            branches=branches,
            chain=None,
            ledger=(),
            assumptions=tuple(
                assumptions
                + ["whole variety is projective space: line through P"]
            ),
            comparison=_COMPARISON,
        )
    chain = run_mmp_chain(
        fan, d, p_orbit, canonically_bounded=assume_canonically_bounded
    )
    term = chain.terminal_step
    if is_projective_space(term.fan):
        cert = wps_curve_all_leq1(term.fan, term.p_orbit)
    else:
        try:
            cert = base_case_curve(term.fan, term.ray, term.shifted, term.p_orbit)
        except IsProjectiveSpace:
            cert = wps_curve_all_leq1(term.fan, term.p_orbit)
    ledger = [
        lemma42_ledger(cert, term.divisor, term.a, term.fan.rank)
    ]
    assert ledger[0].bound_holds or is_projective_space(term.fan), (
        "the a-value comparison bound must hold off projective space"
    )
    for step in reversed(chain.steps[:-1]):
        if step.kind == DIVISORIAL and is_projective_space(step.result.target):
            cert = pn_blowup_line(step.result, step.p_orbit)
        else:
            cert = transport_curve(step, cert)
        rec = lemma42_ledger(cert, step.divisor, step.a, step.fan.rank)
        assert rec.bound_holds, "transported curves satisfy -K·C <= dim"
        ledger.append(rec)
    assert cert.fan == fan
    degree = one_ps_degree(fan, d, cert.curve)
    alpha = alpha_rational_curve(degree, branches)
    # Independent recomputation: alpha = (C·D)/m with m = 1.
    assert alpha == degree
    if not is_projective_space(fan):
        assert cert.minus_k <= fan.rank or not terminal_ok, (
            "terminal non-projective-space output satisfies -K·C <= dim"
        )
    return ApproxResult(
        certificate=cert,
        degree=degree,
        alpha=alpha,
        branches=branches,
        chain=chain,
        ledger=tuple(reversed(ledger)),
        assumptions=tuple(assumptions) + cert.assumptions,
        comparison=_COMPARISON,
    )
