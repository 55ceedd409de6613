"""Approximation constants of rational curves and the end-to-end driver.

The branch formula alpha = min d/(r·m), transport of curve certificates
back up a minimal-model-program chain, the blown-up-projective-space line
construction, the a-value comparison ledger, and the driver assembling a
low-degree unibranch curve through a torus-orbit point together with its
alpha value and assumption ledger.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from typing import Optional, Sequence

from toricapprox.fan import Fan, _ray_sources, is_projective_space
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
    base_case_curve,
    make_certificate,
    wps_curve_all_leq1,
)
from toricapprox.invariant import check
from toricapprox.lattice import primitive_part
from toricapprox.mmp import (
    DIVISORIAL,
    FLIP,
    ContractionResult,
    FlipResult,
    MmpStepRecord,
    OrbitInExc,
    run_mmp_chain,
)


class ApproxError(ValueError):
    pass


class NotPnDownstream(ApproxError):
    pass


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


class BranchData(namedtuple("BranchData", "branches")):
    """Preimage points on the normalization of a rational curve at P.

    branches: tuples (m, r): m >= 1 the branch multiplicity, r in {0,1,2}
    the local-field residue degree contribution (0 when the branch point's
    residue field does not embed in the completion).
    """

    __slots__ = ()

    def __new__(cls, branches):
        if not branches:
            raise ApproxError("at least one branch is required")
        for m, r in branches:
            if m < 1 or r not in (0, 1, 2):
                raise ApproxError(f"invalid branch (m={m}, r={r})")
        return super().__new__(cls, branches)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @staticmethod
    def of(pairs: Sequence) -> "BranchData":
        return BranchData(tuple((int(m), int(r)) for m, r in pairs))


class ArithmeticContext(namedtuple("ArithmeticContext", "k_is_q quadratics")):
    """Declared arithmetic of the ground field k and the chosen place.

    k_is_q: whether k is the rational field; quadratics: a tuple of
    (d, in_k, in_kv), mapping a squarefree integer d to flags (sqrt(d) in
    k, sqrt(d) in the completion k_v).  Membership in k implies membership
    in k_v.
    """

    __slots__ = ()

    def __new__(cls, k_is_q=True, quadratics=()):
        for d, in_k, in_kv in quadratics:
            if in_k and not in_kv:
                raise ApproxError(
                    f"sqrt({d}) in k requires sqrt({d}) in k_v"
                )
        return super().__new__(cls, k_is_q, quadratics)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    def lookup(self, d: int):
        for dd, in_k, in_kv in self.quadratics:
            if dd == d:
                return in_k, in_kv
        raise ApproxError(f"no declaration for the field Q(sqrt({d}))")


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


class Lemma42Record(namedtuple(
    "Lemma42Record",
    "a d_degree shifted_degree minus_k_degree dim bound_holds",
)):
    """One instance of the a-value comparison alpha(D) = alpha(D+aK) + a·(-K·C).

    The displayed chain bound needs (-K·C)/m <= dim; bound_holds records
    whether it does.  It can fail on projective space itself, where the
    driver argues directly instead, and on a non-terminal input, whose fake
    weighted projective space curve is only guaranteed -K·C <= dim + 1 (the
    driver records that input's non-terminal assumption)."""

    __slots__ = ()


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
    check(dd == shifted + a * cert.minus_k, "exact degree bookkeeping")
    return Lemma42Record(a, dd, shifted, cert.minus_k, dim, cert.minus_k <= dim)


def transport_curve(step: MmpStepRecord, cert: CurveCertificate) -> CurveCertificate:
    """Strict transform of a downstream certificate across one MMP step.

    Divisorial: the orbit cone pulls back along the ray correspondence and
    the weight is unchanged (same lattice); checks the discrepancy identity
    -K_X·C = -K_Y·C' - r·(E·C) with r > 0.  Flip: rays agree, the cone must
    survive; checks preservation of the step's shifted-divisor degree and
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
    check(cert.fan == y, "certificate must live on the step's target")
    inv = _ray_sources(res.ray_map)
    tau_x = tuple(sorted(inv[j] for j in cert.curve.tau))
    if not x.has_cone(tau_x):
        raise OrbitInExc(f"orbit cone {tau_x} is not a cone upstream")
    curve = OnePsCurve(tau_x, cert.curve.w)
    e = res.exc_cone[0]
    k_y = canonical_divisor(y)
    # K_X = psi*K_Y + r·E: read r off the support function at the collapsed ray.
    r = Fraction(-1) - support_function(y, k_y)(x.rays[e])
    check(r > 0, "the discrepancy of a terminal divisorial step is positive")
    e_deg = one_ps_degree(x, ray_divisor(x, e), curve)
    check(e_deg >= 0, "the curve avoids E, so E·C >= 0")
    minus_k_x = one_ps_degree(x, -1 * canonical_divisor(x), curve)
    check(
        minus_k_x == cert.minus_k - r * e_deg,
        "discrepancy identity for the strict transform",
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
    check(cert.fan == x2, "certificate must live on the step's target")
    tau = cert.curve.tau
    if not x.has_cone(tau):
        raise OrbitInExc(f"orbit cone {tau} does not survive the flip upstream")
    curve = OnePsCurve(tau, cert.curve.w)
    # Degree preservation for the step's shifted divisor (a pullback from
    # the small contraction's base on both sides).
    d_src = one_ps_degree(x, step.shifted, curve)
    d_tgt = one_ps_degree(x2, step.shifted, cert.curve)
    check(d_src == d_tgt, "shifted-divisor degree is preserved across the flip")
    # Sign of the exceptional correction on the common subdivision.
    star = res.star
    wstar_idx = star.rays.index(res.new_ray)
    c_star = OnePsCurve(tau, cert.curve.w)
    dstar_deg = res.dstar_multiple * one_ps_degree(
        star, ray_divisor(star, wstar_idx), c_star
    )
    check(dstar_deg >= 0, "the exceptional correction has non-negative degree")
    minus_k_x = one_ps_degree(x, -1 * canonical_divisor(x), curve)
    check(minus_k_x <= cert.minus_k, "-K·C cannot increase across the flip")
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
    its strict transform has E·C > 0 and -K_X·C = n+1 - disc·(E·C) <= n,
    with disc = -1 - phi_{K_Y}(v_E) the discrepancy of E (codim(Z) - 1 when
    v_E is the sum of the rays of Z's cone).  The toric representative
    computes the class; the actual line is chosen through P (general in its
    orbit) and a general point of Z.
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
    k, _, num = y.cone_containing(v_e)
    sigma_z = tuple(i for i, t in zip(y.max_cones[k], num) if t > 0)
    k_y = canonical_divisor(y)
    disc = Fraction(-1) - support_function(y, k_y)(v_e)
    w = primitive_part(
        tuple(sum(y.rays[i][r] for i in sigma_z) for r in range(n))
    )
    curve = OnePsCurve((), w)
    check(
        one_ps_degree(y, -1 * k_y, curve) == n + 1,
        "the downstream curve is a line",
    )
    e_deg = one_ps_degree(x, ray_divisor(x, e), curve)
    check(e_deg > 0, "the line meets the center")
    bound = n + 1 - disc * e_deg
    cert = make_certificate(
        x,
        curve,
        bound=bound,
        trace=(
            f"strict transform of a line through the blown-up center "
            f"(codimension {len(sigma_z)}, discrepancy {disc})",
        ),
        assumptions=(
            "the line is chosen through P (general in its orbit) and a "
            "general point of the center; the toric representative computes "
            "its class",
        ),
    )
    check(cert.minus_k == bound, "the Fano degree drops by disc·(E·C)")
    check(cert.minus_k <= n, "the strict transform has -K·C <= dim")
    return cert


class ApproxResult(namedtuple(
    "ApproxResult",
    "certificate degree alpha branches chain ledger assumptions "
    "comparison best_approximation",
    defaults=("not necessarily a curve of best approximation",),
)):
    """Driver output: the curve, its alpha value, and the assumption ledger.

    alpha = degree/(r·m) with m = 1 and r = 1 for driver-produced curves
    (unibranch through a rational point); chain: the MmpChain, or None;
    comparison: the conditional statement alpha_{P,C}(D) <= alpha of every
    Zariski-dense sequence, valid under the canonical-boundedness
    assumption; the certificate is not claimed to be a curve of best
    approximation.
    """

    __slots__ = ()


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
    from toricapprox.divisor import is_nef

    p_orbit = fan.require_cone(p_orbit)
    check(is_nef(fan, d), "the driver needs a nef divisor")
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
        cert = base_case_curve(term.fan, term.ray, term.shifted, term.p_orbit)
    ledger = [
        lemma42_ledger(cert, term.divisor, term.a, term.fan.rank)
    ]
    check(
        ledger[0].bound_holds
        or is_projective_space(term.fan)
        or not terminal_ok,
        "the a-value comparison bound must hold off projective space",
    )
    for step in reversed(chain.steps[:-1]):
        if step.kind == DIVISORIAL and is_projective_space(step.result.target):
            cert = pn_blowup_line(step.result, step.p_orbit)
        else:
            cert = transport_curve(step, cert)
        rec = lemma42_ledger(cert, step.divisor, step.a, step.fan.rank)
        check(rec.bound_holds, "transported curves satisfy -K·C <= dim")
        ledger.append(rec)
    check(cert.fan == fan, "the transported certificate lives on the input")
    degree = one_ps_degree(fan, d, cert.curve)
    alpha = alpha_rational_curve(degree, branches)
    # Independent recomputation: alpha = (C·D)/m with m = 1.
    check(alpha == degree, "alpha = (C·D)/m with m = 1")
    if not is_projective_space(fan):
        check(
            cert.minus_k <= fan.rank or not terminal_ok,
            "terminal non-projective-space output satisfies -K·C <= dim",
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
