"""Exact-arithmetic toolkit for toric varieties: fans, divisors, the toric
minimal model program, curve constructions on (fake) weighted projective
spaces, and approximation constants of rational curves.

All computations are over arbitrary-precision integers and rationals; no
floating point is used anywhere in the core.
"""

__version__ = "0.1.0"

from toricapprox.fan import (  # noqa: F401
    Fan,
    build_fan,
    is_terminal,
    projective_space_fan,
    recognize_fwps,
    star_fan,
    wps_fan,
)
from toricapprox.divisor import (  # noqa: F401
    OnePsCurve,
    TorusDivisor,
    canonical_divisor,
    intersect,
    is_nef,
    one_ps_degree,
    one_ps_intersections,
    ray_divisor,
    support_function,
    support_value,
    wall_curves,
)
from toricapprox.mmp import (  # noqa: F401
    MmpChain,
    contract,
    flip,
    mori_extremal_rays,
    run_mmp_chain,
    step_a,
)
from toricapprox.fwps import (  # noqa: F401
    CurveCertificate,
    base_case_curve,
    fwps_curve,
    terminal_wps_inequality,
    wps_curve_all_leq1,
)
from toricapprox.approx import (  # noqa: F401
    INFINITY,
    ApproxResult,
    ArithmeticContext,
    BranchData,
    alpha_rational_curve,
    theorem16_driver,
)
