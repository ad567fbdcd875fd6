"""Euler characteristics of Selmer groups over division-field towers of
cyclotomic base fields: exact local reduction data, cyclotomic splitting,
torsion brackets, and the chi / rho / tau invariants, with a CLI front end.
"""

from .curves import (
    TorsionEstimate,
    WeierstrassModel,
    count_points,
    division_polynomial,
    extension_count,
    invariants,
    rational_p_torsion_order,
    torsion_bound_over_F,
)
from .cyclotomic import CyclotomicSplitting, field_degree, splitting
from .euler import (
    AbelianVarietyInput,
    EulerCharReport,
    ExternalArithmetic,
    ReductionFact,
    analyze,
    check_hypotheses,
    chi_euler,
    compute_M,
    corank_report,
    rho_p,
    tau_p,
)
from .polynomials import Polynomial, rational_roots
from .tate import KodairaType, LocalField, LocalReductionData, pot_supersingular, tate_algorithm
from .valuations import vp

__version__ = "0.1.0"
