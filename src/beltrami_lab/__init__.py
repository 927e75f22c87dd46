"""Numerical laboratory for linear and quasilinear Beltrami equations
with two complex characteristics.

Solves f_zbar = mu(z, f) f_z + nu(z, f) conj(f_z) by a truncation
ladder over the maximal dilatation plus fixed-point iteration, and
audits the existence hypotheses (majorant bounds, finite mean
oscillation, divergence integrals) on concrete coefficient formulas.
"""

from .coefficients import (
    CoefficientSpec,
    builtin_catalog,
    eval_coefficients,
    load_spec_file,
    save_spec_file,
    rung_bound,
    truncate,
)
from .conditions import (
    MajorantSpec,
    audit_theorem1,
    circle_mean,
    default_psi,
    disk_integral,
    divergence_integral,
    fmo_estimate,
    parse_majorant,
    psi_admissibility,
)
from .dilatation import (
    effective_single_coefficient,
    inner_dilatation_p,
    jacobian,
    map_dilatation,
    maximal_dilatation,
    tangential_dilatation,
)
from .grid import DerivativePair, GridField, coordinates
from .linear_solver import (
    IterationTrace,
    LinearProblem,
    Solution,
    load_solution,
    picard_step,
    save_solution,
    solve_linear,
)
from .quasilinear import (
    LadderReport,
    SolverConfig,
    compact_sup_distance,
    frozen_coefficient_fields,
    solve_quasilinear,
)
from .transforms import beurling_transform, cauchy_transform, derivatives
from .verify import (
    VerificationReport,
    continuity_modulus_fit,
    injectivity_check,
    inverse_dilatation_audit,
    jacobian_stats,
    residual,
    verification_report,
)

__version__ = "0.1.0"
