"""Numerical laboratory for linear and quasilinear Beltrami equations
with two complex characteristics.

Solves f_zbar = mu(z, f) f_z + nu(z, f) conj(f_z) by a truncation
ladder over the maximal dilatation plus fixed-point iteration, and
audits the existence hypotheses (majorant bounds, finite mean
oscillation, divergence integrals) on concrete coefficient formulas.
"""

__version__ = "0.1.0"
