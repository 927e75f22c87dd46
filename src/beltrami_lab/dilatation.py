"""Dilatation functionals, pointwise or vectorised over arrays.

Degenerate points follow extended-real conventions rather than raising:
K = +inf where |mu| + |nu| >= 1, the map dilatation is 1 where
|f_z| + |f_zbar| = 0 and +inf where the Jacobian vanishes but the
derivative does not. All functions accept scalars or ndarrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateBase

# |mu| + |nu| within this margin of 1 counts as degenerate: a sum that is 1
# in exact arithmetic can round to 1 - 1.1e-16 (K ~ 1.8e16)
ELLIPTIC_MARGIN = 1e-12


def _maybe_scalar(x, scalar):
    return float(x) if scalar else x


def maximal_dilatation(mu, nu):
    """(1 + |mu| + |nu|) / (1 - |mu| - |nu|), +inf when the sum reaches 1."""
    s = np.abs(np.asarray(mu)) + np.abs(np.asarray(nu))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s < 1.0, (1.0 + s) / np.where(s < 1.0, 1.0 - s, 1.0), np.inf)
    return _maybe_scalar(out, np.isscalar(mu) and np.isscalar(nu))


def elliptic_mask(mu, nu):
    """True where |mu| + |nu| < 1 - ELLIPTIC_MARGIN; False at degenerate and non-finite samples."""
    return np.abs(mu) + np.abs(nu) < 1.0 - ELLIPTIC_MARGIN


def tangential_dilatation(mu, nu, z, z0, theta):
    """Directional distortion relative to z0 with phase theta.

    |1 - (conj(z - z0)/(z - z0)) (mu + nu e^{i theta})|^2 / (1 - |mu + nu e^{i theta}|^2)
    """
    z = np.asarray(z, dtype=complex)
    z0 = np.asarray(z0, dtype=complex)
    if np.any(z == z0):
        raise DegenerateBase("tangential dilatation undefined at z = z0")
    u = np.asarray(mu, dtype=complex) + np.asarray(nu, dtype=complex) * np.exp(
        1j * np.asarray(theta)
    )
    dz = z - z0
    # conj(dz)/dz overflows when |dz| is subnormal; an exact power-of-two
    # rescale to |component| in [0.5, 1) leaves the quotient's bits unchanged
    _, e = np.frexp(np.maximum(np.abs(dz.real), np.abs(dz.imag)))
    dz = np.ldexp(dz.real, -e) + 1j * np.ldexp(dz.imag, -e)
    num = np.abs(1.0 - (np.conj(dz) / dz) * u) ** 2
    den = 1.0 - np.abs(u) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.inf)
    scalars = all(np.isscalar(v) for v in (mu, nu, z, z0, theta))
    return _maybe_scalar(out, scalars)


def jacobian(fz, fzbar):
    """J = |f_z|^2 - |f_zbar|^2."""
    out = np.abs(np.asarray(fz)) ** 2 - np.abs(np.asarray(fzbar)) ** 2
    return _maybe_scalar(out, np.isscalar(fz) and np.isscalar(fzbar))


def map_dilatation(fz, fzbar):
    """(|f_z| + |f_zbar|) / (|f_z| - |f_zbar|); 1 at rest points, +inf where J = 0."""
    return inner_dilatation_p(fz, fzbar, 2.0)


def inner_dilatation_p(fz, fzbar, p):
    """Order-p inner dilatation (|f_z|^2 - |f_zbar|^2) / (|f_z| - |f_zbar|)^p.

    Computed as (s/d) * d^(2-p) so that p = 2 reproduces map_dilatation
    bit for bit; degenerate conventions as in map_dilatation.
    """
    if p < 1:
        raise ValueError(f"inner dilatation order must be >= 1, got {p}")
    s = np.abs(np.asarray(fz)) + np.abs(np.asarray(fzbar))
    d = np.abs(np.asarray(fz)) - np.abs(np.asarray(fzbar))
    with np.errstate(divide="ignore", invalid="ignore"):
        base = np.where(d > 0.0, s / np.where(d > 0.0, d, 1.0), np.inf)
        out = np.where(s == 0.0, 1.0, base * np.where(d > 0.0, d, 1.0) ** (2.0 - p))
    return _maybe_scalar(out, np.isscalar(fz) and np.isscalar(fzbar))
