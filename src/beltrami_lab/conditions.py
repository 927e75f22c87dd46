"""Audits of the existence hypotheses: majorant bounds, FMO, divergence.

Everything here is finite-sample evidence for inherently asymptotic
conditions, so every verdict ships with the numeric ladder that backs
it and INCONCLUSIVE is an honest outcome. Divergence of int dr/(r q(r))
is judged from the increments of the partial integrals I(eps) along a
decreasing eps ladder: geometrically decaying increments mean a finite
limit (reported via geometric tail extrapolation), non-decaying ones
mean divergence. Mean oscillation over shrinking disks classifies FMO:
bounded oscillation ladders look like FMO, ladders growing by 2x or
more do not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSpec, coefficient_fields
from .dilatation import maximal_dilatation, tangential_dilatation
from .errors import BoundViolation, QuadratureFailure
from .expressions import (
    MAJORANT_VARIABLES,
    RADIAL_VARIABLES,
    evaluate,
    parse_expression,
    standard_env,
)

EPS_LADDER = tuple(2.0 ** -k for k in range(3, 13))

CONVERGENT = "CONVERGENT"
DIVERGENT = "DIVERGENT"
INCONCLUSIVE = "INCONCLUSIVE"
LIKELY_FMO = "LIKELY_FMO"
LIKELY_NOT_FMO = "LIKELY_NOT_FMO"

_RATIO_CONVERGENT = 0.75
_RATIO_DIVERGENT = 0.85


@dataclass(frozen=True)
class MajorantSpec:
    """Scalar majorant of z, nonnegative extended-real where defined."""

    tree: object

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        vals = evaluate(self.tree, standard_env(z))
        return np.broadcast_to(np.real(vals), z.shape).copy() if z.shape else float(np.real(vals))


def parse_majorant(text: str) -> MajorantSpec:
    return MajorantSpec(tree=parse_expression(text, MAJORANT_VARIABLES))


def parse_radial_weight(text: str):
    """Parse an expression in the radius variable t into a callable of t."""
    tree = parse_expression(text, RADIAL_VARIABLES)

    def weight(t):
        return float(np.real(evaluate(tree, {"t": complex(t)})))

    return weight


def circle_mean(q, z0: complex, r: float, m: int = 64) -> float:
    """Trapezoidal mean of q over the circle |z - z0| = r; exact for constants."""
    if r <= 0:
        raise ValueError("circle radius must be positive")
    if m < 16:
        raise ValueError("need at least 16 quadrature nodes")
    phi = 2.0 * np.pi * np.arange(m) / m
    vals = np.asarray(q(z0 + r * np.exp(1j * phi)), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise QuadratureFailure(f"majorant not finite on the circle r = {r:.6g}")
    return float(np.mean(vals))


def disk_integral(q, z0: complex, radius: float) -> float:
    """2-D integral of q over the disk B(z0, radius) via radial quadrature."""
    # imported on first use: scipy.integrate brings scipy.optimize, .sparse
    # and .linalg, which solve and verify would otherwise load for nothing
    from scipy.integrate import quad

    def integrand(r):
        return 2.0 * np.pi * r * circle_mean(q, z0, r)

    val, _ = quad(integrand, 0.0, radius, limit=200)
    return float(val)


def _partial_integrals(integrand, upper: float, eps_ladder) -> list:
    """int_eps^upper of integrand for each eps of a decreasing ladder, one ring per quad."""
    from scipy.integrate import quad

    partials = []
    acc = 0.0
    for eps in eps_ladder:
        piece, _ = quad(integrand, eps, upper, limit=200)
        acc += piece
        partials.append(acc)
        upper = eps
    return partials


def _growth_verdict(increments):
    """(verdict, ratios, median of the last four ratios) of partial-integral increments.

    All-zero increments leave no ratio and count as CONVERGENT.
    """
    ratios = [b / a for a, b in zip(increments, increments[1:]) if a > 0]
    med = float(np.median(ratios[-4:])) if ratios else 0.0
    if med <= _RATIO_CONVERGENT:
        verdict = CONVERGENT
    elif med >= _RATIO_DIVERGENT and increments[-1] > 0:
        verdict = DIVERGENT
    else:
        verdict = INCONCLUSIVE
    return verdict, ratios, med


@dataclass
class DivergenceReport:
    eps: list
    partials: list
    increments: list
    ratios: list
    verdict: str
    limit: float = None
    median_ratio: float = None


def divergence_integral(q, z0: complex, delta: float) -> DivergenceReport:
    """Classify int_0 dr/(r qbar(r)) by partial integrals I(eps) = int_eps^delta."""
    eps_ladder = [e for e in EPS_LADDER if e < delta]
    if len(eps_ladder) < 5:
        raise ValueError("eps ladder must reach at least 5 values below delta")

    psi = default_psi(q, z0)

    def integrand(r):
        val = psi(r)
        if not np.isfinite(val):
            raise QuadratureFailure(f"non-finite integrand at r = {r:.6g}")
        return val

    partials = _partial_integrals(integrand, delta, eps_ladder)
    increments = list(np.diff(partials))
    verdict, ratios, med = _growth_verdict(increments)
    limit = None
    if verdict == CONVERGENT:
        # geometric tail extrapolation from the last increment
        r = min(med, 0.97)
        limit = partials[-1] + increments[-1] * r / (1.0 - r)
    return DivergenceReport(
        eps=eps_ladder,
        partials=partials,
        increments=increments,
        ratios=ratios,
        verdict=verdict,
        limit=limit,
        median_ratio=med,
    )


def _disk_mean_and_oscillation(q, x0: complex, eps: float):
    """Disk mean and mean absolute oscillation over B(x0, eps): 48 Gauss radii x 96 angles."""
    xg, wg = np.polynomial.legendre.leggauss(48)
    rho = 0.5 * eps * (xg + 1.0)
    wr = 0.5 * eps * wg
    phi = 2.0 * np.pi * np.arange(96) / 96
    R, P = np.meshgrid(rho, phi)
    W = np.meshgrid(wr, phi)[0] * (2.0 * np.pi / 96) * R
    vals = np.asarray(q(x0 + R * np.exp(1j * P)), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise QuadratureFailure(f"majorant not finite on B({x0:.4g}, {eps:.4g})")
    area = np.pi * eps**2
    mean = float((vals * W).sum() / area)
    osc = float((np.abs(vals - mean) * W).sum() / area)
    return mean, osc


@dataclass
class FmoReport:
    eps: list
    means: list
    oscillations: list
    verdict: str


def fmo_estimate(q, x0: complex) -> FmoReport:
    """Estimate mean-oscillation boundedness of q at x0 over shrinking disks."""
    means, oscs = [], []
    for eps in EPS_LADDER:
        mean, osc = _disk_mean_and_oscillation(q, x0, eps)
        means.append(mean)
        oscs.append(osc)
    arr = np.asarray(oscs)
    if arr.max() < 1e-10:
        verdict = LIKELY_FMO
    else:
        growing = bool(np.all(np.diff(arr) >= -1e-12 * arr[:-1]))
        if growing and arr[-1] >= 2.0 * max(arr[0], 1e-300):
            verdict = LIKELY_NOT_FMO
        elif arr.max() <= 1.25 * max(arr[0], arr[1]):
            verdict = LIKELY_FMO
        else:
            verdict = INCONCLUSIVE
    return FmoReport(eps=list(EPS_LADDER), means=means, oscillations=oscs, verdict=verdict)


@dataclass
class PsiReport:
    eps: list
    I_values: list
    finite_positive: bool
    I_unbounded: str
    R_values: list
    o_I2: bool
    admissible: bool


def psi_admissibility(psi, q1, z0: complex, eps0: float, eps_prime: float) -> PsiReport:
    """Check 0 < I(eps, eps0) < inf, I -> inf, and the o(I^2) smallness.

    psi is an expression in t, or a callable of t (for instance the
    default 1/(t qbar(t)) built by default_psi). R(eps) is the annulus
    integral of q1 psi^2 divided by I^2 and must tend to zero.
    """
    if isinstance(psi, str):
        psi = parse_radial_weight(psi)
    if not 0 < eps_prime <= eps0:
        raise ValueError("need 0 < eps_prime <= eps0")
    ladder = [e for e in EPS_LADDER if e < eps_prime]
    if len(ladder) < 4:
        raise ValueError("eps ladder must reach at least 4 values below eps_prime")

    def psi_val(t):
        v = float(psi(t))
        if not np.isfinite(v) or v < 0:
            raise QuadratureFailure(f"psi not finite/nonnegative at t = {t:.6g}")
        return v

    def annulus_integrand(t):
        return 2.0 * np.pi * t * circle_mean(q1, z0, t) * psi_val(t) ** 2

    I_vals = _partial_integrals(psi_val, eps0, ladder)
    R_vals = [acc_R / acc_I**2 if acc_I > 0 else np.inf
              for acc_I, acc_R in zip(I_vals, _partial_integrals(annulus_integrand, eps0, ladder))]
    finite_positive = all(0.0 < acc_I < np.inf for acc_I in I_vals)
    unbounded, _, _ = _growth_verdict(np.diff(I_vals))
    o_i2 = bool(
        len(R_vals) >= 2
        and R_vals[-1] < 0.75 * max(R_vals[0], 1e-300)
        and R_vals[-1] == min(R_vals)
    )
    admissible = finite_positive and unbounded == DIVERGENT and o_i2
    return PsiReport(
        eps=ladder,
        I_values=I_vals,
        finite_positive=finite_positive,
        I_unbounded=unbounded,
        R_values=R_vals,
        o_I2=o_i2,
        admissible=admissible,
    )


def default_psi(q1, z0: complex):
    """The standard admissible choice psi(t) = 1/(t qbar_{z0}(t))."""

    def psi(t):
        qb = circle_mean(q1, z0, t)
        return 1.0 / (t * qb) if qb > 0 else np.inf

    return psi


# ---------------------------------------------------------------------------
# full audit

@dataclass
class ProbeResult:
    z0: complex
    fmo: FmoReport
    divergence: DivergenceReport
    hypothesis_ok: bool


@dataclass
class ConditionReport:
    """Outcome of the majorant-bound and FMO/divergence audits."""

    label: str
    bound_samples: int
    max_k_minus_q: float
    max_kt_minus_q1: float
    probes: list = field(default_factory=list)


def _w_samples(w_max: float):
    """The |w| log ladder {0, 1e-2 .. w_max} times 8 phases."""
    decades = max(int(np.ceil(np.log10(max(w_max, 1e-2) / 1e-2))) + 1, 1)
    mags = np.logspace(-2, np.log10(max(w_max, 1e-2)), decades)
    phases = np.exp(2j * np.pi * np.arange(8) / 8)
    return np.concatenate([[0.0 + 0.0j]] + [m * phases for m in mags])


def _bound_gap(values, bound, z, w, what: str, theta=None) -> float:
    """max(values - bound) over the samples z, -inf where the bound is infinite;
    a gap above 1e-9 raises BoundViolation with the worst sample as witness."""
    with np.errstate(invalid="ignore"):
        gap = np.where(np.isinf(bound), -np.inf, values - bound)
    worst = float(np.nanmax(gap))
    if worst > 1e-9:
        idx = int(np.nanargmax(gap))
        at = f"z = {z[idx]:.6g}, w = {w:.6g}" + ("" if theta is None else f", theta = {theta:.4g}")
        raise BoundViolation(
            f"{what} by {worst:.3g} at {at}",
            witness=(complex(z[idx]), complex(w), 0.0 if theta is None else float(theta)),
            value=float(values[idx]),
            bound=float(bound[idx]),
        )
    return worst


def audit_theorem1(spec: CoefficientSpec, Q, q1, probe_points,
                   w_max: float = 100.0) -> ConditionReport:
    """Check K <= Q and K^T <= Q1 by sampling, then run the FMO and
    divergence audits of Q1 at every probe point.

    Bounds are sampled at 24 random z (seed 0) and 64 phases; the
    divergence integral at z0 ends at half its distance to the support.

    Q and q1 are majorants, callables of a z array such as a
    MajorantSpec; q1 serves every probe. The per-probe hypothesis holds
    if either the FMO verdict is LIKELY_FMO or the divergence verdict is
    DIVERGENT.
    The w sample ladder tops out at w_max; bounds that only hold on a
    restricted range of |w| (the unit-disk example is one) need the
    matching w_max or the audit raises BoundViolation with a witness.
    """
    probe_points = [complex(p) for p in probe_points]
    rng = np.random.default_rng(0)
    radii = spec.support_radius * np.sqrt(rng.uniform(0.001, 0.97, 24))
    angles = rng.uniform(0.0, 2.0 * np.pi, 24)
    z_samples = radii * np.exp(1j * angles)
    thetas = 2.0 * np.pi * np.arange(64) / 64
    w_values = _w_samples(w_max)

    worst_k = worst_kt = -np.inf
    Qv = Q(z_samples)
    for w in w_values:
        mu, nu = coefficient_fields(spec, z_samples, np.full_like(z_samples, w))
        K = maximal_dilatation(mu, nu)
        worst_k = max(worst_k, _bound_gap(K, Qv, z_samples, w, "K(z, w) exceeds Q(z)"))
    for z0 in probe_points:
        samples = z_samples[np.abs(z_samples - z0) > 1e-9]
        Q1v = q1(samples)
        for w in w_values:
            mu, nu = coefficient_fields(spec, samples, np.full_like(samples, w))
            for theta in thetas:
                KT = tangential_dilatation(mu, nu, samples, z0, theta)
                worst_kt = max(worst_kt, _bound_gap(KT, Q1v, samples, w, "K^T exceeds Q1", theta))

    probes = []
    for z0 in probe_points:
        delta = 0.5 * max(spec.support_radius - abs(z0), 1e-6)
        fmo = fmo_estimate(q1, z0)
        div = divergence_integral(q1, z0, delta)
        ok = fmo.verdict == LIKELY_FMO or div.verdict == DIVERGENT
        probes.append(ProbeResult(z0=z0, fmo=fmo, divergence=div, hypothesis_ok=ok))

    report = ConditionReport(
        label=spec.label,
        bound_samples=len(z_samples) * len(w_values) * (len(thetas) * len(probe_points) + 1),
        max_k_minus_q=worst_k,
        max_kt_minus_q1=worst_kt,
        probes=probes,
    )
    return report
