"""Truncation ladder plus outer Picard iteration for the quasilinear equation.

For each rung n of the ladder the coefficients are truncated so that
their maximal dilatation stays below n (hence |mu_n| + |nu_n| <=
(n-1)/(n+1)), the w-dependence is frozen at the current iterate,
mu_n(z, f(z)) is sampled onto the grid, and the linear solver runs; the
outer loop repeats until the sup-norm update on the largest tracked
compact stalls below tolerance. Rungs warm-start from the previous
limit, and the ladder stops once consecutive rung solutions are Cauchy
on every tracked compact (the computable surrogate for locally uniform
convergence of the truncated solutions).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .coefficients import BY_K, BY_Q, CoefficientSpec, TruncationPredicate, coefficient_fields, truncate_spec
from .dilatation import elliptic_mask
from .errors import EmptyCompact, NotContractive, OuterDivergence
from .grid import GridField, coordinates
from .linear_solver import LinearProblem, solve_linear
from .verify import residual

_DIVERGENCE_STREAK = 5
_MIN_DAMPING = 0.125


@dataclass(frozen=True)
class SolverConfig:
    """Grid geometry, truncation ladder, tolerances and iteration caps."""

    grid_n: int = 256
    box: float = 2.0
    ladder: tuple = (2, 4, 8, 16, 32, 64)
    inner_tol: float = 1e-10
    outer_tol: float = 1e-5
    ladder_tol: float = 2e-2
    residual_tol: float = 1e-3
    max_inner: int = 500
    max_outer: int = 40
    compact_margins: tuple = (1.5, 1.0, 0.5)
    trunc_mode: str = BY_K
    q_majorant: object = None

    def __post_init__(self):
        if not self.ladder or list(self.ladder) != sorted(set(self.ladder)):
            raise ValueError("ladder must be non-empty and strictly increasing")
        for name in ("inner_tol", "outer_tol", "ladder_tol", "residual_tol",
                     "max_inner", "max_outer"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        margins = list(self.compact_margins)
        if not margins or margins != sorted(margins, reverse=True) or margins[-1] <= 0:
            raise ValueError("compact_margins must be non-empty, decreasing and positive")
        if self.trunc_mode == BY_Q and self.q_majorant is None:
            raise ValueError("BY_Q runs need a q_majorant")


@dataclass
class LadderReport:
    """Per-rung summaries and compact sup-distances between rung limits."""

    margins: tuple
    rungs: list = field(default_factory=list)
    ladder_converged: bool = False
    final_rung: int = 0
    quasi_residual: float = float("nan")
    degenerate_samples: int = 0

    def add_rung(self, rung, outer_steps, linear_residual, distances):
        self.rungs.append(
            {
                "rung": rung,
                "outer_steps": outer_steps,
                "residual": linear_residual,
                "d": list(distances),
            }
        )

    def to_json(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)


def compact_mask(L: float, n: int, margin: float) -> np.ndarray:
    """Samples at distance >= margin from the box boundary."""
    if margin >= L:
        raise EmptyCompact(f"margin {margin} >= box half-side {L}")
    Z = coordinates(L, n)
    return np.maximum(np.abs(Z.real), np.abs(Z.imag)) <= L - margin


def compact_sup_distance(f: GridField, g: GridField, margin: float) -> float:
    """max |f - g| over samples at distance >= margin from the box boundary."""
    if not f.same_geometry(g):
        raise ValueError("fields must share box and resolution")
    mask = compact_mask(f.L, f.n, margin)
    return float(np.abs(f.data - g.data)[mask].max())


def frozen_coefficient_fields(spec: CoefficientSpec, f: GridField, rung: int, mode=BY_K, q=None):
    """Sample the rung-truncated coefficients at (z, f(z)) onto grids.

    The returned grids satisfy |mu| + |nu| <= (rung-1)/(rung+1).
    """
    pred = TruncationPredicate(mode=mode, n=rung, q_evaluator=q)
    trunc = truncate_spec(spec, pred)
    Z = f.z
    mu, nu = coefficient_fields(trunc, Z, f.data, strict=False)
    return GridField(f.L, mu), GridField(f.L, nu)


def _check_uniform_ellipticity(spec: CoefficientSpec, L: float, n: int):
    """Reject coefficients that are degenerate on a substantial region.

    The ladder tolerates a measure-zero degenerate set (isolated samples
    get truncated away), but |mu| + |nu| >= 1 on a positive fraction of
    the support means no rung is elliptic there and the fixed point is
    not a contraction.
    """
    Z = coordinates(L, n)
    mu, nu = coefficient_fields(spec, Z, Z, strict=False)
    support = np.abs(Z) < spec.support_radius
    frac = float((~elliptic_mask(mu, nu))[support].mean())
    if frac > 0.05:
        raise NotContractive(
            f"{spec.label or 'spec'}: |mu|+|nu| >= 1 on {frac:.1%} of the support"
        )


def solve_quasilinear(spec: CoefficientSpec, cfg: SolverConfig):
    """Run the full ladder; returns (final Solution, LadderReport)."""
    L, n = cfg.box, cfg.grid_n
    _check_uniform_ellipticity(spec, L, n)
    report = LadderReport(margins=tuple(cfg.compact_margins))
    largest_margin = min(cfg.compact_margins)
    f_current = GridField(L, coordinates(L, n).copy())
    solution = None
    prev_rung_f = None
    for rung in cfg.ladder:
        lam = 1.0
        rise_streak = 0
        stall_streak = 0
        prev_update = np.inf
        best_update = np.inf
        outer_steps = 0
        prev_mu = prev_nu = None
        for _ in range(cfg.max_outer):
            mu, nu = frozen_coefficient_fields(
                spec, f_current, rung, mode=cfg.trunc_mode, q=cfg.q_majorant
            )
            if prev_mu is not None and np.array_equal(mu.data, prev_mu.data) and np.array_equal(
                nu.data, prev_nu.data
            ):
                break  # frozen coefficients stabilised; the solve would repeat
            prev_mu, prev_nu = mu, nu
            outer_steps += 1
            k_bound = (rung - 1.0) / (rung + 1.0)
            prob = LinearProblem(mu=mu, nu=nu, k_bound=k_bound)
            sol = solve_linear(
                prob, cfg, support_radius=spec.support_radius, label=spec.label
            )
            update = compact_sup_distance(sol.f, f_current, largest_margin)
            if update > prev_update:
                rise_streak += 1
                if rise_streak >= _DIVERGENCE_STREAK:
                    if lam <= _MIN_DAMPING:
                        raise OuterDivergence(
                            f"rung {rung}: sup updates rose {rise_streak} consecutive "
                            f"steps at damping {lam:.3g}"
                        )
                    lam *= 0.5
                    rise_streak = 0
            else:
                rise_streak = 0
            # truncation-boundary cells can flip between steps and lock the
            # iteration into a cycle; damp when no real progress is made
            if update > 0.9 * best_update:
                stall_streak += 1
                if stall_streak >= 4:
                    if lam <= _MIN_DAMPING:
                        solution = sol
                        break  # stalled cycle at minimum damping; keep the iterate
                    lam *= 0.5
                    stall_streak = 0
                    best_update = np.inf
            else:
                stall_streak = 0
            best_update = min(best_update, update)
            prev_update = update
            if lam == 1.0:
                f_current = sol.f
            else:
                f_current = GridField(L, (1 - lam) * f_current.data + lam * sol.f.data)
            solution = sol
            if update < cfg.outer_tol:
                break
        solution.rung = rung
        distances = (
            [compact_sup_distance(f_current, prev_rung_f, m) for m in cfg.compact_margins]
            if prev_rung_f is not None
            else [float("nan")] * len(cfg.compact_margins)
        )
        report.add_rung(rung, outer_steps, solution.residual_l2_rel, distances)
        report.final_rung = rung
        prev_rung_f = f_current
        if prev_rung_f is not None and not np.isnan(distances[0]):
            if max(distances) < cfg.ladder_tol:
                report.ladder_converged = True
                break
    _, norms = residual(solution, spec)
    report.quasi_residual = norms["l2_rel"]
    report.degenerate_samples = norms["degenerate_samples"]
    return solution, report
