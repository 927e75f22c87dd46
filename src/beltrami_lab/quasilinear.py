"""Truncation ladder plus outer Picard iteration for the quasilinear equation.

For each rung n of the ladder the w-dependence is frozen at the current
iterate, (mu, nu)(z, f(z)) is sampled on the support samples of the
grid and truncated at n (`coefficients.truncate`: by K, or by a majorant
Q when one is given, hence |mu_n| + |nu_n| <= rung_bound(n) =
(n-1)/(n+1)), and the linear solver runs on a problem built from those
samples, with no coefficient grid; the outer loop repeats until the sup-norm update on the
largest tracked compact stalls below tolerance. Rungs warm-start from
the previous limit, and the ladder stops once consecutive rung
solutions are Cauchy on every tracked compact (the computable surrogate
for locally uniform convergence of the truncated solutions). A rung
that follows a rung stopped at "tol" and samples exactly that rung's
last solved coefficients, as a w-independent coefficient does once the
rungs exceed its K, keeps the solution and makes no solve; the test
compares the sample vectors.

The inner solves are inexact (the forcing-term rule of Dembo, Eisenstat
and Steihaug, SIAM J. Numer. Anal. 1982; eta = 0.1 as in Eisenstat and
Walker, SIAM J. Sci. Comput. 1996). A rung's first solve starts from
omega = 0; it stops at the cap 1e-3 when mu or nu reads w, and at
inner_tol otherwise, because a w-independent coefficient's first solve
is also its last. Each later solve starts from the previous solve's raw
omega and stops at max(inner_tol, min(1e-3, 0.1 x the last outer
update)). Whatever the rung's stop, a last solve looser than inner_tol
is continued from where it ended to inner_tol, and the rung ends on
that solution, so its d, its residual and the next rung's start
describe one map. A solve's start is taken from the last solution
before that solution is dropped, so its grids are gone before the solve
makes its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import CoefficientSpec, _support_samples, rung_bound, truncate
from .dilatation import elliptic_mask
from .errors import EmptyCompact, NotContractive
from .grid import GridField, coordinates
from .linear_solver import LinearProblem, raw_omega, solve_linear
from .verify import residual

_STALL_STREAK = 4
_MIN_DAMPING = 0.125
_FORCING_CAP = 1e-3  # loosest inner tolerance of a solve before the continuation
_FORCING_RATIO = 0.1  # warm inner tolerance per unit of the last outer update


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
    q_majorant: object = None  # truncate by this majorant Q(z) when set, else by K

    def __post_init__(self):
        if not self.ladder or list(self.ladder) != sorted(set(self.ladder)):
            raise ValueError("ladder must be non-empty and strictly increasing")
        if self.ladder[0] < 1:
            raise ValueError(f"ladder rungs must be >= 1, got {self.ladder[0]}")
        for name in ("inner_tol", "outer_tol", "ladder_tol", "residual_tol",
                     "max_inner", "max_outer"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        margins = list(self.compact_margins)
        if not margins or margins != sorted(margins, reverse=True) or margins[-1] <= 0:
            raise ValueError("compact_margins must be non-empty, decreasing and positive")
        _check_margin(margins[0], self.box)


@dataclass
class LadderReport:
    """Per-rung summaries, untruncated residuals and sup-distances between rung limits."""

    margins: tuple
    rungs: list = field(default_factory=list)
    ladder_converged: bool = False
    final_rung: int = 0
    quasi_residual: float = float("nan")
    degenerate_samples: int = 0

    def add_rung(self, rung, outer_steps, picard_steps, distances, stop, quasi_residual):
        self.rungs.append(
            {
                "rung": rung,
                "outer_steps": outer_steps,
                "picard_steps": sum(picard_steps),
                "picard_steps_max": max(picard_steps, default=0),
                "d": list(distances),
                "stop": stop,
                "quasi_residual": quasi_residual,
            }
        )


def _check_margin(margin: float, L: float):
    if margin >= L:
        raise EmptyCompact(f"compact_margins: margin {margin} >= box half-side {L}")


def compact_sup_distance(f: GridField, g: GridField, margin: float) -> float:
    """max |f - g| over samples at distance >= margin from the box boundary.

    Those samples form a square block of the grid: the index range, on
    either axis, where |x| <= L - margin. No grid-sized mask is built.
    """
    return compact_sup_distances(f, g, (margin,))[0]


def compact_sup_distances(f: GridField, g: GridField, margins) -> list:
    """compact_sup_distance for each margin. The blocks are nested, so |f - g|
    is formed once, on the largest block, and each block's max is taken
    from it: the same bits, since a max is exact."""
    if not f.same_geometry(g):
        raise ValueError("fields must share box and resolution")
    x = coordinates(f.L, f.n)[0].real
    blocks = []
    for margin in margins:
        _check_margin(margin, f.L)
        inside = np.flatnonzero(np.abs(x) <= f.L - margin)
        blocks.append(slice(inside[0], inside[-1] + 1))
    outer = min(blocks, key=lambda block: block.start)
    diff = np.abs(f.data[outer, outer] - g.data[outer, outer])
    inner = [slice(block.start - outer.start, block.stop - outer.start) for block in blocks]
    return [float(diff[block, block].max()) for block in inner]


def frozen_coefficient_fields(spec: CoefficientSpec, f: GridField, rung: int, q=None):
    """The coefficients at (z, f(z)) on their support samples, truncated at the rung.

    Returns (index, mu, nu): the flat row-major indices of the support
    samples of f's grid, increasing, and mu and nu there, which satisfy
    |mu| + |nu| <= rung_bound(rung); both coefficients vanish at every
    other sample. Truncation is by the majorant q when given, else by K.
    """
    support, mu, nu = _support_samples(spec, f.L, f.data)
    truncate(mu, nu, rung, q, support.z)
    return support.index, mu, nu


def _check_uniform_ellipticity(spec: CoefficientSpec, L: float, n: int):
    """Reject coefficients that are degenerate on a substantial region.

    The ladder tolerates a measure-zero degenerate set (isolated samples
    get truncated away), but |mu| + |nu| >= 1 on a positive fraction of
    the support means no rung is elliptic there and the fixed point is
    not a contraction.
    """
    _, mu, nu = _support_samples(spec, L, coordinates(L, n))  # sampled at w = z
    frac = float((~elliptic_mask(mu, nu)).mean())
    if frac > 0.05:
        raise NotContractive(
            f"{spec.label or 'spec'}: |mu|+|nu| >= 1 on {frac:.1%} of the support"
        )


def _reads_w(spec: CoefficientSpec) -> bool:
    """Whether mu or nu reads w, so that the frozen coefficients move with the iterate."""
    return "w" in spec.variables


def solve_quasilinear(spec: CoefficientSpec, cfg: SolverConfig):
    """Run the full ladder; returns (final Solution, LadderReport).

    Each rung ends its outer loop at exactly one stop, recorded in the
    report: "tol" (the sup update fell below outer_tol, or the frozen
    coefficients repeated, so the next solve would too), "stalled" (no
    progress even at the smallest damping) or "max_outer". The repeat
    check carries across a rung boundary only after a "tol" stop; a rung
    that repeats at once reports no outer or Picard steps. The ladder
    converged when consecutive rungs are Cauchy, every rung stopped at
    "tol" and the untruncated residual is within residual_tol.
    """
    L, n = cfg.box, cfg.grid_n
    _check_uniform_ellipticity(spec, L, n)
    report = LadderReport(margins=tuple(cfg.compact_margins))
    smallest_margin = min(cfg.compact_margins)  # the largest compact
    f_current = GridField(L, coordinates(L, n).copy())
    solution = None
    prev_rung_f = None
    cauchy = False
    prev_mu = prev_nu = None  # the last solved coefficients
    # a w-independent coefficient's first solve is its last: no looser than inner_tol
    first_tol = max(cfg.inner_tol, _FORCING_CAP) if _reads_w(spec) else cfg.inner_tol
    for rung in cfg.ladder:
        k_bound = rung_bound(rung)
        lam = 1.0
        stall_streak = 0
        best_update = np.inf
        outer_steps = 0
        picard_steps = []
        solve_tol = cfg.inner_tol  # a rung that repeats at once has nothing to continue
        for _ in range(cfg.max_outer):
            # the samples' indices are the grid's support: one array for every step
            index, mu, nu = frozen_coefficient_fields(spec, f_current, rung, q=cfg.q_majorant)
            if prev_mu is not None and np.array_equal(mu, prev_mu) and np.array_equal(nu, prev_nu):
                stop = "tol"  # frozen coefficients stabilised; the solve would repeat
                break
            prev_mu, prev_nu = mu, nu
            outer_steps += 1
            prob = LinearProblem(L, n, index, mu, nu, k_bound)
            # the first solve of a rung is cold at first_tol; later ones start
            # from the last raw omega and need only beat the last outer update
            # (the forcing term of an inexact fixed-point iteration)
            warm = outer_steps > 1
            solve_tol = (max(cfg.inner_tol, min(_FORCING_CAP, _FORCING_RATIO * update))
                         if warm else first_tol)
            start = raw_omega(solution) if warm else None
            solution = None  # the last solution's grids go before the solve makes its own
            solution = solve_linear(prob, cfg, omega0=start, tol=solve_tol)
            del start
            picard_steps.append(solution.trace.steps)
            update = compact_sup_distance(solution.f, f_current, smallest_margin)
            # truncation-boundary cells can flip between steps and lock the
            # iteration into a cycle; damp when no real progress is made
            if update > 0.9 * best_update:
                stall_streak += 1
                if stall_streak >= _STALL_STREAK:
                    if lam <= _MIN_DAMPING:
                        stop = "stalled"  # cycle at minimum damping
                        break
                    lam *= 0.5
                    stall_streak = 0
                    best_update = np.inf
            else:
                stall_streak = 0
            best_update = min(best_update, update)
            if lam == 1.0:
                f_current = solution.f
            else:
                f_current = GridField(L, (1 - lam) * f_current.data + lam * solution.f.data)
            if update < cfg.outer_tol:
                stop = "tol"
                break
        else:
            stop = "max_outer"
        if solve_tol > cfg.inner_tol:
            # whatever the stop, the rung's solution meets inner_tol: continue
            # the last solve from where it ended
            start, solution = raw_omega(solution), None
            solution = solve_linear(prob, cfg, omega0=start)
            del start
            picard_steps.append(solution.trace.steps)
        f_current = solution.f  # every rung ends on the map it reports
        distances = (
            compact_sup_distances(f_current, prev_rung_f, cfg.compact_margins)
            if prev_rung_f is not None
            else [float("nan")] * len(cfg.compact_margins)
        )
        if outer_steps:  # a repeated rung ends on the previous rung's map
            _, norms = residual(solution, spec)
        report.add_rung(rung, outer_steps, picard_steps, distances, stop, norms["l2_rel"])
        if stop != "tol":
            prev_mu = prev_nu = None  # only a settled rung's coefficients carry over
        report.final_rung = rung
        prev_rung_f = f_current
        if not np.isnan(distances[0]) and max(distances) < cfg.ladder_tol:
            cauchy = True
            break
    report.quasi_residual = norms["l2_rel"]
    report.degenerate_samples = norms["degenerate_samples"]
    report.ladder_converged = (
        cauchy
        and report.quasi_residual <= cfg.residual_tol
        and all(row["stop"] == "tol" for row in report.rungs)
    )
    return solution, report
