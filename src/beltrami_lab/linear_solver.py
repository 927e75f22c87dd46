"""Fixed-point solver for the linear two-characteristic equation.

Solves f_zbar = mu f_z + nu conj(f_z) for measurable, compactly
supported, uniformly elliptic coefficient grids via the principal-
solution ansatz f = id + T omega with omega = f_zbar. Substituting the
ansatz turns the equation into

    omega = mu (1 + S omega) + nu conj(1 + S omega),

a contraction on L2 with factor k = sup(|mu| + |nu|) < 1 because S is an
isometry, so Picard iteration converges geometrically from any start:
omega = 0 by default, or a given iterate (the quasilinear outer loop
passes the previous solve's raw omega). The assembled solution carries
its derivative grids from the ansatz relations f_z = 1 + S omega,
f_zbar = omega (spectrally exact), and is normalised to f(0) = 0,
|f(1)| = 1: translation and positive real scaling preserve the equation
exactly, while the rotation that would pin arg f(1) = 0 would conjugate
nu, so only arg f(1) is reported.

A Solution holds only what the solve computed: the spec owns the
coefficient's label and support radius, and the ladder report the rung.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import grid
from .errors import DegenerateNormalization, MaxIterations, NotContractive
from .grid import GridField, l2_norm
from .transforms import _check_support, beurling_transform, cauchy_transform


@dataclass(frozen=True)
class LinearProblem:
    """Coefficient grids with a certified ellipticity bound |mu|+|nu| <= k_bound.

    `band` is the row range (j0, j1) outside which mu and nu are exactly zero.
    """

    mu: GridField
    nu: GridField
    k_bound: float
    band: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.mu.same_geometry(self.nu):
            raise ValueError("mu and nu must share box and resolution")
        s = np.abs(self.mu.data) + np.abs(self.nu.data)
        smax = float(s.max())
        if smax > self.k_bound + 1e-12:
            raise ValueError(
                f"coefficients exceed the declared bound: max |mu|+|nu| = {smax:.6g} "
                f"> k_bound = {self.k_bound:.6g}"
            )
        object.__setattr__(self, "band", _check_support(s, self.mu.L))


@dataclass
class IterationTrace:
    """Per-step L2 update norms of the Picard iteration."""

    update_norms: list = field(default_factory=list)

    @property
    def steps(self):
        return len(self.update_norms)

    @property
    def ratios(self):
        """Consecutive update ratios, from step 2 on (skipping zero updates)."""
        norms = self.update_norms
        return [b / a for a, b in zip(norms, norms[1:]) if a > 0]

    @property
    def contraction_estimate(self):
        """Conservative contraction factor: the largest observed update ratio."""
        return max(self.ratios, default=None)


@dataclass
class Normalization:
    translation: complex
    scale: float
    arg_f1: float


@dataclass
class Solution:
    """The normalised map and its derivative grids, with the solve's trace,
    normalization and linear residual."""

    f: GridField
    fz: GridField
    fzbar: GridField
    trace: IterationTrace
    normalization: Normalization
    residual_l2_rel: float


def picard_step(omega: GridField, prob: LinearProblem) -> GridField:
    """One application of omega -> mu (1 + S omega) + nu conj(1 + S omega).

    The products are formed on the coefficients' row band only; the
    other rows are exact zeros, as mu = nu = 0 there.
    """
    s = beurling_transform(omega)
    j0, j1 = prob.band
    out = np.zeros_like(s.data)
    dfz = 1.0 + s.data[j0:j1]
    out[j0:j1] = prob.mu.data[j0:j1] * dfz + prob.nu.data[j0:j1] * np.conj(dfz)
    return GridField(omega.L, out)


def normalize_solution(f, fz, fzbar, L):
    """Pin f(0) = 0 and |f(1)| = 1 by translation and positive real scaling."""
    f0 = complex(GridField(L, f).interp(0.0 + 0.0j))
    f_shift = f - f0
    f1 = complex(GridField(L, f_shift).interp(1.0 + 0.0j))
    if abs(f1) < 1e-12:
        raise DegenerateNormalization(f"|f(1) - f(0)| = {abs(f1):.3g} below 1e-12")
    scale = 1.0 / abs(f1)
    norm = Normalization(translation=f0, scale=scale, arg_f1=float(np.angle(f1)))
    return scale * f_shift, scale * fz, scale * fzbar, norm


def raw_omega(sol: Solution) -> np.ndarray:
    """The solve's fixed point omega = f_zbar before normalization scaled it."""
    return sol.fzbar.data / sol.normalization.scale


def solve_linear(prob: LinearProblem, cfg, omega0=None, tol=None) -> Solution:
    """Iterate picard_step from omega0 (default omega = 0) until the relative
    L2 update drops below tol (default cfg.inner_tol), then assemble and
    normalise the principal solution.

    Raises MaxIterations after cfg.max_inner unconverged steps, and when a solve
    at inner_tol or tighter (looser ones are not checked) leaves a residual
    above cfg.residual_tol."""
    if prob.k_bound >= 1.0:
        raise NotContractive(f"k_bound = {prob.k_bound:.6g} >= 1")
    L, n = prob.mu.L, prob.mu.n
    if L <= 1.0:
        raise ValueError("box must contain the normalization points 0 and 1 strictly")
    tol = cfg.inner_tol if tol is None else tol
    omega = grid.zeros(L, n) if omega0 is None else GridField(L, omega0)
    trace = IterationTrace()
    for _ in range(cfg.max_inner):
        omega_next = picard_step(omega, prob)
        update = l2_norm(omega_next.data - omega.data) * omega.h
        trace.update_norms.append(update)
        omega = omega_next
        if update < tol * max(1.0, omega.norm_l2()):
            break
    else:
        raise MaxIterations(
            f"no convergence in {cfg.max_inner} Picard steps; last update {update:.3g}"
        )
    f = prob.mu.z + cauchy_transform(omega).data
    fz = 1.0 + beurling_transform(omega).data
    fzbar = omega.data
    f, fz, fzbar, norm = normalize_solution(f, fz, fzbar, L)
    res_field = fzbar - prob.mu.data * fz - prob.nu.data * np.conj(fz)
    residual = l2_norm(res_field) / l2_norm(fz)
    if tol <= cfg.inner_tol and residual > cfg.residual_tol:
        raise MaxIterations(
            f"converged iteration left residual {residual:.3g} > {cfg.residual_tol:.3g}"
        )
    return Solution(
        f=GridField(L, f),
        fz=GridField(L, fz),
        fzbar=GridField(L, fzbar),
        trace=trace,
        normalization=norm,
        residual_l2_rel=residual,
    )


# ---------------------------------------------------------------------------
# solution archives

def save_solution(sol: Solution, outdir, extra_meta=None):
    """Write the f/fz/fzbar grids, whose headers hold box and size, and
    meta.json: the rest of the Solution plus the caller's keys (the spec)."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    sol.f.save(out / "f.blgf")
    sol.fz.save(out / "fz.blgf")
    sol.fzbar.save(out / "fzbar.blgf")
    meta = {
        "residual_l2_rel": sol.residual_l2_rel,
        "normalization": {
            "translation": [sol.normalization.translation.real, sol.normalization.translation.imag],
            "scale": sol.normalization.scale,
            "arg_f1": sol.normalization.arg_f1,
        },
        "trace": asdict(sol.trace),
    }
    if extra_meta:
        meta.update(extra_meta)
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return out


def load_solution(indir) -> Solution:
    """Read an archive; keys it does not read (older archives carry more) are ignored."""
    src = Path(indir)
    with open(src / "meta.json") as fh:
        meta = json.load(fh)
    nm = meta["normalization"]
    norm = Normalization(complex(*nm["translation"]), nm["scale"], nm["arg_f1"])
    return Solution(
        f=grid.load(src / "f.blgf"),
        fz=grid.load(src / "fz.blgf"),
        fzbar=grid.load(src / "fzbar.blgf"),
        trace=IterationTrace(update_norms=meta["trace"]["update_norms"]),
        normalization=norm,
        residual_l2_rel=meta["residual_l2_rel"],
    )
