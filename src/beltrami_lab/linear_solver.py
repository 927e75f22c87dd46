"""Fixed-point solver for the linear two-characteristic equation.

Solves f_zbar = mu f_z + nu conj(f_z) for measurable, compactly
supported, uniformly elliptic coefficient grids via the principal-
solution ansatz f = id + T omega with omega = f_zbar. Substituting the
ansatz turns the equation into

    omega = mu (1 + S omega) + nu conj(1 + S omega),

a contraction on L2 with factor k = sup(|mu| + |nu|) < 1 because S is an
isometry, so Picard iteration converges geometrically from any start:
omega = 0 by default, or a given iterate (the quasilinear outer loop
passes the previous solve's raw omega). As S 0 = 0, the first step from
omega = 0 is mu + nu and takes no transform. The first transform checks
its input; later steps run on arrays that vanish outside the
coefficients' support box, with S formed only on that box; a solve's
unchecked steps reuse one spectrum for their transforms and two iterate
grids, the checked step's and one more, which they write in turn, on
the box only. Where nu is zero on the box a step forms
mu (1 + S omega) alone. The
assembled solution carries its derivative grids from the ansatz
relations f_z = 1 + S omega, f_zbar = omega (spectrally exact); a solve
looser than inner_tol, which only steers the quasilinear outer loop,
forms no f_z, and a problem with an empty box, whose fixed point is
zero, takes no transform of it. The map is normalised to f(0) = 0,
|f(1)| = 1: translation and positive real scaling preserve the equation
exactly, while the rotation that would pin arg f(1) = 0 would conjugate
nu, so only arg f(1) is reported.

A Solution holds only what the solve computed: the spec owns the
coefficient's label and support radius, and the ladder report the rung.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, is_dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from . import grid
from .errors import DegenerateNormalization, MaxIterations, NotContractive
from .grid import GridField, l2_norm
from .transforms import (
    _check_support,
    _slug_carried,
    _spectrum,
    beurling_transform,
    cauchy_transform,
)


@dataclass(frozen=True)
class LinearProblem:
    """Coefficient grids with a certified ellipticity bound |mu|+|nu| <= k_bound.

    `box` is the pair of slices (rows, cols), from the support check,
    outside which mu and nu are exactly zero; it is empty when every
    sample is zero. `mu_only` says nu is zero on the box too, so that a
    Picard step forms mu (1 + S omega) alone.
    """

    mu: GridField
    nu: GridField
    k_bound: float
    box: tuple = field(init=False, repr=False, compare=False)
    mu_only: bool = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "box", _check_support(s, self.mu.L))
        object.__setattr__(self, "mu_only", not self.nu.data[self.box].any())


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
    """The normalised map and its derivative grids, the solve's trace and normalization.

    fz is None only for a solve looser than inner_tol: the outer loop reads
    such a solve's f and raw omega alone, and never returns or archives it."""

    f: GridField
    fz: GridField | None
    fzbar: GridField
    trace: IterationTrace
    normalization: Normalization


def picard_step(omega: GridField | np.ndarray, prob: LinearProblem, spectrum=None,
                out=None) -> np.ndarray:
    """One application of omega -> mu (1 + S omega) + nu conj(1 + S omega).

    Checked for a GridField omega; an array (a step's output) is not, and S is
    formed on the box only, in `spectrum` (a `transforms._spectrum` reused from
    an earlier step) when given. The products fill the box of `out`, a grid
    that is zero off the box (a new one when None); the rest stays exactly 0,
    as mu = nu = 0 there. With prob.mu_only the step is mu (1 + S omega) alone.
    """
    box = prob.box
    s = (beurling_transform(omega).data[box] if isinstance(omega, GridField)
         else _slug_carried(omega, prob.mu.L, 1, box[0], box, spectrum))
    if out is None:
        out = np.zeros(prob.mu.data.shape, dtype=complex)
    fz = out[box]
    np.add(s, 1.0, out=fz)  # f_z = 1 + S omega
    if prob.mu_only:
        np.multiply(prob.mu.data[box], fz, out=fz)
        return out
    conj_fz = np.conj(fz)
    # mu and nu stay the left factors: numpy's fused complex product does
    # not commute bit for bit
    np.multiply(prob.nu.data[box], conj_fz, out=conj_fz)
    np.multiply(prob.mu.data[box], fz, out=fz)
    fz += conj_fz
    return out


def normalize_solution(f, L):
    """Pin f(0) = 0 and |f(1)| = 1 by translation and positive real scaling;
    the derivative grids scale by the returned normalization's scale."""
    f0 = complex(grid.bilinear(f, L, 0.0 + 0.0j))
    f_shift = f - f0
    f1 = complex(grid.bilinear(f_shift, L, 1.0 + 0.0j))
    if abs(f1) < 1e-12:
        raise DegenerateNormalization(f"|f(1) - f(0)| = {abs(f1):.3g} below 1e-12")
    scale = 1.0 / abs(f1)
    norm = Normalization(translation=f0, scale=scale, arg_f1=float(np.angle(f1)))
    return scale * f_shift, norm


def raw_omega(sol: Solution) -> np.ndarray:
    """The solve's fixed point omega = f_zbar before normalization scaled it."""
    return sol.fzbar.data / sol.normalization.scale


def _iterates(prob: LinearProblem, start: GridField | None):
    """The Picard iterates omega_1, omega_2, ... from start, or from omega = 0 when None.

    From omega = 0, omega_1 is mu + nu, as S 0 = 0, and the step after it is
    the checked one. Later steps are unchecked: they reuse one spectrum and
    write the checked step's grid and one more in turn, so an iterate's grid
    is written again two steps later. Both are made only after the checked
    step, whose public transform holds two grids of its own."""
    if start is None:
        omega = np.zeros(prob.mu.data.shape, dtype=complex)
        np.add(prob.mu.data[prob.box], prob.nu.data[prob.box], out=omega[prob.box])
        yield omega
        start = GridField(prob.mu.L, omega)
    omega = picard_step(start, prob)
    yield omega
    spectrum, spare = _spectrum(prob.mu.n), np.zeros_like(omega)
    while True:
        omega, spare = picard_step(omega, prob, spectrum, spare), omega
        yield omega


def solve_linear(prob: LinearProblem, cfg, omega0=None, tol=None) -> Solution:
    """Iterate picard_step from omega0 (default omega = 0) until the relative
    L2 update drops below tol (default cfg.inner_tol), then assemble and
    normalise the principal solution.

    Raises MaxIterations after cfg.max_inner unconverged steps, and when a solve
    at inner_tol or tighter leaves a residual of the linear equation above
    cfg.residual_tol. A looser solve forms neither its residual nor fz."""
    if prob.k_bound >= 1.0:
        raise NotContractive(f"k_bound = {prob.k_bound:.6g} >= 1")
    L, n, box = prob.mu.L, prob.mu.n, prob.box
    if L <= 1.0:
        raise ValueError("box must contain the normalization points 0 and 1 strictly")
    tol = cfg.inner_tol if tol is None else tol
    # later iterates vanish outside the box, so the norms read the box only,
    # but a warm omega0's first update reads the grid
    start = None if omega0 is None else GridField(L, omega0)
    prev, part = (np.zeros((n, n), dtype=complex), box) if start is None else (start.data, ...)
    trace = IterationTrace()
    for omega in islice(_iterates(prob, start), cfg.max_inner):
        update = l2_norm(omega[part] - prev[part]) * prob.mu.h
        if not math.isfinite(update):
            raise ValueError("grid samples must all be finite")
        trace.update_norms.append(update)
        prev, part = omega, box
        if update < tol * max(1.0, l2_norm(omega[box]) * prob.mu.h):
            break
    else:
        raise MaxIterations(
            f"no convergence in {cfg.max_inner} Picard steps; last update {update:.3g}"
        )
    omega = GridField(L, omega)  # the fixed point, checked once more
    # with an empty box every step returns zero, so omega is zero, and so
    # are its T and S: both transforms give +0 on every sample, and z,
    # which holds no -0, is z + 0
    zero = box[0].start == box[0].stop
    f, norm = normalize_solution(prob.mu.z if zero else prob.mu.z + cauchy_transform(omega).data, L)
    fzbar = norm.scale * omega.data
    if tol > cfg.inner_tol:  # only steers the outer loop, which reads f and the raw omega
        return Solution(GridField(L, f), None, GridField(L, fzbar), trace, norm)
    fz = (np.full((n, n), norm.scale, dtype=complex) if zero
          else norm.scale * (1.0 + beurling_transform(omega).data))
    # formed and summed on the box, the only place mu, nu and fzbar are nonzero
    fz_box = fz[box]
    res = fzbar[box] - prob.mu.data[box] * fz_box - prob.nu.data[box] * np.conj(fz_box)
    residual = l2_norm(res) / l2_norm(fz)
    if residual > cfg.residual_tol:
        raise MaxIterations(
            f"converged iteration left residual {residual:.3g} > {cfg.residual_tol:.3g}"
        )
    return Solution(
        f=GridField(L, f),
        fz=GridField(L, fz),
        fzbar=GridField(L, fzbar),
        trace=trace,
        normalization=norm,
    )


# ---------------------------------------------------------------------------
# solution archives, and the one JSON writer: every report file goes
# through _write_json, so the format is fixed here

def _jsonable(value, nulls, where):
    """Dataclasses as dicts, tuples as lists, complex numbers as [re, im].
    A non-finite float is null if nulls, else a ValueError naming where it is."""
    if is_dataclass(value):
        value = asdict(value)
    if isinstance(value, dict):
        return {key: _jsonable(item, nulls, f"{where}/{key}") for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item, nulls, f"{where}/{i}") for i, item in enumerate(value)]
    if isinstance(value, complex):
        return [_jsonable(part, nulls, where) for part in (value.real, value.imag)]
    if isinstance(value, float) and not math.isfinite(value):
        if nulls:
            return None
        raise ValueError(f"{where} is {value}, which JSON cannot hold")
    return value


def _write_json(report, path, nulls=False):
    """Write report as standard JSON (RFC 8259) with indent 2 and sorted keys.
    A value JSON has no form for raises; none is written as a string, and
    a file of that name from an earlier run is removed first."""
    Path(path).unlink(missing_ok=True)
    payload = _jsonable(report, nulls, Path(path).name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)


def save_solution(sol: Solution, outdir, extra_meta=None):
    """Write the f/fz/fzbar grids, whose headers hold box and size, and
    meta.json: the rest of the Solution plus the caller's keys (the spec)."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    sol.f.save(out / "f.blgf")
    sol.fz.save(out / "fz.blgf")
    sol.fzbar.save(out / "fzbar.blgf")
    meta = {
        "normalization": sol.normalization,
        "trace": sol.trace,
        **(extra_meta or {}),
    }
    _write_json(meta, out / "meta.json")
    return out


def read_meta(indir) -> dict:
    """An archive's parsed meta.json; text that is not JSON is a ValueError naming the file."""
    path = Path(indir) / "meta.json"
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
        raise ValueError(f"{path}: {exc}") from None


def load_solution(indir, meta=None) -> Solution:
    """Read an archive; keys it does not read (older archives carry more) are ignored.

    meta is the archive's read_meta, for a caller that reads other keys of
    it too; by default the file is read here.
    """
    src = Path(indir)
    path = src / "meta.json"
    if meta is None:
        meta = read_meta(src)

    def field(where, what, ok):
        return _meta_field(meta, where, path, what, ok)

    translation = field("normalization/translation", "a pair of numbers",
                        lambda v: _numbers(v) and len(v) == 2)
    norm = Normalization(
        complex(*translation),
        field("normalization/scale", "a positive number", lambda v: _is_number(v) and v > 0),
        field("normalization/arg_f1", "a number", _is_number),
    )
    return Solution(
        f=grid.load(src / "f.blgf"),
        fz=grid.load(src / "fz.blgf"),
        fzbar=grid.load(src / "fzbar.blgf"),
        trace=IterationTrace(update_norms=field("trace/update_norms", "a list of numbers",
                                                _numbers)),
        normalization=norm,
    )


def _is_number(value):
    """An int or float that a finite float holds: json reads NaN, Infinity
    and 1e999 as floats that the writer refuses, and any digit string as an int."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _numbers(value):
    return isinstance(value, list) and all(map(_is_number, value))


def _meta_field(meta, where, path, what, ok):
    """The value at `where` ("trace/update_norms"), which must pass ok(value)
    and be `what`; a ValueError names the file and bad key."""
    keys = where.split("/")
    for i, key in enumerate(keys):
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: {'/'.join(keys[:i]) or 'the top level'} is a "
                             f"{type(meta).__name__}, not an object")
        if key not in meta:
            raise ValueError(f"{path}: no key {'/'.join(keys[:i + 1])!r}")
        meta = meta[key]
    if not ok(meta):
        raise ValueError(f"{path}: {where} is {meta!r:.40}, not {what}")
    return meta
