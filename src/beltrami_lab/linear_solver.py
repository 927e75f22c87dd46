"""Fixed-point solver for the linear two-characteristic equation.

Solves f_zbar = mu f_z + nu conj(f_z) for measurable, compactly
supported, uniformly elliptic coefficients via the principal-solution
ansatz f = id + T omega with omega = f_zbar. Substituting the ansatz
turns the equation into

    omega = mu (1 + S omega) + nu conj(1 + S omega),

a contraction on L2 with factor k = sup(|mu| + |nu|) < 1 because S is an
isometry, so Picard iteration converges geometrically from any start:
omega = 0 by default, or a given iterate (the quasilinear outer loop
passes the previous solve's raw omega).

A problem is built from coefficient samples: their flat grid indices and
mu and nu there, zero everywhere else. Its bound, its support box and
its support test are computed on the samples, and it keeps mu and nu on
the box as contiguous arrays. Every iterate after the start vanishes
off the box, so the Picard loop carries box-shaped iterates. As S 0 = 0,
the first step from omega = 0 is mu + nu and takes no transform. The
first transform checks its input, a grid: a warm start, or mu + nu
embedded in one. Later steps form S unchecked on the box, in one
spectrum per solve into which each iterate is copied, and write two
iterate arrays in turn; c R_S and conj(1 + S omega) go through reused
box buffers. Where nu is zero a step forms mu (1 + S omega) alone. Only
a warm start's first update, which reads the whole grid, and the fixed
point are embedded in grids.

The assembled solution carries its derivative grids from the ansatz
relations f_z = 1 + S omega, f_zbar = omega (spectrally exact), each
scaled in place, fzbar on the box only; a solve looser than inner_tol,
which only steers the quasilinear outer loop, forms no f_z, and a
problem with an empty box, whose fixed point is zero, takes no transform
of it. The map is normalised to f(0) = 0, |f(1)| = 1: translation and
positive real scaling preserve the equation exactly, while the rotation
that would pin arg f(1) = 0 would conjugate nu, so only arg f(1) is
reported.

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
from typing import NamedTuple

import numpy as np

from . import grid
from .errors import DegenerateNormalization, MaxIterations, NotContractive
from .grid import GridField, _validate_geometry, coordinates, l2_norm
from .transforms import (
    _BoxTransform,
    _check_support,
    _sample_support,
    beurling_transform,
    cauchy_transform,
)


@dataclass(frozen=True)
class LinearProblem:
    """Coefficient samples with a certified ellipticity bound |mu|+|nu| <= k_bound.

    mu and nu are the samples at `index`, flat row-major indices of the
    (L, n) grid in increasing order; both coefficients are zero at every
    other sample. `box` is the pair of slices (rows, cols) that the
    support check of the grid of |mu| + |nu| gives, outside which mu and
    nu are exactly zero; it is empty when every sample is zero. mu_box and
    nu_box are the coefficients on the box, contiguous and read-only.
    `mu_only` says nu is zero everywhere, so that a Picard step forms
    mu (1 + S omega) alone.
    """

    L: float
    n: int
    index: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    k_bound: float
    box: tuple = field(init=False, repr=False, compare=False)
    mu_box: np.ndarray = field(init=False, repr=False, compare=False)
    nu_box: np.ndarray = field(init=False, repr=False, compare=False)
    mu_only: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L, n = self.L, int(self.n)
        _validate_geometry(L, n)
        index = np.asarray(self.index)
        mu, nu = (np.asarray(c, dtype=complex) for c in (self.mu, self.nu))
        if index.ndim != 1 or index.dtype.kind not in "iu" or not (
                mu.shape == nu.shape == index.shape):
            raise ValueError("index, mu and nu must be one-dimensional, of one length, "
                             "and index must hold integers")
        if index.size and (index[0] < 0 or index[-1] >= n * n or np.any(index[1:] <= index[:-1])):
            raise ValueError(f"sample indices must increase within the {n} x {n} grid")
        s = np.abs(mu) + np.abs(nu)
        smax = float(s.max(initial=0.0))
        if not math.isfinite(smax) and not (np.isfinite(mu).all() and np.isfinite(nu).all()):
            raise ValueError("coefficient samples must all be finite")
        if smax > self.k_bound + 1e-12:
            raise ValueError(
                f"coefficients exceed the declared bound: max |mu|+|nu| = {smax:.6g} "
                f"> k_bound = {self.k_bound:.6g}"
            )
        rows, cols = box = _sample_support(index, s, L, n)
        shape = (rows.stop - rows.start, cols.stop - cols.start)
        # index increases, so the samples on the box's rows are one run of it
        lo, hi = np.searchsorted(index, (rows.start * n, rows.stop * n))
        r, c = index[lo:hi] >> (n.bit_length() - 1), index[lo:hi] & (n - 1)
        inside = (c >= cols.start) & (c < cols.stop)
        at = (r[inside] - rows.start) * shape[1] + (c[inside] - cols.start)
        for name, samples in (("n", n), ("index", index), ("mu", mu), ("nu", nu)):
            object.__setattr__(self, name, samples)
        for name, samples in (("mu_box", mu), ("nu_box", nu)):
            on_box = np.zeros(shape, dtype=complex)
            on_box.ravel()[at] = samples[lo:hi][inside]
            on_box.flags.writeable = False
            object.__setattr__(self, name, on_box)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "mu_only", not nu.any())

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n


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


class _Workspace(NamedTuple):
    """What one solve's unchecked Picard steps share."""

    S: _BoxTransform  # S on the box, with its spectrum and buffers
    conj: np.ndarray | None  # conj(1 + S omega) on the box; None for a mu-only problem


def _workspace(prob: LinearProblem) -> _Workspace:
    return _Workspace(_BoxTransform(prob.L, prob.n, 1, prob.box),
                      None if prob.mu_only else np.empty(prob.mu_box.shape, dtype=complex))


def _embed(omega: np.ndarray, prob: LinearProblem) -> np.ndarray:
    """The grid that holds the box-shaped omega on prob.box and +0 elsewhere."""
    full = np.zeros((prob.n, prob.n), dtype=complex)
    full[prob.box] = omega
    return full


def picard_step(omega: GridField | np.ndarray, prob: LinearProblem, work=None,
                out=None) -> np.ndarray:
    """One application of omega -> mu (1 + S omega) + nu conj(1 + S omega), on the box.

    omega is a GridField, whose public S is taken (a checked step), or a
    box-shaped array, an earlier step's output, whose S is formed unchecked
    on the box, in `work` (a `_Workspace` reused from earlier steps) when
    given. Returns the step on prob.box, in `out` (a box-shaped array) when
    given; off the box it is exactly 0, as mu = nu = 0 there. An empty box
    takes no transform: a GridField omega is then only support-checked.
    With prob.mu_only the step is mu (1 + S omega) alone.
    """
    if out is None:
        out = np.empty(prob.mu_box.shape, dtype=complex)
    if not out.size:
        if isinstance(omega, GridField):
            _check_support(omega.data, omega.L)
        return out
    fz = out  # f_z = 1 + S omega
    if isinstance(omega, GridField):
        np.add(beurling_transform(omega).data[prob.box], 1.0, out=fz)
    else:
        if work is None:
            work = _workspace(prob)
        work.S(omega, fz)
        fz += 1.0
    if prob.mu_only:
        np.multiply(prob.mu_box, fz, out=fz)
        return out
    conj_fz = np.conjugate(fz, out=None if work is None else work.conj)
    # mu and nu stay the left factors: numpy's fused complex product does
    # not commute bit for bit
    np.multiply(prob.nu_box, conj_fz, out=conj_fz)
    np.multiply(prob.mu_box, fz, out=fz)
    fz += conj_fz
    return out


def normalize_solution(f, L):
    """Pin f(0) = 0 and |f(1)| = 1 by translation and positive real scaling,
    in place on the writeable grid f; returns f and the normalization, whose
    scale the derivative grids take."""
    f0 = complex(grid.bilinear(f, L, 0.0 + 0.0j))
    f -= f0
    f1 = complex(grid.bilinear(f, L, 1.0 + 0.0j))
    if abs(f1) < 1e-12:
        raise DegenerateNormalization(f"|f(1) - f(0)| = {abs(f1):.3g} below 1e-12")
    scale = 1.0 / abs(f1)
    norm = Normalization(translation=f0, scale=scale, arg_f1=float(np.angle(f1)))
    np.multiply(scale, f, out=f)
    return f, norm


def raw_omega(sol: Solution) -> np.ndarray:
    """The solve's fixed point omega = f_zbar before normalization scaled it."""
    return sol.fzbar.data / sol.normalization.scale


def _iterates(prob: LinearProblem, start: GridField | None):
    """The box-shaped Picard iterates omega_1, omega_2, ... from start, or
    from omega = 0 when None.

    From omega = 0, omega_1 is mu + nu, as S 0 = 0, and the step after it
    is the checked one, of omega_1 embedded in a grid. Later steps are
    unchecked: they share one workspace and write the checked step's array
    and one more in turn, so an iterate is written again two steps later.
    Both are made only after the checked step, whose public transform
    holds grids of its own."""
    if start is None:
        omega = np.add(prob.mu_box, prob.nu_box)
        yield omega
        start = GridField(prob.L, _embed(omega, prob))
    omega = picard_step(start, prob)
    del start
    yield omega
    work = _workspace(prob) if omega.size else None
    spare = np.empty_like(omega)
    while True:
        omega, spare = picard_step(omega, prob, work, spare), omega
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
    L, n, h, box = prob.L, prob.n, prob.h, prob.box
    if L <= 1.0:
        raise ValueError("box must contain the normalization points 0 and 1 strictly")
    tol = cfg.inner_tol if tol is None else tol
    start = None if omega0 is None else GridField(L, omega0)
    iterates = _iterates(prob, start)
    diff = np.empty(prob.mu_box.shape, dtype=complex)
    trace = IterationTrace()
    for omega in islice(iterates, cfg.max_inner):
        if start is not None:  # a warm start's first update reads the whole grid
            change = _embed(omega, prob)
            change -= start.data
            start = None
        elif trace.update_norms:
            change = np.subtract(omega, prev, out=diff)
        else:  # omega_1 - 0
            change = omega
        update = l2_norm(change) * h
        if not math.isfinite(update):
            raise ValueError("grid samples must all be finite")
        trace.update_norms.append(update)
        prev = omega
        if update < tol * max(1.0, l2_norm(omega) * h):
            break
    else:
        raise MaxIterations(
            f"no convergence in {cfg.max_inner} Picard steps; last update {update:.3g}"
        )
    iterates.close()  # frees the loop's spectrum and buffers before T and S are taken
    del change, diff, prev
    # the fixed point, checked once more, through a read-only view: the grid
    # itself becomes fzbar once T and S are taken
    fzbar = _embed(omega, prob)
    fixed = GridField(L, fzbar.view())
    # with an empty box every step returns zero, so omega is zero, and so
    # are its T and S: both transforms give +0 on every sample, and z,
    # which holds no -0, is z + 0
    zero = not omega.size
    z = coordinates(L, n)
    f, norm = normalize_solution(z.copy() if zero else z + cauchy_transform(fixed).data, L)
    fz = None
    if tol <= cfg.inner_tol:  # a looser solve only steers the outer loop: f and the raw omega
        if zero:
            fz = np.full((n, n), norm.scale, dtype=complex)
        else:
            fz = np.add(1.0, beurling_transform(fixed).data)
            np.multiply(norm.scale, fz, out=fz)
    del fixed
    np.multiply(norm.scale, omega, out=fzbar[box])  # scale * (+0) is +0 off the box
    if fz is not None:
        # formed and summed on the box, the only place mu, nu and fzbar are nonzero
        fz_box = fz[box]
        res = fzbar[box] - prob.mu_box * fz_box - prob.nu_box * np.conj(fz_box)
        residual = l2_norm(res) / l2_norm(fz)
        if residual > cfg.residual_tol:
            raise MaxIterations(
                f"converged iteration left residual {residual:.3g} > {cfg.residual_tol:.3g}"
            )
        fz = GridField(L, fz)
    return Solution(GridField(L, f), fz, GridField(L, fzbar), trace, norm)


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
