"""Discrete Cauchy and Beurling transforms and derivative operators.

Conventions, with frequency zeta = xi1 + i*xi2 and Wirtinger symbols
dbar ~ (i/2) zeta, d ~ (i/2) conj(zeta):

    T : multiplier -2i/zeta, zero at zeta = 0, so that dbar(T w) = w
    S : multiplier conj(zeta)/zeta, zero at zeta = 0, S = d o T

Both are whole-plane operators; on the periodic grid the zero frequency
is annihilated, which restricts the exact inversion dbar o T = id to
mean-zero fields. To recover the decaying principal branch for fields
with mass, the mass is carried by a radial Gaussian slug g whose
transforms are known in closed form,

    T g = sigma^2 (1 - exp(-|z|^2/sigma^2)) / z,      sigma = L/4,
    S g = d(T g),

and the multiplier acts on the mean-free remainder omega - c g, where
c g has the mass of omega. By linearity that is

    T omega = P_T(omega) + c R_T,      R_T = T g - P_T(g),

with P_T the periodic multiplier; the correction grids R_T and R_S are
computed once per (L, n), so no remainder is built per call. On
mean-zero input c = 0 and S is exactly the unimodular multiplier, an L2
isometry to round-off. Sign and normalization are pinned by the two
oracles dbar T = id and T chi_D = conj(z) inside the unit disk, 1/z
outside (verified against direct quadrature of the Cauchy integral).

The FFTs are numpy.fft's, so a solve or a verify loads no scipy. A
transform runs its FFT passes in place on one spectrum grid (`out=`,
numpy >= 2.0); without `out=` each pass allocates a fresh grid. The
spectrum is the n x n view of an n x (n + 4) buffer (`_spectrum`): a row
of n complex samples spans a power of two of bytes, so the samples of
one column would fall into a few cache sets, and the column passes
(axis 0) ran 1.5-2.2x slower than the row passes; four samples of
padding per row take the stride off that power of two (one column pass
at n = 512 on one Xeon thread: 2.7 -> 1.5 ms). Each pass transforms
every column or row alone, so the padding changes no bit of a result.
The T and S multipliers are laid out the same way, zero in the padding,
so the spectrum is multiplied over the whole buffers: a contiguous pass,
which numpy runs without allocating the iteration buffers a strided one
takes.

Every transform runs through one pipeline, `_BoxTransform`: T or S,
sampled on an output box, of the grid that holds a box-shaped input on
an input box and zero elsewhere. A call copies the input into its
spectrum, writing the zeros around it again, and runs the forward row
pass over the input box's rows only, since every other row is zero and
transforms to zero; the column passes and the multiplier run over the
whole spectrum, and the inverse row pass over the output box's rows
only. A public T or S checks the support of its input, taking |data|
only over the band of rows that hold a nonzero sample, and transforms
from that band (all columns) onto the whole grid, with a spectrum that
goes with the call. The Picard loop makes one `_BoxTransform` per solve,
from the coefficient box onto itself, whose unchecked calls write S on
the box into the caller's array and allocate nothing. Two memory
constraints shape the last pass. An output of whole rows (a public
call's) is allocated after the column passes, not before the first
pass: made first, it raised the disk-512 benchmark's peak RSS by
0.05-0.13 MB in 3 of 3 runs. Its inverse row pass runs out of place,
into that output, and c R_X is formed in the spectrum rows the pass has
freed, so a public call holds its spectrum and its output and no third
grid. Any other output box keeps a c R_X buffer of its own, made once
per solve, as the Picard loop's always has: forming c R_X in its freed
spectrum rows instead gave no lower sec4-256 peak (50.70-50.89 against
50.70-50.79 MB over 3 runs).

A solve takes S of its fixed point (for f_z) only when it runs to
inner_tol; a looser solve, which only steers the quasilinear outer loop,
takes T alone, and a solve whose fixed point is zero (its coefficients
are all truncated) takes neither. The T/S multipliers and the d/dbar
multipliers of `derivatives` are cached apart per (L, n), so a solve
builds only the former; the cached grids are built in place where the
bits allow, so a build holds few grids beyond its results.
`_sample_support` gives `_check_support`'s box and verdict for a grid
given by its nonzero samples, without building the grid.

On a grid with n >= 512, in a process whose CPU affinity mask holds at
least two CPUs, each phase of a transform runs as two disjoint halves of
its lines: the lower half on the calling thread, the upper one on a
single daemon worker thread (`_Worker`, started by the first such
transform), joined before the next phase. The phases are the forward row
pass (the zeros around the input box written again, the input copied
in), the forward column pass, the multiplier, the inverse column pass
and the inverse row pass with c R_X (`_runner`; below 512 or on one CPU
every phase runs as one range, through the same functions). The
multiplier is a phase of its own, over the buffers' rows: on a column
half it would be strided, and numpy allocates its iteration buffers for
that. No bit changes: every pass transforms each row or column alone,
and the multiplier and c R_X act on each sample alone, so which thread
handles a line changes nothing (Frigo and Johnson, Proc. IEEE 93, 2005,
split a row-column FFT the same way). numpy's FFTs release the
interpreter lock, so the halves run at once. The threshold is measured,
on two cores of a shared Xeon host: a box transform of the unit disk's
box, split, took 0.60-0.65x of its one-range time at n = 512, 0.97-1.09x
at n = 256 and 1.8-1.9x at n = 128, where the passes are too short to
pay for the five hand-offs of a transform. The worker runs numpy
calls only, on views the caller prepared, in a copy of the caller's
context, so the caller's `np.errstate` holds in both halves; an
exception raised in its half (a RuntimeWarning made an error included)
is raised in the caller, and the worker runs on. It drops each job
before it reports it done, so between transforms it holds no array.
"""

from __future__ import annotations

import contextvars
import os
import queue
import threading
from functools import lru_cache

import numpy as np
from numpy import fft

from .errors import SupportTooLarge
from .grid import DerivativePair, GridField, coordinates

SUPPORT_EPS = 1e-13


def _frequencies(L: float, n: int) -> np.ndarray:
    """zeta = xi1 + i xi2 on the FFT grid of [-L, L]^2 with n samples per axis."""
    xi = 2.0 * np.pi * fft.fftfreq(n, d=2.0 * L / n)
    zeta = np.empty((n, n), dtype=complex)
    zeta.real = xi  # xi1 along the rows
    zeta.imag = xi[:, None]
    return zeta


def _frozen(*grids):
    for m in grids:
        m.flags.writeable = False
    return grids


@lru_cache(maxsize=16)
def _kernels(L: float, n: int):
    """The T and S multipliers, zero at zeta = 0 (the sample [0, 0]), laid
    out as a `_spectrum` is, with zeros in the padding, so that a spectrum
    is multiplied over the whole buffers; built with no grid beyond zeta
    and the two results."""
    zeta = _frequencies(L, n)
    zeta[0, 0] = 1.0
    mult_T, mult_S = _spectrum(n), _spectrum(n)
    np.divide(-2j, zeta, out=mult_T)
    np.conjugate(zeta, out=mult_S)
    mult_S /= zeta
    mult_T[0, 0] = mult_S[0, 0] = 0.0
    _frozen(mult_T.base, mult_S.base)
    return _frozen(mult_T, mult_S)


@lru_cache(maxsize=16)
def _derivative_kernels(L: float, n: int):
    """The d and dbar multipliers of the spectral `derivatives`; the solver never builds them."""
    zeta = _frequencies(L, n)
    return _frozen(0.5j * np.conj(zeta), 0.5j * zeta)


@lru_cache(maxsize=16)
def _slug(L: float, n: int):
    """Per-mass slug corrections (R_T, R_S) and the mass-to-c factor 1/(pi sigma^2).

    R = X g - P_X(g) for X = T, S: the closed-form transform of the
    Gaussian carrier g minus what the periodic multiplier makes of it.
    Each step runs in place where it can, so the build holds few grids
    at once; the formulas are evaluated at z = 0 with z replaced by 1,
    and that sample of X g is then set to 0.
    """
    Z = coordinates(L, n)
    sigma = L / 4.0
    centre = Z == 0
    Zs = np.where(centre, 1.0, Z)
    t = np.abs(Z) ** 2
    t /= sigma**2
    np.negative(t, out=t)  # -|z|^2 / sigma^2
    g = np.exp(t)
    one_minus_e = np.expm1(t, out=t)
    np.negative(one_minus_e, out=one_minus_e)
    weighted = sigma**2 * one_minus_e
    Tg = np.divide(weighted, Zs)
    Sg = np.conj(Z)
    np.multiply(Sg, 1.0 - one_minus_e, out=Sg)
    np.multiply(Sg, Zs, out=Sg)
    np.subtract(Sg, weighted, out=Sg)
    del one_minus_e, t, weighted
    np.divide(Sg, Zs**2, out=Sg)
    del Zs
    Tg[centre] = Sg[centre] = 0.0
    g_hat = fft.fft2(g)
    del g
    projected = np.empty_like(g_hat)
    for mult, Xg in zip(_kernels(L, n), (Tg, Sg)):
        np.multiply(mult, g_hat, out=projected)
        fft.ifft(projected, axis=1, out=projected)
        fft.ifft(projected, axis=0, out=projected)
        Xg -= projected
    return (*_frozen(Tg, Sg), 1.0 / (np.pi * sigma**2))


def _check_support(data: np.ndarray, L: float):
    """Support extent of the samples on [-L, L]^2 must not exceed half the box side.

    The extent counts rows and columns holding a sample above
    SUPPORT_EPS times the peak. Returns the slices (rows, cols) of the
    box data[rows, cols] outside which every sample is exactly zero;
    |data| is taken over the band of rows that hold a nonzero sample
    only, since every other row is zero.
    """
    band = np.flatnonzero(data.any(axis=1))
    if not band.size:
        return slice(0, 0), slice(0, 0)
    j0, j1 = int(band[0]), int(band[-1]) + 1
    mag = np.abs(data[j0:j1])
    rows, cols = mag.max(axis=1), mag.max(axis=0)
    thresh = SUPPORT_EPS * rows.max()
    jj = np.flatnonzero(rows > thresh)
    kk = np.flatnonzero(cols > thresh)
    _check_extent(jj[-1] - jj[0], kk[-1] - kk[0], L, data.shape[0])
    box_cols = np.flatnonzero(cols)
    return slice(j0, j1), slice(int(box_cols[0]), int(box_cols[-1]) + 1)


def _sample_support(index: np.ndarray, s: np.ndarray, L: float, n: int):
    """`_check_support` of the n x n grid that holds the magnitudes s >= 0 at
    the flat row-major indices `index` (increasing) and zero elsewhere,
    computed from the samples alone: the same box, and the same
    SupportTooLarge. n is a power of two, so a column is index & (n - 1)."""
    nonzero = s > 0.0
    if not nonzero.any():
        return slice(0, 0), slice(0, 0)
    shift, cols = n.bit_length() - 1, index & (n - 1)
    big = s > SUPPORT_EPS * s.max()
    rows = index[big][[0, -1]] >> shift
    _check_extent(rows[1] - rows[0], np.ptp(cols[big]), L, n)
    rows = index[nonzero][[0, -1]] >> shift
    cols = cols[nonzero]
    return (slice(int(rows[0]), int(rows[1]) + 1),
            slice(int(cols.min()), int(cols.max()) + 1))


def _check_extent(row_span, col_span, L: float, n: int):
    """Raise SupportTooLarge when the rows or columns above the threshold
    span more than half the box side (row_span, col_span in samples)."""
    h = 2.0 * L / n
    extent = h * max(int(col_span), int(row_span))
    if extent > L + h / 2:
        raise SupportTooLarge(
            f"support extent {extent:.3g} exceeds half the box side {L:.3g}; enlarge the box"
        )


_SPLIT_N = 512  # from this grid size on, each pass runs as two halves of its lines


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without affinity masks
        return os.cpu_count() or 1


def _one(phase, lines, *arrays):
    """phase(*arrays, lo, hi) over all its lines, [0, lines), on this thread."""
    phase(*arrays, 0, lines)


def _attempt(context, phase, arrays, lo, hi):
    """phase(*arrays, lo, hi) run in the caller's context; the exception it
    raised, or None."""
    try:
        context.run(phase, *arrays, lo, hi)
    except BaseException as exc:  # handed to the caller, which raises it
        return exc
    return None


class _Worker:
    """A daemon thread that runs the upper half of a pass's lines while the
    calling thread runs the lower half. A job holds only the caller's
    context, a phase function and the views it reads; the thread drops them
    before it reports the job done, so between jobs it holds no array."""

    def __init__(self):
        self.jobs, self.done = queue.SimpleQueue(), queue.SimpleQueue()
        self.idle = threading.Lock()
        threading.Thread(target=self._serve, name="beltrami-lab-passes", daemon=True).start()

    def _serve(self):
        while True:
            self.done.put(_attempt(*self.jobs.get()))

    def __call__(self, phase, lines, *arrays):
        """phase(*arrays, lo, hi) over [0, lines) as two halves, the upper one
        on the worker, both under the caller's numpy error state; joined before
        it returns, and an exception of either half is raised here. While
        another thread's pass holds the worker, the lines run as one range."""
        if not self.idle.acquire(blocking=False):
            return _one(phase, lines, *arrays)
        mid = lines // 2
        self.jobs.put((contextvars.copy_context(), phase, arrays, mid, lines))
        try:
            phase(*arrays, 0, mid)
        finally:
            error = self.done.get()  # a wait cut by an interrupt leaves the worker held, unused
            self.idle.release()
        if error is not None:
            raise error


_worker = None
_worker_lock = threading.Lock()


def _runner(n: int):
    """How a transform on an n x n grid runs its passes: `_one` range of
    lines, or, from _SPLIT_N on in a process that may run on two CPUs,
    two halves through the worker, which starts on the first such call."""
    global _worker
    if n < _SPLIT_N or _cpu_count() < 2:
        return _one
    with _worker_lock:
        if _worker is None:
            _worker = _Worker()
        return _worker


def _forget_worker():
    """In a forked child, which has no worker thread: start one when needed."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_forget_worker)


_PAD = 4  # samples of padding at the end of each spectrum row


def _spectrum(n: int) -> np.ndarray:
    """A zeroed n x n complex grid whose rows lie n + _PAD samples apart: the
    n x n view of an n x (n + _PAD) buffer, its `base`. An elementwise pass
    over the buffer is contiguous, and numpy runs it without the buffers it
    allocates for a strided one (the multiplier pass at n = 512: 0.60 ->
    0.36 ms)."""
    return np.zeros((n, n + _PAD), dtype=complex)[:, :n]


def _column_pass(transform, spec, lo, hi):
    """transform along the columns lo:hi of spec, in place."""
    cols = spec[:, lo:hi]
    transform(cols, axis=0, out=cols)


def _multiply(buf, mult, lo, hi):
    """The multiplier buffer mult over the rows lo:hi of a spectrum's buffer:
    a contiguous block of both, so numpy runs it without iteration buffers."""
    rows = buf[lo:hi]
    np.multiply(rows, mult[lo:hi], out=rows)


class _BoxTransform:
    """T (which=0) or S (which=1) of the (L, n) grid, unchecked, from the box
    `box` (rows, cols) onto the box `out_box`, by default `box`. The spectrum
    and the output box of R_X (contiguous) are made once, for repeated calls.
    An output box of whole rows takes the inverse row pass out of place and
    forms c R_X in the spectrum rows that pass frees; any other box keeps a
    buffer of its own for c R_X."""

    def __init__(self, L: float, n: int, which: int, box, out_box=None):
        self.L, self.which = L, which
        self.box, self.out_box = (tuple(slice(*line.indices(n)[:2]) for line in b)
                                  for b in (box, out_box or box))
        self.spec = _spectrum(n)
        self.R = np.ascontiguousarray(_slug(L, n)[which][self.out_box])
        self.cR = None if self.out_box[1] == slice(0, n) else np.empty_like(self.R)

    def __call__(self, omega: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The transform on the output box, into `out` (by default a new
        contiguous array, made after the column passes), of the grid that
        holds the box-shaped omega on the box and zero elsewhere. omega is
        copied into the spectrum and the zeros around it are written again,
        so that the forward row pass runs in place over the box's rows; the
        inverse one runs over the output box's rows. Each phase runs through
        the grid's `_runner`."""
        L, spec = self.L, self.spec
        n = spec.shape[0]
        run = _runner(n)
        run(self._forward_rows, len(omega), omega)
        run(_column_pass, n, fft.fft, spec)
        c = spec[0, 0] * (2.0 * L / n) ** 2 * _slug(L, n)[2]  # the zero frequency is the mass
        run(_multiply, n, spec.base, _kernels(L, n)[self.which].base)
        run(_column_pass, n, fft.ifft, spec)
        if out is None:
            out = np.empty(self.R.shape, dtype=complex)
        run(self._inverse_rows, len(out), c, out)
        return out

    def _forward_rows(self, omega, lo, hi):
        """The box's rows lo:hi: the zeros beside them written again, omega's
        rows copied in, the forward row pass. The range that starts at the
        box's first row zeroes the rows above the box, the one that ends at
        its last row those below."""
        (rows, cols), spec = self.box, self.spec
        if lo == 0:
            spec[:rows.start] = 0.0
        if hi == len(omega):
            spec[rows.stop:] = 0.0
        band = spec[rows.start + lo:rows.start + hi]
        band[:, :cols.start] = 0.0
        band[:, cols.stop:] = 0.0
        band[:, cols] = omega[lo:hi]
        fft.fft(band, axis=1, out=band)

    def _inverse_rows(self, c, out, lo, hi):
        """The inverse row pass over the output box's rows lo:hi, and the
        transform on them, with c R_X, into the rows lo:hi of out."""
        rows, cols = self.out_box
        band, out_rows = self.spec[rows.start + lo:rows.start + hi], out[lo:hi]
        if self.cR is None:  # whole rows: the pass empties these spectrum rows
            fft.ifft(band, axis=1, out=out_rows)
            free = self.spec.base[rows.start + lo:rows.start + hi].reshape(-1)
            cR = free[:out_rows.size].reshape(out_rows.shape)
        else:
            fft.ifft(band, axis=1, out=band)
            out_rows[...] = band[:, cols]
            cR = self.cR[lo:hi]
        out_rows += np.multiply(c, self.R[lo:hi], out=cR)


def _checked(omega: GridField, which: int) -> np.ndarray:
    """T (which=0) or S (which=1) of omega on the whole grid, from the band of
    rows that hold a nonzero sample, after the support check. The transform
    and its spectrum go with this call, so the finiteness check of the
    caller's GridField does not add to the call's peak memory."""
    band, _ = _check_support(omega.data, omega.L)
    whole = slice(None)
    return _BoxTransform(omega.L, omega.n, which, (band, whole), (whole, whole))(omega.data[band])


def cauchy_transform(omega: GridField) -> GridField:
    """T omega with dbar(T omega) = omega and decay at infinity."""
    return GridField(omega.L, _checked(omega, 0))


def beurling_transform(omega: GridField) -> GridField:
    """S omega = d(T omega); unimodular multiplier, L2 isometry on mean-zero input."""
    return GridField(omega.L, _checked(omega, 1))


def derivatives(f: GridField, method: str = "spectral") -> DerivativePair:
    """Wirtinger derivatives f_z = (f_x - i f_y)/2, f_zbar = (f_x + i f_y)/2.

    "spectral" assumes the field extends periodically (exact for smooth
    compactly supported samples); "fd" uses second-order centered
    differences with one-sided stencils at the box edge and is the right
    choice for non-periodic fields.
    """
    if method == "spectral":
        mult_d, mult_dbar = _derivative_kernels(f.L, f.n)
        fh = fft.fft2(f.data)
        fz = fft.ifft2(mult_d * fh)
        fzbar = fft.ifft2(mult_dbar * fh)
    elif method == "fd":
        fy, fx = np.gradient(f.data, f.h, edge_order=2)
        fz = 0.5 * (fx - 1j * fy)
        fzbar = 0.5 * (fx + 1j * fy)
    else:
        raise ValueError(f"unknown differentiation method {method!r}")
    return DerivativePair(GridField(f.L, fz), GridField(f.L, fzbar))
