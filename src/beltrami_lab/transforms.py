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

The FFTs are numpy.fft's, so a solve or a verify loads no scipy. Each
public transform call makes one spectrum grid and runs its FFT passes in
place on it (`out=`, numpy >= 2.0); without `out=` each pass allocates a
fresh grid. The spectrum is the n x n view of an n x (n + 4) buffer
(`_spectrum`): a row of n complex samples spans a power of two of bytes,
so the samples of one column would fall into a few cache sets, and the
column passes (axis 0) ran 1.5-2.2x slower than the row passes; four
samples of padding per row take the stride off that power of two (one
column pass at n = 512 on one Xeon thread: 2.7 -> 1.5 ms). Each pass
transforms every column or row alone, so the padding changes no bit of
a result. The T and S multipliers are laid out the same way, zero in the
padding, so the spectrum is multiplied over the whole buffers: a
contiguous pass, which numpy runs without allocating the iteration
buffers a strided one takes.

Every public transform call checks the support of its input, taking
|data| only over the band of rows that hold a nonzero sample, and the
forward FFT's first pass (along rows) runs only over that band; the
remaining rows are zero and transform to zero. A public call runs its
last pass (inverse, along rows) out of place, into the contiguous grid
it returns, and adds c R_X there through the spectrum's buffer, which
that pass has left free, so it makes no n x n temporary. The Picard
loop's unchecked calls go through a `_BoxTransform`, made once per
solve: they read a box-shaped iterate, copy it into their one spectrum
(writing the zeros around it again), run the row passes in place, the
inverse one over the box's rows only, and write S on the box into the
caller's array, with c R_X formed in a reused box buffer; a call
allocates nothing. A solve takes S of its fixed point (for f_z) only
when it runs to inner_tol; a looser solve, which only steers the
quasilinear outer loop, takes T alone, and a solve whose fixed point is
zero (its coefficients are all truncated) takes neither. The T/S
multipliers and the d/dbar multipliers of `derivatives` are cached apart
per (L, n), so a solve builds only the former; the cached grids are built
in place where the bits allow, so a build holds few grids beyond its
results. `_sample_support` gives `_check_support`'s box and verdict for a
grid given by its nonzero samples, without building the grid.

On a grid with n >= 512, in a process whose CPU affinity mask holds at
least two CPUs, each phase of a transform runs as two disjoint halves of
its lines: the lower half on the calling thread, the upper one on a
single daemon worker thread (`_Worker`, started by the first such
transform), joined before the next phase. The phases are the forward row
pass (for a `_BoxTransform` with the zeros around the iterate and its
copy), the forward column pass, the multiplier, the inverse column pass
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


def _forward_rows(src, dst, lo, hi):
    """The forward pass along the rows lo:hi of src, into dst."""
    fft.fft(src[lo:hi], axis=1, out=dst[lo:hi])


def _column_pass(transform, spec, lo, hi):
    """transform along the columns lo:hi of spec, in place."""
    cols = spec[:, lo:hi]
    transform(cols, axis=0, out=cols)


def _multiply(buf, mult, lo, hi):
    """The multiplier buffer mult over the rows lo:hi of a spectrum's buffer:
    a contiguous block of both, so numpy runs it without iteration buffers."""
    rows = buf[lo:hi]
    np.multiply(rows, mult[lo:hi], out=rows)


def _passes(spec: np.ndarray, L: float, which: int, run):
    """The passes of T (which=0) or S (which=1) between the row passes, in
    place on the `_spectrum` spec after its forward row pass, each through
    run: the forward column pass, the multiplier (over the buffers' rows)
    and the inverse column pass. Returns the slug correction's factor c,
    from the mass."""
    n = spec.shape[0]
    run(_column_pass, n, fft.fft, spec)
    c = spec[0, 0] * (2.0 * L / n) ** 2 * _slug(L, n)[2]  # the zero frequency is the mass
    run(_multiply, n, spec.base, _kernels(L, n)[which].base)
    run(_column_pass, n, fft.ifft, spec)
    return c


def _slug_carried(data: np.ndarray, L: float, which: int, band: slice):
    """T (which=0) or S (which=1) of data as a new contiguous grid; unchecked:
    data must vanish off `band` rows. The last pass runs out of place, and
    c R_X is formed in the spectrum's buffer, which that pass left free.
    Each pass runs through the grid's `_runner`."""
    n = data.shape[0]
    run, spec = _runner(n), _spectrum(n)
    run(_forward_rows, band.stop - band.start, data[band], spec[band])
    c = _passes(spec, L, which, run)
    out = np.empty((n, n), dtype=complex)
    run(_carried_rows, n, spec, c, _slug(L, n)[which], out)
    return out


def _carried_rows(spec, c, R, out, lo, hi):
    """The inverse row pass over the rows lo:hi of spec, into those of out,
    plus c R: c R is formed in those rows' buffer, which the pass left free."""
    rows = out[lo:hi]
    fft.ifft(spec[lo:hi], axis=1, out=rows)
    free = spec.base[lo:hi].reshape(-1)[:rows.size].reshape(rows.shape)
    rows += np.multiply(c, R[lo:hi], out=free)


class _BoxTransform:
    """T (which=0) or S (which=1) on a fixed box of the (L, n) grid, unchecked,
    for repeated calls: the spectrum, the box of R_X (contiguous) and a
    buffer for c R_X are made once, so that a call allocates nothing."""

    def __init__(self, L: float, n: int, which: int, box):
        self.L, self.which = L, which
        self.box = tuple(slice(*line.indices(n)[:2]) for line in box)
        self.spec = _spectrum(n)
        self.R = np.ascontiguousarray(_slug(L, n)[which][box])
        self.cR = np.empty_like(self.R)

    def __call__(self, omega: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The transform, on the box and into `out`, of the grid that holds
        the box-shaped omega on the box and zero elsewhere. omega is copied
        into the spectrum and the zeros around it are written again, so that
        the row passes run in place, the inverse one over the box's rows.
        Each phase runs through the grid's `_runner`."""
        run = _runner(self.spec.shape[0])
        run(self._forward_rows, len(omega), omega)
        c = _passes(self.spec, self.L, self.which, run)
        run(self._inverse_rows, len(omega), c, out)
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
        """The inverse row pass over the box's rows lo:hi, and the transform
        on them, with c R_X, into the rows lo:hi of out."""
        (rows, cols), spec = self.box, self.spec
        band = spec[rows.start + lo:rows.start + hi]
        fft.ifft(band, axis=1, out=band)
        out_rows = out[lo:hi]
        out_rows[...] = band[:, cols]
        out_rows += np.multiply(c, self.R[lo:hi], out=self.cR[lo:hi])


def cauchy_transform(omega: GridField) -> GridField:
    """T omega with dbar(T omega) = omega and decay at infinity."""
    band, _ = _check_support(omega.data, omega.L)
    return GridField(omega.L, _slug_carried(omega.data, omega.L, 0, band))


def beurling_transform(omega: GridField) -> GridField:
    """S omega = d(T omega); unimodular multiplier, L2 isometry on mean-zero input."""
    band, _ = _check_support(omega.data, omega.L)
    return GridField(omega.L, _slug_carried(omega.data, omega.L, 1, band))


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
