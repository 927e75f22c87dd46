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
"""

from __future__ import annotations

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


_PAD = 4  # samples of padding at the end of each spectrum row


def _spectrum(n: int) -> np.ndarray:
    """A zeroed n x n complex grid whose rows lie n + _PAD samples apart: the
    n x n view of an n x (n + _PAD) buffer, its `base`. An elementwise pass
    over the buffer is contiguous, and numpy runs it without the buffers it
    allocates for a strided one (the multiplier pass at n = 512: 0.60 ->
    0.36 ms)."""
    return np.zeros((n, n + _PAD), dtype=complex)[:, :n]


def _passes(spec: np.ndarray, L: float, which: int):
    """The passes of T (which=0) or S (which=1) between the row passes, in
    place on the `_spectrum` spec after its forward row pass: the forward
    column pass, the multiplier (over the buffers) and the inverse column
    pass. Returns the slug correction's factor c, from the mass."""
    n = spec.shape[0]
    fft.fft(spec, axis=0, out=spec)
    c = spec[0, 0] * (2.0 * L / n) ** 2 * _slug(L, n)[2]  # the zero frequency is the mass
    np.multiply(spec.base, _kernels(L, n)[which].base, out=spec.base)
    fft.ifft(spec, axis=0, out=spec)
    return c


def _slug_carried(data: np.ndarray, L: float, which: int, band: slice):
    """T (which=0) or S (which=1) of data as a new contiguous grid; unchecked:
    data must vanish off `band` rows. The last pass runs out of place, and
    c R_X is formed in the spectrum's buffer, which that pass left free."""
    n = data.shape[0]
    spec = _spectrum(n)
    fft.fft(data[band], axis=1, out=spec[band])
    c = _passes(spec, L, which)
    out = fft.ifft(spec, axis=1)
    out += np.multiply(c, _slug(L, n)[which], out=spec.base.reshape(-1)[:n * n].reshape(n, n))
    return out


class _BoxTransform:
    """T (which=0) or S (which=1) on a fixed box of the (L, n) grid, unchecked,
    for repeated calls: the spectrum, the box of R_X (contiguous) and a
    buffer for c R_X are made once, so that a call allocates nothing."""

    def __init__(self, L: float, n: int, which: int, box):
        self.L, self.which, self.box = L, which, box
        self.spec = _spectrum(n)
        self.R = np.ascontiguousarray(_slug(L, n)[which][box])
        self.cR = np.empty_like(self.R)

    def __call__(self, omega: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The transform, on the box and into `out`, of the grid that holds
        the box-shaped omega on the box and zero elsewhere. omega is copied
        into the spectrum and the zeros around it are written again, so that
        the row passes run in place, the inverse one over the box's rows."""
        (rows, cols), spec = self.box, self.spec
        spec[:rows.start] = 0.0
        spec[rows.stop:] = 0.0
        band = spec[rows]
        band[:, :cols.start] = 0.0
        band[:, cols.stop:] = 0.0
        band[:, cols] = omega
        fft.fft(band, axis=1, out=band)
        c = _passes(spec, self.L, self.which)
        fft.ifft(band, axis=1, out=band)
        out[...] = band[:, cols]
        out += np.multiply(c, self.R, out=self.cR)
        return out


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
