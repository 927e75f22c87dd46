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
transform call makes one spectrum grid and runs its FFT passes in place
on it (`out=`, numpy >= 2.0); without `out=` each pass allocates a
fresh grid. The spectrum is the n x n view of an n x (n + 4) buffer
(`_spectrum`): a row of n complex samples spans a power of two of
bytes, so the samples of one column would fall into a few cache sets,
and the column passes (axis 0) ran 1.5-2.2x slower than the row
passes; four samples of padding per row take the stride off that power
of two (one column pass at n = 512 on one Xeon thread: 2.7 -> 1.5 ms).
Each pass transforms every column or row alone, so the padding changes
no bit of a result. A public call runs its last pass (inverse, along
rows) out of place, into the contiguous grid it returns. Every public
transform call checks the support of its input, and the forward FFT's
first pass (along rows) runs only over the band of rows that hold a
nonzero sample; the remaining rows are zero and transform to zero. The
Picard loop's unchecked calls run the last pass in place and only over
the rows of the box it reads. A solve takes S of its fixed point (for
f_z) only when it runs to inner_tol; a looser solve, which only steers
the quasilinear outer loop, takes T alone. The T/S multipliers and the
d/dbar multipliers of `derivatives` are cached apart per (L, n), so a
solve builds only the former.
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
    XI1, XI2 = np.meshgrid(xi, xi)
    return XI1 + 1j * XI2


def _frozen(*grids):
    for m in grids:
        m.flags.writeable = False
    return grids


@lru_cache(maxsize=16)
def _kernels(L: float, n: int):
    """The T and S multipliers, zero at zeta = 0."""
    zeta = _frequencies(L, n)
    nz = zeta != 0
    mult_T = np.zeros_like(zeta)
    mult_T[nz] = -2j / zeta[nz]
    mult_S = np.zeros_like(zeta)
    mult_S[nz] = np.conj(zeta[nz]) / zeta[nz]
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
    """
    Z = coordinates(L, n)
    sigma = L / 4.0
    r2 = np.abs(Z) ** 2
    g = np.exp(-r2 / sigma**2)
    one_minus_e = -np.expm1(-r2 / sigma**2)
    Zs = np.where(Z == 0, 1.0, Z)
    Tg = np.where(Z == 0, 0.0, sigma**2 * one_minus_e / Zs)
    Sg = np.where(
        Z == 0,
        0.0,
        (np.conj(Z) * (1.0 - one_minus_e) * Zs - sigma**2 * one_minus_e) / Zs**2,
    )
    g_hat = fft.fft2(g)
    mult_T, mult_S = _kernels(L, n)
    R_T = Tg - fft.ifft2(mult_T * g_hat)
    R_S = Sg - fft.ifft2(mult_S * g_hat)
    return (*_frozen(R_T, R_S), 1.0 / (np.pi * sigma**2))


def _check_support(data: np.ndarray, L: float):
    """Support extent of the samples on [-L, L]^2 must not exceed half the box side.

    The extent counts rows and columns holding a sample above
    SUPPORT_EPS times the peak. Returns the slices (rows, cols) of the
    box data[rows, cols] outside which every sample is exactly zero;
    the column maxima are taken over the nonzero rows only, since every
    other row is zero.
    """
    mag = np.abs(data)
    rows = mag.max(axis=1)
    peak = rows.max()
    if peak == 0.0:
        return slice(0, 0), slice(0, 0)
    band = np.flatnonzero(rows)
    j0, j1 = int(band[0]), int(band[-1]) + 1
    cols = mag[j0:j1].max(axis=0)
    thresh = SUPPORT_EPS * peak
    jj = np.flatnonzero(rows > thresh)
    kk = np.flatnonzero(cols > thresh)
    h = 2.0 * L / data.shape[0]
    extent = h * max(kk[-1] - kk[0], jj[-1] - jj[0])
    if extent > L + h / 2:
        raise SupportTooLarge(
            f"support extent {extent:.3g} exceeds half the box side {L:.3g}; enlarge the box"
        )
    box_cols = np.flatnonzero(cols)
    return slice(j0, j1), slice(int(box_cols[0]), int(box_cols[-1]) + 1)


def _spectrum(n: int) -> np.ndarray:
    """A zeroed n x n complex grid whose rows lie n + 4 samples apart."""
    return np.zeros((n, n + 4), dtype=complex)[:, :n]


def _slug_carried(data: np.ndarray, L: float, which: int, band: slice, box=None):
    """T (which=0) or S (which=1) of data on `box`; unchecked: data must vanish off `band` rows.

    With no box, the whole grid as a new contiguous array; with one, a view
    of the call's spectrum."""
    n = data.shape[0]
    spec = _spectrum(n)
    fft.fft(data[band], axis=1, out=spec[band])
    fft.fft(spec, axis=0, out=spec)
    R_T, R_S, per_mass = _slug(L, n)
    c = spec[0, 0] * (2.0 * L / n) ** 2 * per_mass  # the zero frequency is the mass
    spec *= _kernels(L, n)[which]
    fft.ifft(spec, axis=0, out=spec)
    if box is None:
        out, box = fft.ifft(spec, axis=1), (slice(None),) * 2
    else:
        rows = spec[box[0]]
        out = fft.ifft(rows, axis=1, out=rows)[:, box[1]]
    out += c * (R_T, R_S)[which][box]
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
