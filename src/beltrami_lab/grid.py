"""Uniform complex grids on the square box [-L, L]^2.

Sample (j, k) of an n x n field sits at z = (-L + k*h) + i*(-L + j*h)
with h = 2L/n, row-major, so axis 0 is the imaginary direction. n must
be a power of two >= 16 (the transforms are FFT based).

Binary format ("BLGF"): 16-byte header = magic "BLGF" + u32 n + f64 L,
little endian, followed by n*n complex128 samples row-major.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAGIC = b"BLGF"


@lru_cache(maxsize=32)
def coordinates(L: float, n: int) -> np.ndarray:
    """Complex sample coordinates for the (L, n) grid, cached and read-only."""
    h = 2.0 * L / n
    ax = -L + h * np.arange(n)
    X, Y = np.meshgrid(ax, ax)
    Z = X + 1j * Y
    Z.flags.writeable = False
    return Z


def l2_norm(data: np.ndarray) -> float:
    """Euclidean norm of complex samples, summed by einsum over the float view.

    np.linalg.norm goes through BLAS dot products, whose idle threads
    spin between the small calls of the Picard loop; einsum does not.
    """
    v = np.ascontiguousarray(data, dtype=complex).view(float).ravel()
    return float(np.sqrt(np.einsum("i,i->", v, v)))


def _validate_geometry(L, n):
    """Reject a grid size that is not a power of two >= 16, or a box half-side <= 0."""
    if not (n >= 16 and n & (n - 1) == 0):
        raise ValueError(f"grid size must be a power of two >= 16, got {n}")
    if L <= 0:
        raise ValueError(f"box half-side must be positive, got {L}")


def _validate(L, n, data):
    _validate_geometry(L, n)
    if data.shape != (n, n):
        raise ValueError(f"data shape {data.shape} does not match n={n}")
    # a complex sample is finite exactly when both of its parts are; the
    # float view checks them about twice as fast as complex isfinite
    if not np.isfinite(data.view(float)).all():
        raise ValueError("grid samples must all be finite")


@dataclass(frozen=True)
class GridField:
    """Complex samples over [-L, L]^2; immutable after construction."""

    L: float
    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=complex)
        _validate(self.L, data.shape[0], data)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def z(self) -> np.ndarray:
        return coordinates(self.L, self.n)

    def same_geometry(self, other: "GridField") -> bool:
        return self.L == other.L and self.n == other.n

    def interp(self, points):
        """Bilinear interpolation at complex points inside the box."""
        return bilinear(self.data, self.L, points)

    def norm_l2(self) -> float:
        """Area-weighted L2 norm, sqrt(sum |f|^2 h^2)."""
        return l2_norm(self.data) * self.h

    def save(self, path):
        """Write the BLGF header, then the samples straight from their own
        buffer (a copy only on a big-endian host)."""
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<Id", self.n, self.L))
            fh.write(self.data.astype("<c16", copy=False))


def bilinear(data: np.ndarray, L: float, points):
    """Bilinear interpolation of the samples of the (L, n) grid at complex points inside the box."""
    n = data.shape[0]
    h = 2.0 * L / n
    pts = np.asarray(points, dtype=complex)
    x = (pts.real + L) / h
    y = (pts.imag + L) / h
    k0 = np.clip(np.floor(x).astype(int), 0, n - 2)
    j0 = np.clip(np.floor(y).astype(int), 0, n - 2)
    tx = x - k0
    ty = y - j0
    return (
        (1 - ty) * (1 - tx) * data[j0, k0]
        + (1 - ty) * tx * data[j0, k0 + 1]
        + ty * (1 - tx) * data[j0 + 1, k0]
        + ty * tx * data[j0 + 1, k0 + 1]
    )


def zeros(L: float, n: int) -> GridField:
    return GridField(L, np.zeros((n, n), dtype=complex))


def from_function(L: float, n: int, fn) -> GridField:
    """Sample fn(z) on the grid; fn must accept a complex ndarray."""
    return GridField(L, np.asarray(fn(coordinates(L, n)), dtype=complex))


def load(path) -> GridField:
    """Read a BLGF file; a ValueError names the file if it is not a valid grid.

    The header and the file's size are checked before any sample is read,
    and the samples are read straight into the grid's array.
    """
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise ValueError(f"{path}: header of {len(header)} bytes, not 16")
        if header[:4] != MAGIC:
            raise ValueError(f"{path}: bad magic {header[:4]!r}")
        n, L = struct.unpack("<Id", header[4:])
        size = os.fstat(fh.fileno()).st_size - 16
        if size != 16 * n * n:
            raise ValueError(f"{path}: {size} bytes of samples, not 16*{n}^2")
        data = np.fromfile(fh, dtype="<c16", count=n * n).reshape(n, n)
    try:
        return GridField(L, data)
    except ValueError as exc:  # a whole header can still describe no valid grid
        raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class DerivativePair:
    """Wirtinger derivative grids f_z and f_zbar of one source field."""

    fz: GridField
    fzbar: GridField

    def __post_init__(self):
        if not self.fz.same_geometry(self.fzbar):
            raise ValueError("fz and fzbar must share box and resolution")
