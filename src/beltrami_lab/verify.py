"""Post-hoc certification of computed solutions.

Residual of the untruncated equation, Jacobian sign statistics,
injectivity (orientation flips plus a winding-number cover test over
the image), discrete inverse construction with inner-dilatation
integrals, and the log-Holder continuity fit.

Each certificate that needs the domain takes the spec and reads its
support radius; a Solution carries none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .coefficients import CoefficientSpec, _support_index, _support_samples
from .dilatation import elliptic_mask, inner_dilatation_p, jacobian
from .errors import EmptyCompact, NotInvertible
from .grid import GridField, l2_norm
from .linear_solver import Solution


# ---------------------------------------------------------------------------
# residual

def residual(solution: Solution, spec: CoefficientSpec):
    """Pointwise f_zbar - mu(z, f) f_z - nu(z, f) conj(f_z) and its norms.

    Norms are taken over the coefficient support. Samples where the raw
    coefficient is degenerate (see dilatation.elliptic_mask; a
    measure-zero set for admissible coefficients) carry no area in the
    a.e. integral; they are excluded from the norms and counted in the
    report. The solver's quasi_residual is this l2_rel.
    """
    f = solution.f
    # the returned grid outlives the support-sized temporaries; allocating
    # it first keeps it from splitting the heap space they free
    out = np.zeros(f.data.shape, dtype=complex)
    inside, mu, nu = _support_samples(spec, f.L, f.data)
    fz = solution.fz.data.flat[inside]
    res = solution.fzbar.data.flat[inside] - mu * fz - nu * np.conj(fz)
    good = elliptic_mask(mu, nu)
    norms = {
        "l2_rel": l2_norm(res[good]) / max(l2_norm(fz), 1e-300),
        "sup": float(np.abs(res[good]).max()) if good.any() else 0.0,
        "degenerate_samples": int(good.size - good.sum()),
    }
    out.flat[inside] = np.where(good, res, 0.0)
    return GridField(f.L, out), norms


# ---------------------------------------------------------------------------
# jacobian statistics

def jacobian_stats(solution: Solution, spec: CoefficientSpec, ppm=None):
    """min J and the fraction of samples with J <= 0 over the spec's support;
    the heatmap of J over the whole grid goes to the path `ppm` when given."""
    J = jacobian(solution.fz.data, solution.fzbar.data)
    if ppm is not None:
        write_ppm(J, ppm)
    J = J.flat[_support_index(solution.f.L, solution.f.n, spec.support_radius)]
    return {
        "min": float(J.min()),
        "fraction_nonpositive": float((J <= 0.0).mean()),
    }


# ---------------------------------------------------------------------------
# injectivity

_LO, _HI = slice(None, -1), slice(1, None)
# the two triangles of each grid cell, as (A, B, C) vertex slices of a grid:
# lower-left, then upper-right. Triangles are numbered in that order, every
# lower-left one (cells in row-major order) before any upper-right one.
_CELL_TRIANGLES = (
    ((_LO, _LO), (_LO, _HI), (_HI, _LO)),
    ((_HI, _HI), (_HI, _LO), (_LO, _HI)),
)


def _triangles(solution: Solution):
    """Split every grid cell into two triangles; return image and source vertices
    A, B, C, Az, Bz, Cz as flat arrays in triangle order."""
    return tuple(np.concatenate([g[tri[v]].ravel() for tri in _CELL_TRIANGLES])
                 for g in (solution.f.data, solution.f.z) for v in range(3))


def _signed_area2(A, B, C):
    u = B - A
    v = C - A
    return u.real * v.imag - u.imag * v.real


def _boundary_polygon(f: np.ndarray) -> np.ndarray:
    """Image of the grid boundary, counterclockwise."""
    top = f[0, :-1]
    right = f[:-1, -1]
    bottom = f[-1, ::-1][:-1]
    left = f[::-1, 0][:-1]
    return np.concatenate([top, right, bottom, left])


def _winding_numbers(poly: np.ndarray, points: np.ndarray) -> np.ndarray:
    closed = np.append(poly, poly[0])
    w = np.zeros(len(points))
    for a, b in zip(closed[:-1], closed[1:]):
        w += np.angle((b - points) / (a - points))
    return np.rint(w / (2.0 * np.pi)).astype(int)


def injectivity_check(solution: Solution):
    """Count orientation flips and multiply-covered image regions.

    Flips are image triangles with negative signed area. The cover test
    evaluates the winding number of the image of the grid boundary at
    the centers of 48 x 48 bins over the image's bounding box that lie
    well inside the image; winding outside {0, 1} means the grid image
    overlaps itself (a fold or a multiple cover). PASS needs zero flips
    and zero overlap bins.
    """
    # the triangles read off the grid in place, not from concatenated copies
    f = solution.f.data
    flips = sum(int((_signed_area2(*(f[v] for v in tri)) < 0).sum()) for tri in _CELL_TRIANGLES)

    poly = _boundary_polygon(f)
    lo_x, hi_x = poly.real.min(), poly.real.max()
    lo_y, hi_y = poly.imag.min(), poly.imag.max()
    bx = np.linspace(lo_x, hi_x, 49)
    by = np.linspace(lo_y, hi_y, 49)
    cx = 0.5 * (bx[:-1] + bx[1:])
    cy = 0.5 * (by[:-1] + by[1:])
    CX, CY = np.meshgrid(cx, cy)
    centers = (CX + 1j * CY).ravel()
    # drop centers too close to the boundary curve for a stable winding number
    bin_diag = np.hypot(bx[1] - bx[0], by[1] - by[0])
    # one vertex at a time: a (centers x vertices) temporary is megabytes,
    # and whether the allocator serves it from fresh pages varies per run
    dist = np.full(len(centers), np.inf)
    for p in poly[::4]:
        np.minimum(dist, np.abs(centers - p), out=dist)
    inner = centers[dist > 2.0 * bin_diag]
    if len(inner):
        winding = _winding_numbers(poly[::2], inner)
        overlap_bins = int(np.sum((winding != 0) & (winding != 1)))
    else:
        overlap_bins = 0
    return {
        "orientation_flips": flips,
        "folded_cell_count": overlap_bins,
        "passed": flips == 0 and overlap_bins == 0,
    }


# ---------------------------------------------------------------------------
# discrete inverse and its dilatation integrals

def _locate(solution: Solution, w_half: float, image_n: int, source_mask):
    """Preimages of the lattice (-w_half + hw k) + i (-w_half + hw j), hw = 2 w_half / image_n.

    Each lattice point [j, k] takes the lowest-numbered masked triangle
    that contains it (barycentric test, 1e-12 slack); others stay NaN.
    """
    # the masked triangles only, in triangle order: nothing unmasked is copied
    m = source_mask[:-1, :-1]
    A, B, C, Az, Bz, Cz = (np.concatenate([g[tri[v]][m] for tri in _CELL_TRIANGLES])
                           for g in (solution.f.data, solution.f.z) for v in range(3))
    hw = 2.0 * w_half / image_n
    ax = -w_half + hw * np.arange(image_n)

    def index_range(coord):
        """First lattice index and count per bounding box; too wide, never too narrow."""
        first = np.clip(np.ceil((coord.min(axis=0) + w_half) / hw - 1e-9), 0, image_n)
        last = np.clip(np.floor((coord.max(axis=0) + w_half) / hw + 1e-9), -1, image_n - 1)
        return first.astype(np.intp), np.maximum(last - first + 1, 0).astype(np.intp)

    P = np.stack([A, B, C])
    (x0, nx), (y0, ny) = index_range(P.real), index_range(P.imag)
    count = nx * ny
    t = np.repeat(np.arange(len(A)), count)  # candidate pairs in increasing triangle order
    k = np.arange(len(t)) - np.repeat(np.cumsum(count) - count, count)
    ix = x0[t] + k % nx[t]
    iy = y0[t] + k // nx[t]
    v0 = B[t] - A[t]
    v1 = C[t] - A[t]
    v2r = ax[ix] - A.real[t]
    v2i = ax[iy] - A.imag[t]
    den = v0.real * v1.imag - v0.imag * v1.real
    with np.errstate(divide="ignore", invalid="ignore"):
        a = (v2r * v1.imag - v2i * v1.real) / den
        b = (v0.real * v2i - v0.imag * v2r) / den
    inside = (den != 0.0) & (a >= -1e-12) & (b >= -1e-12) & (a + b <= 1.0 + 1e-12)
    points, first = np.unique((iy * image_n + ix)[inside], return_index=True)
    hit = np.flatnonzero(inside)[first]
    th = t[hit]

    out = np.full(image_n * image_n, np.nan + 0j)
    out[points] = Az[th] + a[hit] * (Bz[th] - Az[th]) + b[hit] * (Cz[th] - Az[th])
    return out.reshape(image_n, image_n)


def inverse_dilatation_audit(solution: Solution, spec: CoefficientSpec, p: float,
                             injectivity=None):
    """Integrate K_{I,p} of the discrete inverse.

    Builds g = f^{-1} on a 96 x 96 lattice over the square of half-side
    0.7 min |f| on the spec's support circle by triangle point location,
    differentiates by centered differences, and Riemann-sums the inner
    dilatation. Raises NotInvertible if the solution fails the
    injectivity check, which runs here unless its result is passed in.
    """
    if not 1.0 < p <= 2.0:
        raise ValueError(f"order p must lie in (1, 2], got {p}")
    check = injectivity_check(solution) if injectivity is None else injectivity
    if not check["passed"]:
        raise NotInvertible(f"injectivity check failed: {check}")
    Z = solution.f.z
    ring = np.abs(np.abs(Z) - spec.support_radius) < 2 * solution.f.h
    if not ring.any():
        ring = np.abs(Z) > 0.9 * np.abs(Z).max()
    w_half = 0.7 * float(np.abs(solution.f.data[ring]).min())
    hw = 2.0 * w_half / 96
    source_mask = np.abs(Z) <= min(spec.support_radius * 1.5, solution.f.L * 0.75)
    g = _locate(solution, w_half, 96, source_mask)
    located = np.isfinite(g.real)
    gy, gx = np.gradient(g, hw, edge_order=1)
    gw = 0.5 * (gx - 1j * gy)
    gwb = 0.5 * (gx + 1j * gy)
    interior = located.copy()
    interior[0, :] = interior[-1, :] = interior[:, 0] = interior[:, -1] = False
    interior &= np.isfinite(gw.real) & np.isfinite(gwb.real)
    KIp = inner_dilatation_p(gw[interior], gwb[interior], p)
    KI2 = inner_dilatation_p(gw[interior], gwb[interior], 2.0)
    area = float(interior.sum()) * hw * hw
    return {
        "p": p,
        "integral_KIp": float(np.sum(KIp) * hw * hw),
        "integral_KI2": float(np.sum(KI2) * hw * hw),
        "window_area": area,
        "mean_KIp": float(np.mean(KIp)),
        "max_KIp": float(np.max(KIp)),
        "located_fraction": float(located.mean()),
    }


# ---------------------------------------------------------------------------
# log-Holder continuity fit

def continuity_modulus_fit(solution: Solution, spec: CoefficientSpec, q_l1_norm: float,
                           margin: float):
    """Fit the smallest C with |f(x) - f(y)| <= C sqrt(q_l1_norm) / log^{1/2}(1 + r0/(2|x-y|)).

    200 pairs (seed 0) are sampled inside the compact K = {|z| <=
    support_radius - margin} at each of 5 dyadic separation scales;
    r0 = margin is the distance from K to the support boundary.
    """
    if q_l1_norm <= 0:
        raise ValueError("q_l1_norm must be positive")
    r_compact = spec.support_radius - margin
    if r_compact <= 0:
        raise EmptyCompact(f"margin {margin} leaves no compact inside the support")
    rng = np.random.default_rng(0)
    pairs = 200
    r0 = margin
    per_scale = []
    for j in range(1, 6):
        # separations scale with the compact, not with r0, so shrinking the
        # compact can only shrink the fitted constant
        sep = r_compact * 2.0 ** -j
        rad = (r_compact - sep) * np.sqrt(rng.uniform(0, 1, pairs))
        ang = rng.uniform(0, 2 * np.pi, pairs)
        x = rad * np.exp(1j * ang)
        y = x + sep * np.exp(1j * rng.uniform(0, 2 * np.pi, pairs))
        keep = np.abs(y) <= r_compact
        x, y = x[keep], y[keep]
        df = np.abs(solution.f.interp(x) - solution.f.interp(y))
        bound_shape = np.sqrt(q_l1_norm) / np.sqrt(np.log1p(r0 / (2.0 * sep)))
        per_scale.append({"separation": sep, "C": float(df.max() / bound_shape)})
    C = max(row["C"] for row in per_scale)
    return {"C": C, "r0": r0, "scales": per_scale}


# ---------------------------------------------------------------------------
# report container and heatmaps

@dataclass
class VerificationReport:
    residual_l2_rel: float
    residual_sup: float
    degenerate_samples: int
    jacobian: dict
    injectivity: dict
    inverse: dict = field(default_factory=dict)
    continuity: dict = field(default_factory=dict)


def verification_report(solution: Solution, spec: CoefficientSpec, q_l1_norm: float = None,
                        with_inverse: bool = True, heatmaps=None) -> VerificationReport:
    """Full verification battery: inverse audit at p = 2, continuity fit at margin 0.5.

    With a directory `heatmaps`, |residual| and J are also written there as
    residual.ppm and jacobian.ppm, from the same grids the report reads.
    """
    res_field, norms = residual(solution, spec)
    if heatmaps is not None:
        write_ppm(np.abs(res_field.data), Path(heatmaps) / "residual.ppm")
    report = VerificationReport(
        residual_l2_rel=norms["l2_rel"],
        residual_sup=norms["sup"],
        degenerate_samples=norms["degenerate_samples"],
        jacobian=jacobian_stats(
            solution, spec, None if heatmaps is None else Path(heatmaps) / "jacobian.ppm"),
        injectivity=injectivity_check(solution),
    )
    if with_inverse and report.injectivity["passed"]:
        report.inverse = inverse_dilatation_audit(solution, spec, p=2.0,
                                                  injectivity=report.injectivity)
    if q_l1_norm:
        report.continuity = continuity_modulus_fit(solution, spec, q_l1_norm, 0.5)
    return report


def write_ppm(values: np.ndarray, path):
    """Dump a real-valued grid as a grayscale P6 heatmap."""
    vals = np.asarray(values, dtype=float)
    finite = np.isfinite(vals)
    lo = vals[finite].min() if finite.any() else 0.0
    hi = vals[finite].max() if finite.any() else 1.0
    scale = 255.0 / (hi - lo) if hi > lo else 0.0
    gray = np.where(finite, (vals - lo) * scale, 0.0).astype(np.uint8)
    rgb = np.repeat(gray[::-1, :, None], 3, axis=2)  # flip so +y points up
    with open(path, "wb") as fh:
        fh.write(f"P6 {vals.shape[1]} {vals.shape[0]} 255\n".encode())
        fh.write(rgb.tobytes())
