"""Post-hoc certification of computed solutions.

Residual of the untruncated equation, Jacobian sign statistics,
injectivity (orientation flips plus a winding-number cover test over
the image), discrete inverse construction with inner-dilatation
integrals, and the log-Holder continuity fit.

Each certificate that needs the domain takes the spec and reads its
support radius; a Solution carries none.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .coefficients import CoefficientSpec, _support_geometry, _support_samples
from .dilatation import elliptic_mask, inner_dilatation_p, jacobian
from .errors import EmptyCompact, NotInvertible
from .grid import coordinates, l2_norm
from .linear_solver import Solution


# ---------------------------------------------------------------------------
# residual

def residual(solution: Solution, spec: CoefficientSpec, ppm=None):
    """Pointwise f_zbar - mu(z, f) f_z - nu(z, f) conj(f_z) on the coefficient
    support, and its norms there.

    Samples where the raw coefficient is degenerate (see
    dilatation.elliptic_mask; a measure-zero set for admissible
    coefficients) carry no area in the a.e. integral; they are excluded
    from the norms and counted in the report. The solver's quasi_residual
    is this l2_rel. Returns (res, norms): res is the residual at the
    support samples, in the order of their grid indices, and may be
    non-finite where the coefficient is. The heatmap of |res| over the
    whole grid, zero off the support and at degenerate samples, goes to
    the path `ppm` when given; only then is a grid built.
    """
    f = solution.f
    support, mu, nu = _support_samples(spec, f.L, f.data)
    fz = solution.fz.data.ravel()[support.index]
    res = solution.fzbar.data.ravel()[support.index] - mu * fz - nu * np.conj(fz)
    good = elliptic_mask(mu, nu)
    norms = {
        "l2_rel": l2_norm(res[good]) / max(l2_norm(fz), 1e-300),
        "sup": float(np.abs(res[good]).max()) if good.any() else 0.0,
        "degenerate_samples": int(good.size - good.sum()),
    }
    if ppm is not None:
        heat = np.zeros(f.n * f.n)
        heat[support.index] = np.where(good, np.abs(res), 0.0)
        write_ppm(heat.reshape(f.n, f.n), ppm)
    return res, norms


# ---------------------------------------------------------------------------
# jacobian statistics

def jacobian_stats(solution: Solution, spec: CoefficientSpec, ppm=None):
    """min J and the fraction of samples with J <= 0 over the spec's support;
    the heatmap of J over the whole grid goes to the path `ppm` when given,
    and only then is J formed off the support."""
    fz, fzbar = solution.fz.data, solution.fzbar.data
    index = _support_geometry(solution.f.L, solution.f.n, spec.support_radius).index
    if ppm is None:
        J = jacobian(fz.ravel()[index], fzbar.ravel()[index])
    else:
        J = jacobian(fz, fzbar)
        write_ppm(J, ppm)
        J = J.ravel()[index]
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


def _cross(u, v):
    return u.real * v.imag - u.imag * v.real


def _runs(count):
    """Runs of the given lengths laid end to end: each element's run and its
    offset within that run."""
    run = np.repeat(np.arange(len(count)), count)
    return run, np.arange(len(run)) - np.repeat(np.cumsum(count) - count, count)


def _boundary_polygon(f: np.ndarray) -> np.ndarray:
    """Image of the grid boundary, counterclockwise."""
    top = f[0, :-1]
    right = f[:-1, -1]
    bottom = f[-1, ::-1][:-1]
    left = f[::-1, 0][:-1]
    return np.concatenate([top, right, bottom, left])


def _winding_numbers(poly: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Winding number of the closed polygon poly about each point.

    Counted as the signed crossings of the rightward ray from the point
    (Hormann & Agathos, Comput. Geom. 20, 2001): +1 for each edge that
    crosses it upward with the point on its left, -1 for each that crosses
    it downward with the point on its right. Each crossing is decided by
    the sign of one cross product, so the count is an exact integer for
    every point off the curve.
    """
    a, b = poly, np.roll(poly, -1)
    # the points in order of y, and each edge's half-open y-range in that
    # order: the only points whose rays it can cross. Python's sort and
    # bisect find them: numpy's run nowhere else in a solve and a failing
    # verify, and paging their code in costs 0.3 MB of resident memory
    ys = points.imag.tolist()
    order = np.array(sorted(range(len(ys)), key=ys.__getitem__), dtype=np.intp)
    ys.sort()
    first = np.array([bisect_left(ys, v) for v in np.minimum(a.imag, b.imag).tolist()], np.intp)
    last = np.array([bisect_left(ys, v) for v in np.maximum(a.imag, b.imag).tolist()], np.intp)
    edge, k = _runs(last - first)
    point = order[first[edge] + k]
    sign = np.where(a.imag[edge] < b.imag[edge], 1.0, -1.0)
    crossed = sign * _cross(b[edge] - a[edge], points[point] - a[edge]) > 0.0
    return np.bincount(point[crossed], weights=sign[crossed], minlength=len(points)).astype(int)


def _near_vertices(centers, cx, cy, vertices, reach):
    """Which of the bin centers cx[k] + i cy[j] (flattened row by row) lie
    within reach of some vertex.

    The centers are evenly spaced. Each vertex tests only the centers of a
    window of bins around its own, one bin wider on each side than its
    reach spans, by the same |center - vertex| <= reach as a test against
    every center would make.
    """
    def window(c, v):
        """The indices of the centers c in each vertex's window, one row per vertex."""
        step = c[1] - c[0]
        if step == 0.0:  # a flat image: the centers coincide, and one window holds them all
            return np.broadcast_to(np.arange(len(c)), (len(v), len(c)))
        half = int(reach / step) + 2
        width = min(2 * half + 1, len(c))
        first = np.clip(np.floor((v - c[0]) / step).astype(np.intp) - half, 0, len(c) - width)
        return first[:, None] + np.arange(width)

    ix, iy = window(cx, vertices.real), window(cy, vertices.imag)
    c = iy[:, :, None] * len(cx) + ix[:, None, :]
    near = np.zeros(len(centers), dtype=bool)
    near[c[np.abs(centers[c] - vertices[:, None, None]) <= reach]] = True
    return near


def _flip_count(f: np.ndarray) -> int:
    """Number of grid triangles whose image has negative signed area."""
    flips = 0
    # 32 cell rows at a time: no temporary outgrows the memory a solve frees
    for j in range(0, f.shape[0] - 1, 32):
        g = f[j:j + 33]
        # each sample's edges to its right and upper neighbours: the
        # lower-left triangle of a cell has edges dx[j, k] and dy[j, k], and
        # the upper-right one the exact negations of dx[j + 1, k] and
        # dy[j, k + 1], whose cross product is the same
        dx = g[:, 1:] - g[:, :-1]
        dy = g[1:] - g[:-1]
        flips += sum(int((_cross(dx[rows], dy[:, cols]) < 0).sum())
                     for rows, cols in ((_LO, _LO), (_HI, _HI)))
    return flips


def injectivity_check(solution: Solution):
    """Count orientation flips and multiply-covered image regions.

    Flips are image triangles with negative signed area. The cover test
    evaluates the winding number of the image of the grid boundary at
    the centers of 48 x 48 bins over the image's bounding box that lie
    well inside the image; winding outside {0, 1} means the grid image
    overlaps itself (a fold or a multiple cover). Each winding number is
    a signed count of boundary crossings, an exact integer. PASS needs
    zero flips and zero overlap bins.
    """
    f = solution.f.data
    flips = _flip_count(f)
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
    inner = centers[~_near_vertices(centers, cx, cy, poly[::4], 2.0 * bin_diag)]
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

def _window_triangles(solution: Solution, source_mask, lo: float, hi: float):
    """Image and source vertices A, B, C, Az, Bz, Cz, as flat arrays in
    triangle order, of the masked triangles whose image box meets the
    square [lo, hi]^2."""
    f = solution.f.data
    # outcodes (Cohen-Sutherland): a box misses the square exactly when its
    # three vertices lie beyond one and the same side
    side = ((f.real < lo) * np.uint8(1) | (f.real > hi) * np.uint8(2)
            | (f.imag < lo) * np.uint8(4) | (f.imag > hi) * np.uint8(8))
    m = source_mask[:-1, :-1]
    keep = [m & ((side[a] & side[b] & side[c]) == 0) for a, b, c in _CELL_TRIANGLES]
    return tuple(np.concatenate([g[tri[v]][k] for tri, k in zip(_CELL_TRIANGLES, keep)])
                 for g in (f, solution.f.z) for v in range(3))


def _locate(solution: Solution, w_half: float, image_n: int, source_mask):
    """Preimages of the lattice (-w_half + hw k) + i (-w_half + hw j), hw = 2 w_half / image_n.

    Each lattice point [j, k] takes the lowest-numbered masked triangle
    that contains it (barycentric test, 1e-12 slack); others stay NaN.
    Only the masked triangles whose image box meets the lattice's square
    widened by one lattice step are read off the grid, in their order. A
    triangle left out lies more than a step from every lattice point, so
    its box, even with the 1e-9-step slack of its index range, holds none.
    """
    hw = 2.0 * w_half / image_n
    ax = -w_half + hw * np.arange(image_n)
    A, B, C, Az, Bz, Cz = _window_triangles(solution, source_mask, ax[0] - hw, ax[-1] + hw)

    def index_range(coord):
        """First lattice index and count per bounding box; too wide, never too narrow."""
        first = np.clip(np.ceil((coord.min(axis=0) + w_half) / hw - 1e-9), 0, image_n)
        last = np.clip(np.floor((coord.max(axis=0) + w_half) / hw + 1e-9), -1, image_n - 1)
        return first.astype(np.intp), np.maximum(last - first + 1, 0).astype(np.intp)

    P = np.stack([A, B, C])
    (x0, nx), (y0, ny) = index_range(P.real), index_range(P.imag)
    t, k = _runs(nx * ny)  # candidate pairs in increasing triangle order
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


@lru_cache(maxsize=16)
def _audit_geometry(L: float, n: int, radius: float):
    """The inverse audit's samples of the (L, n) grid, read-only: the flat
    indices of the ring within two steps of the support circle (of the
    outer rim if none lies there), and the source mask |z| <= min(1.5
    radius, 0.75 L)."""
    r = np.abs(coordinates(L, n))
    ring = np.abs(r - radius) < 2 * (2.0 * L / n)
    if not ring.any():
        ring = r > 0.9 * r.max()
    ring = np.flatnonzero(ring)
    source_mask = r <= min(radius * 1.5, L * 0.75)
    for array in (ring, source_mask):
        array.flags.writeable = False
    return ring, source_mask


def inverse_dilatation_audit(solution: Solution, spec: CoefficientSpec, p: float,
                             injectivity=None):
    """Integrate K_{I,p} of the discrete inverse.

    Builds g = f^{-1} on a 96 x 96 lattice over the square of half-side
    0.7 min |f| on the spec's support circle by point location in the
    triangles whose image box meets that square (see _locate),
    differentiates by centered differences, and Riemann-sums the inner
    dilatation. Raises NotInvertible if the solution fails the
    injectivity check, which runs here unless its result is passed in.
    """
    if not 1.0 < p <= 2.0:
        raise ValueError(f"order p must lie in (1, 2], got {p}")
    check = injectivity_check(solution) if injectivity is None else injectivity
    if not check["passed"]:
        raise NotInvertible(f"injectivity check failed: {check}")
    ring, source_mask = _audit_geometry(solution.f.L, solution.f.n, spec.support_radius)
    w_half = 0.7 * float(np.abs(solution.f.data.ravel()[ring]).min())
    hw = 2.0 * w_half / 96
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


def verification_report(solution: Solution, spec: CoefficientSpec,
                        heatmaps=None) -> VerificationReport:
    """Full verification battery: residual, Jacobian, injectivity, and the inverse
    audit at p = 2 whenever injectivity passes.

    With a directory `heatmaps`, |residual| and J are also written there as
    residual.ppm and jacobian.ppm; the report is the same either way.
    """
    def ppm(name):
        return None if heatmaps is None else Path(heatmaps) / name

    _, norms = residual(solution, spec, ppm("residual.ppm"))
    report = VerificationReport(
        residual_l2_rel=norms["l2_rel"],
        residual_sup=norms["sup"],
        degenerate_samples=norms["degenerate_samples"],
        jacobian=jacobian_stats(solution, spec, ppm("jacobian.ppm")),
        injectivity=injectivity_check(solution),
    )
    if report.injectivity["passed"]:
        report.inverse = inverse_dilatation_audit(solution, spec, p=2.0,
                                                  injectivity=report.injectivity)
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
