import numpy as np
import pytest

from beltrami_lab import coefficients, quasilinear, verify
from beltrami_lab.coefficients import (
    CATALOG,
    CoefficientSpec,
    builtin_catalog,
    coefficient_fields,
)
from beltrami_lab.dilatation import elliptic_mask, jacobian
from beltrami_lab.errors import EmptyCompact, NotInvertible
from beltrami_lab.grid import coordinates, from_function, l2_norm
from beltrami_lab.linear_solver import IterationTrace, Normalization, Solution, _write_json
from beltrami_lab.quasilinear import SolverConfig
from beltrami_lab.transforms import derivatives
from beltrami_lab.verify import (
    _locate,
    continuity_modulus_fit,
    injectivity_check,
    inverse_dilatation_audit,
    jacobian_stats,
    residual,
    verification_report,
    write_ppm,
)

L, N = 2.0, 128


def make_solution(fn, fz_fn=None, fzbar_fn=None, n=N):
    """Wrap analytic f (and optional analytic derivatives) as a Solution."""
    f = from_function(L, n, fn)
    if fz_fn is None or fzbar_fn is None:
        pair = derivatives(f, method="fd")
        fz = pair.fz if fz_fn is None else from_function(L, n, fz_fn)
        fzbar = pair.fzbar if fzbar_fn is None else from_function(L, n, fzbar_fn)
    else:
        fz = from_function(L, n, fz_fn)
        fzbar = from_function(L, n, fzbar_fn)
    return Solution(
        f=f, fz=fz, fzbar=fzbar, trace=IterationTrace(),
        normalization=Normalization(0j, 1.0, 0.0),
    )


def _triangles(solution):
    """Split every grid cell into two triangles (verify._CELL_TRIANGLES); return
    image and source vertices A, B, C, Az, Bz, Cz as flat arrays in triangle
    order: the oracle of the flip count and of the inverse's point location."""
    return tuple(np.concatenate([g[tri[v]].ravel() for tri in verify._CELL_TRIANGLES])
                 for g in (solution.f.data, solution.f.z) for v in range(3))


def _signed_area2(A, B, C):
    return verify._cross(B - A, C - A)


def zero_spec():
    return CoefficientSpec(mu="0", label="zero")


def affine_solution(k=0.5, n=N):
    return make_solution(
        lambda z: z + k * np.conj(z),
        lambda z: np.ones_like(z),
        lambda z: np.full_like(z, k),
        n=n,
    )


# ---------------------------------------------------------------------------
# residual

def test_residual_identity_zero_spec():
    sol = make_solution(lambda z: z, lambda z: np.ones_like(z), lambda z: np.zeros_like(z))
    _, norms = residual(sol, zero_spec())
    assert norms["l2_rel"] == 0.0
    assert norms["sup"] == 0.0


def test_residual_closed_form_constant_disk():
    # analytic solution of mu = 0.5 chi_D with analytic derivative grids
    def f(z):
        zs = np.where(z == 0, 1, z)
        return np.where(np.abs(z) <= 1, z + 0.5 * np.conj(z), z + 0.5 / zs)

    def fz(z):
        zs = np.where(z == 0, 1, z)
        return np.where(np.abs(z) <= 1, 1.0 + 0 * z, 1 - 0.5 / zs**2)

    def fzbar(z):
        return np.where(np.abs(z) <= 1, 0.5 + 0 * z, 0 * z)

    sol = make_solution(f, fz, fzbar, n=256)
    _, norms = residual(sol, builtin_catalog("constant-disk", [0.5]))
    assert norms["l2_rel"] <= 1e-2


def test_residual_corrupted_solution_flagged():
    # scaling f by 1.1 inside the disk breaks the equation along the rim
    def f(z):
        zs = np.where(z == 0, 1, z)
        base = np.where(np.abs(z) <= 1, z + 0.5 * np.conj(z), z + 0.5 / zs)
        return np.where(np.abs(z) <= 1, 1.1 * base, base)

    field = from_function(L, 256, f)
    pair = derivatives(field, method="fd")
    sol = Solution(
        f=field, fz=pair.fz, fzbar=pair.fzbar, trace=IterationTrace(),
        normalization=Normalization(0j, 1.0, 0.0),
    )
    _, norms = residual(sol, builtin_catalog("constant-disk", [0.5]))
    assert norms["l2_rel"] > 1e-1


CATALOG_PARAMS = {"constant-disk": [0.5], "radial-power": [0.9, 1.0], "w-damped-disk": [0.9]}


def full_grid_residual(solution, spec):
    """The residual with the coefficients sampled on the whole grid: the raw
    residual grid, the mask of the support's elliptic samples and the norms."""
    Z = solution.f.z
    mu, nu = coefficient_fields(spec, Z, solution.f.data)
    res = solution.fzbar.data - mu * solution.fz.data - nu * np.conj(solution.fz.data)
    support = np.abs(Z) <= spec.support_radius
    good = support & elliptic_mask(mu, nu)
    norms = {
        "l2_rel": l2_norm(res[good]) / max(l2_norm(solution.fz.data[support]), 1e-300),
        "sup": float(np.abs(res[good]).max()) if good.any() else 0.0,
        "degenerate_samples": int(support.sum() - good.sum()),
    }
    return res, good, norms


def wavy_solution():
    return make_solution(lambda z: z + 0.3 * np.conj(z) * np.exp(-np.abs(z) ** 2), n=64)


@pytest.mark.parametrize("entry", sorted(CATALOG))
def test_residual_equals_full_grid_sampling(entry, tmp_path):
    # sampling inside the support only must not change a bit of the norms,
    # of the residual on the support or of the heatmap over the whole grid
    spec = builtin_catalog(entry, CATALOG_PARAMS.get(entry, []))
    sol = wavy_solution()
    coefficients._support_polar.cache_clear()
    res, norms = residual(sol, spec, ppm=tmp_path / "residual.ppm")
    # r and theta of the support samples are built only for a spec that reads them
    reads_polar = bool(spec.variables & {"r", "theta"})
    assert coefficients._support_polar.cache_info().currsize == reads_polar
    ref, good, ref_norms = full_grid_residual(sol, spec)
    assert norms == ref_norms
    assert res.tobytes() == ref[np.abs(sol.f.z) <= spec.support_radius].tobytes()
    write_ppm(np.abs(np.where(good, ref, 0.0)), tmp_path / "reference.ppm")
    assert (tmp_path / "residual.ppm").read_bytes() == (tmp_path / "reference.ppm").read_bytes()
    assert residual(sol, spec)[1] == norms


@pytest.mark.parametrize("entry", sorted(CATALOG))
def test_jacobian_stats_equal_full_grid(entry, tmp_path):
    # J formed on the support samples only gives the statistics of the whole
    # grid's J read there, bit for bit; the heatmap is the whole grid's
    spec = builtin_catalog(entry, CATALOG_PARAMS.get(entry, []))
    sol = wavy_solution()
    J = jacobian(sol.fz.data, sol.fzbar.data)
    inside = J[np.abs(sol.f.z) <= spec.support_radius]
    ref = {"min": float(inside.min()), "fraction_nonpositive": float((inside <= 0.0).mean())}
    assert jacobian_stats(sol, spec) == ref
    assert jacobian_stats(sol, spec, ppm=tmp_path / "jacobian.ppm") == ref
    write_ppm(J, tmp_path / "reference.ppm")
    assert (tmp_path / "jacobian.ppm").read_bytes() == (tmp_path / "reference.ppm").read_bytes()


def test_grid_sampling_reads_only_support_samples(monkeypatch):
    seen = []
    fields = coefficients.coefficient_fields

    def spy(spec, z, w, **kwargs):
        seen.append(np.asarray(z))
        return fields(spec, z, w, **kwargs)

    monkeypatch.setattr(coefficients, "coefficient_fields", spy)
    spec = builtin_catalog("paper-example-sec4")
    residual(make_solution(lambda z: z, n=64), spec)
    quasilinear._check_uniform_ellipticity(spec, L, 64)
    support = np.count_nonzero(np.abs(coordinates(L, 64)) <= spec.support_radius)
    assert len(seen) == 2
    for z in seen:
        assert z.size == support and np.all(np.abs(z) <= spec.support_radius)


# ---------------------------------------------------------------------------
# jacobian

def test_jacobian_stats_identity():
    sol = make_solution(lambda z: z, lambda z: np.ones_like(z), lambda z: np.zeros_like(z))
    stats = jacobian_stats(sol, zero_spec())
    assert stats["min"] == pytest.approx(1.0)
    assert stats["fraction_nonpositive"] == 0.0


def test_jacobian_stats_affine():
    stats = jacobian_stats(affine_solution(0.5), zero_spec())
    assert stats["min"] == pytest.approx(0.75)
    assert stats["fraction_nonpositive"] == 0.0


def test_jacobian_stats_orientation_reversing():
    sol = make_solution(lambda z: np.conj(z), lambda z: np.zeros_like(z),
                        lambda z: np.ones_like(z))
    stats = jacobian_stats(sol, zero_spec())
    assert stats["fraction_nonpositive"] == 1.0


# ---------------------------------------------------------------------------
# injectivity

def test_injectivity_identity_passes():
    sol = make_solution(lambda z: z)
    out = injectivity_check(sol)
    assert out["passed"]
    assert out["orientation_flips"] == 0
    assert out["folded_cell_count"] == 0


def test_injectivity_affine_passes():
    assert injectivity_check(affine_solution(0.5))["passed"]


def test_injectivity_square_map_fails_by_double_cover():
    sol = make_solution(lambda z: z * z)
    out = injectivity_check(sol)
    assert not out["passed"]
    assert out["folded_cell_count"] > 0


def test_injectivity_conjugate_fails_by_flips():
    sol = make_solution(lambda z: np.conj(z))
    out = injectivity_check(sol)
    assert not out["passed"]
    assert out["orientation_flips"] > 0


@pytest.mark.parametrize("fn", [
    lambda z: z * z,
    lambda z: np.abs(z.real) + 1j * z.imag,
], ids=["square", "fold"])
def test_injectivity_matches_full_matrix_reference(fn, monkeypatch):
    # reference: flips from the concatenated triangles of _triangles, and the
    # winding test's points from the full (centers x vertices) distance matrix
    sol = make_solution(fn, n=32)
    A, B, C, *_ = _triangles(sol)
    poly = verify._boundary_polygon(sol.f.data)
    bx = np.linspace(poly.real.min(), poly.real.max(), 49)
    by = np.linspace(poly.imag.min(), poly.imag.max(), 49)
    CX, CY = np.meshgrid(0.5 * (bx[:-1] + bx[1:]), 0.5 * (by[:-1] + by[1:]))
    centers = (CX + 1j * CY).ravel()
    dist = np.abs(centers[:, None] - poly[None, ::4]).min(axis=1)
    inner = centers[dist > 2.0 * np.hypot(bx[1] - bx[0], by[1] - by[0])]
    seen = []
    winding = verify._winding_numbers
    monkeypatch.setattr(verify, "_winding_numbers",
                        lambda p, pts: seen.append(pts) or winding(p, pts))
    out = verify.injectivity_check(sol)
    assert out["orientation_flips"] == int((_signed_area2(A, B, C) < 0).sum())
    assert len(seen) == 1 and np.array_equal(seen[0], inner)
    assert not out["passed"]


def test_flat_image_leaves_no_center_to_wind(monkeypatch):
    # f = i Im z maps the grid onto a segment: every bin center lies on it,
    # within reach of a boundary vertex, and none is handed to the winding count
    seen = []
    monkeypatch.setattr(verify, "_winding_numbers", lambda poly, points: seen.append(points))
    out = injectivity_check(make_solution(lambda z: 1j * z.imag, n=64))
    assert seen == [] and out["folded_cell_count"] == 0


@pytest.mark.parametrize("n", [16, 64, 128])
def test_flip_count_matches_signed_areas(n):
    # a jittered identity flips triangles of both kinds, in every block of rows
    jitter = np.random.default_rng(n).normal(scale=0.4 * 2 * L / n, size=(n, n, 2))
    sol = make_solution(lambda z: z + jitter[..., 0] + 1j * jitter[..., 1], n=n)
    A, B, C, *_ = _triangles(sol)
    area2 = _signed_area2(A, B, C)
    half = len(area2) // 2  # lower-left triangles, then upper-right ones
    assert (area2[:half] < 0).sum() != (area2[half:] < 0).sum()
    assert injectivity_check(sol)["orientation_flips"] == int((area2 < 0).sum())


def angle_sum_winding(poly, points):
    """The winding number as the rounded sum of the angles each edge
    subtends: the oracle for the crossing count of _winding_numbers."""
    closed = np.append(poly, poly[0])
    w = np.zeros(len(points))
    for a, b in zip(closed[:-1], closed[1:]):
        w += np.angle((b - points) / (a - points))
    return np.rint(w / (2.0 * np.pi)).astype(int)


def curve_distance(poly, points):
    """Distance from each point to the closed polygon, edge by edge."""
    a, b, p = poly[None, :], np.roll(poly, -1)[None, :], points[:, None]
    d = b - a
    t = np.clip(((p - a) * np.conj(d)).real / np.maximum(np.abs(d) ** 2, 1e-300), 0.0, 1.0)
    return np.abs(p - (a + t * d)).min(axis=1)


def random_polygon(rng, i):
    """Seeded closed curves: star-shaped ones going once or twice round, a
    limacon with an inner loop, and random vertex clouds; either orientation,
    every other one snapped to a grid of step 1/8, which makes horizontal
    edges, repeated y-values and repeated vertices."""
    m = int(rng.integers(3, 60))
    kind = i % 4
    if kind == 3:
        poly = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
    else:
        turns = 2 if kind == 1 else 1
        theta = np.sort(rng.uniform(0, 2 * np.pi * turns, m))
        r = (0.5 + 1.2 * np.cos(theta) if kind == 2 else rng.uniform(0.2, 1.0, m))
        poly = r * np.exp(1j * theta) + complex(*rng.uniform(-0.2, 0.2, 2))
    if rng.random() < 0.5:
        poly = poly[::-1]
    if i % 2:
        poly = np.round(poly.real * 8) / 8 + 1j * np.round(poly.imag * 8) / 8
    return poly


def test_crossing_count_matches_angle_sum():
    rng = np.random.default_rng(7)
    seen = set()
    flat_edges = 0
    for i in range(300):
        poly = random_polygon(rng, i)
        points = rng.uniform(-1.3, 1.3, 300) + 1j * rng.uniform(-1.3, 1.3, 300)
        # and points on the lines through the vertices, where the half-open
        # y-ranges of the edges decide
        points[:100] = rng.uniform(-1.3, 1.3, 100) + 1j * rng.choice(poly.imag, 100)
        points = points[curve_distance(poly, points) > 1e-9]
        new = verify._winding_numbers(poly, points)
        assert new.dtype.kind == "i"
        assert np.array_equal(new, angle_sum_winding(poly, points)), i
        seen.update(new.tolist())
        flat_edges += int(np.sum(poly.imag == np.roll(poly, -1).imag))
    assert {-2, -1, 0, 1, 2} <= seen
    assert flat_edges > 0


# ---------------------------------------------------------------------------
# inverse audit

def test_inverse_audit_affine_oracle():
    # g = f^{-1} of f = z + 0.5 conj(z): |g_w| = 1/(1-k^2), |g_wb| = k/(1-k^2),
    # K_{I,2}(g) = (1+k)/(1-k) = 3 uniformly
    sol = affine_solution(0.5, n=256)
    out = inverse_dilatation_audit(sol, zero_spec(), p=2.0)
    assert out["located_fraction"] > 0.99
    assert out["mean_KIp"] == pytest.approx(3.0, rel=1e-3)
    assert out["max_KIp"] == pytest.approx(3.0, rel=1e-3)
    assert out["integral_KIp"] == pytest.approx(3.0 * out["window_area"], rel=1e-2)


def test_inverse_audit_p2_equals_map_dilatation_integral():
    sol = affine_solution(0.5, n=256)
    out = inverse_dilatation_audit(sol, zero_spec(), p=1.5)
    # K_{I,1.5} = K_{I,2} * d^{0.5} with d = |g_w| - |g_wb| = (1-k)/(1-k^2) = 2/3
    d = (1 - 0.5) / (1 - 0.25)
    assert out["mean_KIp"] == pytest.approx(3.0 * d**0.5, rel=1e-3)
    assert out["integral_KI2"] == pytest.approx(3.0 * out["window_area"], rel=1e-2)


def test_inverse_audit_rejects_non_injective():
    sol = make_solution(lambda z: z * z)
    with pytest.raises(NotInvertible):
        inverse_dilatation_audit(sol, zero_spec(), p=2.0)


def test_inverse_audit_order_range():
    with pytest.raises(ValueError):
        inverse_dilatation_audit(affine_solution(0.5), zero_spec(), p=3.0)


def test_inverse_audit_takes_callers_injectivity_result():
    with pytest.raises(NotInvertible):
        inverse_dilatation_audit(affine_solution(0.5), zero_spec(), p=2.0,
                                 injectivity={"passed": False})


def test_inverse_audit_builds_no_full_triangle_list(monkeypatch):
    # _locate reads only the masked triangles that reach the lattice off the
    # grid; the full list of _triangles is the tests' reference only
    built = []
    window_triangles = verify._window_triangles
    monkeypatch.setattr(verify, "_window_triangles",
                        lambda *args: built.append(window_triangles(*args)) or built[-1])
    out = inverse_dilatation_audit(affine_solution(0.5), zero_spec(), p=2.0)
    assert out["mean_KIp"] == pytest.approx(3.0, rel=1e-3)
    assert not hasattr(verify, "_triangles")
    assert len(built) == 1 and len(built[0][0]) < len(_triangles(affine_solution(0.5))[0]) / 2


def lattice(w_half, image_n):
    ax = -w_half + (2.0 * w_half / image_n) * np.arange(image_n)
    return ax[None, :] + 1j * ax[:, None]


def test_locate_affine_inverse():
    # f = z + 0.5 conj(z) is affine, so its piecewise-linear inverse is exact
    sol = affine_solution(0.5)
    W = lattice(0.5, 48)
    g = _locate(sol, 0.5, 48, np.abs(sol.f.z) <= 1.5)
    located = np.isfinite(g.real)
    assert located.all()
    exact = (W - 0.5 * np.conj(W)) / 0.75
    assert np.abs(g - exact)[located].max() <= 1e-12


def test_locate_lattice_on_shared_vertices():
    # h = 2L/n = 1/16 = hw: every lattice point is a grid vertex shared by
    # up to six triangles, and all the arithmetic is exact in binary
    sol = make_solution(lambda z: z, n=64)
    g = _locate(sol, 1.0, 32, np.ones((64, 64), dtype=bool))
    assert np.isfinite(g.real).all()
    assert np.array_equal(g, lattice(1.0, 32))


def test_locate_leaves_points_outside_the_image_nan():
    # the identity's grid image is [-2, 1.9375]^2; the lattice reaches
    # [-2.5, 2.34375]^2 and no lattice coordinate lies on that boundary
    sol = make_solution(lambda z: z, n=64)
    W = lattice(2.5, 32)
    g = _locate(sol, 2.5, 32, np.ones((64, 64), dtype=bool))
    inside = ((W.real > -2) & (W.real < 1.9375) & (W.imag > -2) & (W.imag < 1.9375))
    assert not inside.all() and inside.any()
    assert np.array_equal(np.isfinite(g.real), inside)
    assert np.allclose(g[inside], W[inside], atol=1e-12)


def constant_disk_closed_form(z):
    zs = np.where(z == 0, 1, z)
    return np.where(np.abs(z) <= 1, z + 0.5 * np.conj(z), z + 0.5 / zs)


def reference_scan(sol, w_half, image_n, mask):
    """Each lattice point scans all masked triangles in order and takes the
    first that contains it, with the barycentric formulas of _locate."""
    A, B, C, Az, Bz, Cz = (arr[np.tile(mask[:-1, :-1].ravel(), 2)]
                           for arr in _triangles(sol))
    v0, v1 = B - A, C - A
    den = v0.real * v1.imag - v0.imag * v1.real
    W = lattice(w_half, image_n)
    ref = np.full(W.shape, np.nan + 0j)
    for idx, w in np.ndenumerate(W):
        v2 = w - A
        with np.errstate(divide="ignore", invalid="ignore"):
            a = (v2.real * v1.imag - v2.imag * v1.real) / den
            b = (v0.real * v2.imag - v0.imag * v2.real) / den
        hits = np.flatnonzero((den != 0) & (a >= -1e-12) & (b >= -1e-12) & (a + b <= 1 + 1e-12))
        if len(hits):
            t = hits[0]
            ref[idx] = Az[t] + a[t] * (Bz[t] - Az[t]) + b[t] * (Cz[t] - Az[t])
    return ref


@pytest.mark.parametrize("fn", [
    constant_disk_closed_form,
    lambda z: np.abs(z.real) + 1j * z.imag,  # a fold: two triangles hold most points
], ids=["constant-disk", "fold"])
def test_locate_matches_reference_scan(fn):
    sol = make_solution(fn, n=32)
    mask = np.abs(sol.f.z) <= 1.5
    ref = reference_scan(sol, 2.2, 24, mask)
    g = _locate(sol, 2.2, 24, mask)
    assert np.isfinite(ref.real).any() and np.isnan(ref.real).any()
    assert np.array_equal(g, ref, equal_nan=True)


def test_locate_reads_only_triangles_that_reach_the_lattice(monkeypatch):
    # the lattice's square is much smaller than the masked image, so most
    # masked triangles are left out, and the points keep their preimages
    sol = make_solution(constant_disk_closed_form, n=64)
    mask = np.abs(sol.f.z) <= 1.5
    built = []
    window_triangles = verify._window_triangles
    monkeypatch.setattr(verify, "_window_triangles",
                        lambda *args: built.append(window_triangles(*args)) or built[-1])
    g = _locate(sol, 0.35, 24, mask)
    assert np.isfinite(g.real).all()
    assert np.array_equal(g, reference_scan(sol, 0.35, 24, mask), equal_nan=True)
    assert len(built) == 1 and len(built[0][0]) < 0.25 * 2 * mask[:-1, :-1].sum()


@pytest.mark.parametrize("fn", [constant_disk_closed_form, lambda z: z * z],
                         ids=["injective", "double-cover"])
def test_report_is_the_same_with_and_without_heatmaps(fn, tmp_path):
    # the heatmaps are drawn from whole grids, the report from the support
    # samples; drawing them changes no number of the report
    sol = make_solution(fn)
    spec = builtin_catalog("paper-example-sec4")
    plain = verification_report(sol, spec)
    drawn = verification_report(sol, spec, heatmaps=tmp_path)
    assert plain == drawn
    assert sorted(p.name for p in tmp_path.iterdir()) == ["jacobian.ppm", "residual.ppm"]


def test_verification_report_runs_injectivity_once(monkeypatch):
    # the closed form is injective, so the inverse audit runs
    calls = []
    check = verify.injectivity_check

    def counting(solution):
        calls.append(1)
        return check(solution)

    monkeypatch.setattr(verify, "injectivity_check", counting)
    report = verification_report(make_solution(constant_disk_closed_form),
                                 builtin_catalog("constant-disk", [0.5]))
    assert report.inverse["located_fraction"] > 0.99
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# continuity fit

def test_continuity_fit_identity_finite():
    sol = make_solution(lambda z: z)
    out = continuity_modulus_fit(sol, zero_spec(), q_l1_norm=2 * np.pi, margin=0.5)
    assert np.isfinite(out["C"]) and out["C"] > 0


def test_continuity_fit_affine_close_to_identity():
    ident = continuity_modulus_fit(make_solution(lambda z: z), zero_spec(), 2 * np.pi, 0.5)
    affine = continuity_modulus_fit(affine_solution(0.5), zero_spec(), 2 * np.pi, 0.5)
    assert affine["C"] <= 2.0 * ident["C"]        # bi-Lipschitz with constant 1.5


def test_continuity_fit_reads_the_spec_support():
    small = CoefficientSpec(mu="0", support_radius=0.4)
    with pytest.raises(EmptyCompact):
        continuity_modulus_fit(affine_solution(0.5), small, 2 * np.pi, margin=0.5)


def test_continuity_fit_monotone_under_compact_shrinkage():
    sol = affine_solution(0.5)
    wide = continuity_modulus_fit(sol, zero_spec(), 2 * np.pi, margin=0.4)
    narrow = continuity_modulus_fit(sol, zero_spec(), 2 * np.pi, margin=0.6)
    assert narrow["C"] <= 1.1 * wide["C"]


# ---------------------------------------------------------------------------
# report and heatmaps

def test_verification_report_and_ppm(tmp_path):
    spec = builtin_catalog("constant-disk", [0.5])
    cfg = SolverConfig(grid_n=128, box=L, ladder=(2, 4))
    from beltrami_lab.quasilinear import solve_quasilinear

    sol, _ = solve_quasilinear(spec, cfg)
    report = verification_report(sol, spec)
    assert report.residual_l2_rel <= 1e-3
    assert report.jacobian["fraction_nonpositive"] == 0.0
    assert report.injectivity["passed"]
    assert report.inverse["mean_KIp"] == pytest.approx(3.0, rel=0.05)
    assert np.isfinite(continuity_modulus_fit(sol, spec, 3.0 * np.pi, 0.5)["C"])
    _write_json(report, tmp_path / "verification.json")
    assert (tmp_path / "verification.json").exists()

    residual(sol, spec, ppm=tmp_path / "res.ppm")
    raw = (tmp_path / "res.ppm").read_bytes()
    assert raw.startswith(b"P6 128 128 255\n")
    assert len(raw) == len(b"P6 128 128 255\n") + 3 * 128 * 128


def test_solve_and_report_take_no_numpy_norm(monkeypatch):
    def no_norm(*args, **kwargs):
        raise AssertionError("np.linalg.norm called during a solve, its report or the fit")

    monkeypatch.setattr(np.linalg, "norm", no_norm)
    spec = builtin_catalog("constant-disk", [0.5])
    sol, _ = quasilinear.solve_quasilinear(spec, SolverConfig(grid_n=64, box=L, ladder=(2, 4)))
    report = verification_report(sol, spec)
    assert report.inverse and continuity_modulus_fit(sol, spec, 3.0 * np.pi, 0.5)
