import json
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from beltrami_lab import grid, linear_solver, transforms
from beltrami_lab.coefficients import rung_bound, truncate
from beltrami_lab.errors import MaxIterations, NotContractive, SupportTooLarge
from beltrami_lab.grid import GridField, coordinates, from_function, l2_norm, zeros
from beltrami_lab.linear_solver import (
    LinearProblem,
    _write_json,
    load_solution,
    normalize_solution,
    picard_step,
    save_solution,
    solve_linear,
)
from beltrami_lab.quasilinear import SolverConfig
from beltrami_lab.transforms import _check_support, beurling_transform, cauchy_transform

L, N = 2.0, 256
CFG = SolverConfig(grid_n=N, box=L)


def disk_indicator(n):
    return (np.abs(coordinates(L, n)) < 1).astype(complex)


def constant_disk_problem(k, n=N, nu_side=False):
    """mu = k (or nu = k) on the samples of the open unit disk."""
    index = np.flatnonzero(disk_indicator(n))
    value, zero = np.full(index.size, k, dtype=complex), np.zeros(index.size, dtype=complex)
    return LinearProblem(L, n, index, zero if nu_side else value, value if nu_side else zero, k)


def grid_problem(mu, nu, k):
    """The problem whose samples are all the samples of the coefficient grids mu and nu."""
    n = mu.shape[0]
    return LinearProblem(L, n, np.arange(n * n), mu.ravel(), nu.ravel(), k)


def grids(prob):
    """The problem's mu and nu on the whole grid."""
    out = []
    for samples in (prob.mu, prob.nu):
        full = np.zeros(prob.n * prob.n, dtype=complex)
        full[prob.index] = samples
        out.append(full.reshape(prob.n, prob.n))
    return out


def embedded(omega, prob):
    """The box-shaped omega of a Picard step on the whole grid, +0 off the box."""
    full = np.zeros((prob.n, prob.n), dtype=complex)
    full[prob.box] = omega
    return full


def linear_residual(sol, prob):
    """Relative L2 residual of f_zbar = mu f_z + nu conj(f_z) over the whole grid."""
    fz = sol.fz.data
    mu, nu = grids(prob)
    res = sol.fzbar.data - mu * fz - nu * np.conj(fz)
    return l2_norm(res) / l2_norm(fz)


def closed_form(z, k):
    """Principal solution for mu = k chi_D: z + k conj(z) inside, z + k/z outside."""
    zs = np.where(z == 0, 1, z)
    return np.where(np.abs(z) <= 1, z + k * np.conj(z), z + k / zs)


def test_zero_coefficients_give_identity():
    prob = LinearProblem(L, 64, np.arange(0), np.zeros(0), np.zeros(0), 0.0)
    sol = solve_linear(prob, SolverConfig(grid_n=64, box=L))
    assert sol.trace.steps == 1
    assert linear_residual(sol, prob) == 0.0
    np.testing.assert_allclose(sol.f.data, coordinates(L, 64), atol=1e-12)
    np.testing.assert_allclose(sol.fz.data, 1.0, atol=1e-12)
    np.testing.assert_allclose(sol.fzbar.data, 0.0, atol=1e-12)


def test_picard_first_step_is_mu():
    prob = constant_disk_problem(0.5, n=64)
    out = picard_step(zeros(L, 64), prob)
    np.testing.assert_allclose(out, prob.mu_box, atol=1e-14)
    # a cold solve's first step is mu + nu, formed without a transform:
    # the bits of a step from omega = 0, signed zeros included
    for name, _, prob in [("centred disk", None, prob), *off_centre_problems()]:
        first = next(linear_solver._iterates(prob, None))
        assert first.tobytes() == picard_step(zeros(L, 64), prob).tobytes(), name


def off_centre_problems(n=64):
    """Off-centre supports with complex mu and nu != 0: a disk, so the band
    is not the middle rows, and a rectangle, whose box is much narrower
    than its row band."""
    Z = coordinates(L, n)
    supports = {
        "disk": np.abs(Z - (0.5 + 0.3j)) < 0.45,
        "rectangle": (np.abs(Z.real + 0.9) < 0.3) & (np.abs(Z.imag - 0.4) < 0.5),
    }
    for name, inside in supports.items():
        chi = inside.astype(complex)
        prob = grid_problem((0.3 + 0.2j) * chi, 0.3j * chi, 0.7)
        yield name, inside, prob


def test_picard_step_matches_full_grid_formula():
    rng = np.random.default_rng(3)
    for name, inside, prob in off_centre_problems():
        jj, kk = np.nonzero(inside)
        assert prob.box == (slice(jj.min(), jj.max() + 1), slice(kk.min(), kk.max() + 1)), name
        omega = GridField(L, (rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))) * inside)
        dfz = 1.0 + beurling_transform(omega).data
        mu, nu = grids(prob)
        full = mu * dfz + nu * np.conj(dfz)
        out = picard_step(omega, prob)
        assert np.array_equal(out, full[prob.box]), name
        outside = np.ones(full.shape, dtype=bool)
        outside[prob.box] = False
        assert np.all(full[outside] == 0), name  # the step vanishes off the box
        # an array step (unchecked, S on the box only) gives the bits
        # of the checked GridField step
        again = picard_step(out, prob)
        assert np.array_equal(again, picard_step(GridField(L, embedded(out, prob)), prob)), name
    rows, cols = prob.box  # the rectangle's
    assert cols.stop - cols.start < 16 and rows.stop - rows.start > cols.stop - cols.start


def test_warm_first_update_reads_the_whole_grid():
    # omega0 has a sample on the unit circle, just outside the box of the
    # open disk's coefficients; the first update must see it
    prob = constant_disk_problem(0.5, n=64)
    omega0 = 0.5 * disk_indicator(64)
    omega0[48, 32] = 1.0
    assert prob.box[0].stop == 48
    cfg = SolverConfig(grid_n=64, box=L)
    sol = solve_linear(prob, cfg, omega0=omega0)
    omega1 = picard_step(GridField(L, omega0), prob)
    h = 2 * L / 64
    assert sol.trace.update_norms[0] == l2_norm(embedded(omega1, prob) - omega0) * h
    assert sol.trace.update_norms[0] > l2_norm(omega1 - omega0[prob.box]) * h


def fully_truncated_problem():
    chi = disk_indicator(64)
    mu, nu = truncate(0.5 * chi, np.zeros_like(chi), 2)  # K = 3 > 2 everywhere
    return grid_problem(mu, nu, rung_bound(2))


def test_fully_truncated_problem_has_an_empty_box():
    prob = fully_truncated_problem()
    assert prob.box == (slice(0, 0), slice(0, 0))
    sol = solve_linear(prob, SolverConfig(grid_n=64, box=L))
    assert sol.trace.update_norms == [0.0]
    assert linear_residual(sol, prob) == 0.0
    np.testing.assert_allclose(sol.f.data, coordinates(L, 64), atol=1e-12)


def test_warm_solve_of_a_fully_truncated_problem():
    # the first update is omega0 itself; the array step that follows, on an
    # empty box, returns zeros
    prob = fully_truncated_problem()
    omega0 = 0.5 * disk_indicator(64)
    sol = solve_linear(prob, SolverConfig(grid_n=64, box=L), omega0=omega0)
    assert sol.trace.update_norms == [l2_norm(omega0) * (2 * L / 64), 0.0]
    np.testing.assert_allclose(sol.f.data, coordinates(L, 64), atol=1e-12)
    assert np.all(sol.fzbar.data == 0)


@pytest.mark.parametrize("start", ["cold", "warm"])
def test_fully_truncated_problem_makes_no_transform(monkeypatch, start):
    # every iterate of an empty-box problem after its start is zero, so no
    # step of it takes a transform, and the solve takes no T or S of its
    # fixed point; f = z and fz = scale are the bits the transforms would give
    prob, cfg = fully_truncated_problem(), SolverConfig(grid_n=64, box=L)
    omega0 = None if start == "cold" else 0.5 * disk_indicator(64)
    carried = []
    for owner, name in ((transforms, "_slug_carried"), (transforms._BoxTransform, "__call__")):
        def counted(*args, transform=getattr(owner, name)):
            carried.append(None)
            return transform(*args)

        monkeypatch.setattr(owner, name, counted)
    sol = solve_linear(prob, cfg, omega0=omega0)
    assert sol.trace.steps == (1 if omega0 is None else 2)
    assert carried == []
    if omega0 is not None:  # a warm start is checked all the same
        wide = 0.1 * (np.abs(coordinates(L, 64)) < 1.8)
        with pytest.raises(SupportTooLarge):
            solve_linear(prob, cfg, omega0=wide)
        bad = omega0.copy()
        bad[30, 30] = np.nan
        with pytest.raises(ValueError, match="grid samples must all be finite"):
            solve_linear(prob, cfg, omega0=bad)
    monkeypatch.undo()
    zero = zeros(L, 64)
    f, norm = normalize_solution(coordinates(L, 64) + cauchy_transform(zero).data, L)
    assert norm == sol.normalization
    fz = norm.scale * (1.0 + beurling_transform(zero).data)
    for got, ref in ((sol.f, f), (sol.fz, fz), (sol.fzbar, norm.scale * zero.data)):
        assert got.data.tobytes() == ref.tobytes()


def test_mu_only_step_equals_the_nu_path_step():
    # nu = 0 on the box: the step forms mu (1 + S omega) alone, and its values
    # are those of the nu path (the signs of zeros may differ where mu = 0)
    rng = np.random.default_rng(5)
    for name, inside, prob in off_centre_problems():
        prob = replace(prob, nu=np.zeros_like(prob.nu))
        forced = replace(prob)
        object.__setattr__(forced, "mu_only", False)
        assert prob.mu_only, name
        omega = (rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))) * inside
        for given in (GridField(L, omega), omega[prob.box]):
            assert np.array_equal(picard_step(given, prob), picard_step(given, forced)), name


def test_nonzero_nu_takes_the_nu_path():
    # a single nonzero nu sample in the box is enough for the nu path
    rng = np.random.default_rng(6)
    for name, inside, prob in off_centre_problems():
        nu = np.zeros((64, 64), dtype=complex)
        jj, kk = np.nonzero(inside)
        nu[jj[len(jj) // 2], kk[len(kk) // 2]] = 0.1j
        prob = replace(prob, nu=nu.ravel())
        assert not prob.mu_only, name
        omega = GridField(L, (rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))) * inside)
        dfz = (1.0 + beurling_transform(omega).data)[prob.box]
        step = picard_step(omega, prob)
        assert np.array_equal(step, prob.mu_box * dfz + prob.nu_box * np.conj(dfz)), name
        assert not np.array_equal(step, prob.mu_box * dfz), name


def spy_steps(monkeypatch, checked=False):
    """Count picard_step calls; with checked, hand every array step to it as
    a GridField of the iterate embedded in the grid, so each step goes
    through the checked public transform."""
    calls = []
    step = linear_solver.picard_step

    def spied(omega, prob, *buffers):
        calls.append(type(omega))
        if checked and not isinstance(omega, GridField):
            omega = GridField(prob.L, embedded(omega, prob))
        return step(omega, prob, *buffers)

    monkeypatch.setattr(linear_solver, "picard_step", spied)
    return calls


@pytest.mark.parametrize("start", ["cold", "warm"])
def test_array_steps_match_checked_steps(monkeypatch, start):
    # the warm omega0 has samples outside the box, which only the checked
    # first step may see
    cfg = SolverConfig(grid_n=64, box=L)
    for name, inside, prob in off_centre_problems():
        omega0 = None
        if start == "warm":
            rows, cols = prob.box
            omega0 = 0.2 * inside + 0.1j * np.roll(inside, 2, axis=1)
            omega0[rows.start - 1, cols.start] = 0.05
        with monkeypatch.context() as m:
            calls = spy_steps(m, checked=True)
            ref = solve_linear(prob, cfg, omega0=omega0)
        calls = spy_steps(monkeypatch)
        sol = solve_linear(prob, cfg, omega0=omega0)
        assert calls[0] is GridField and set(calls[1:]) == {np.ndarray}, name
        # a cold solve's first step, mu + nu, makes no picard_step call
        assert len(calls) + (omega0 is None) == sol.trace.steps > 10, name
        assert sol.trace.update_norms == ref.trace.update_norms, name
        for a, b in ((sol.f, ref.f), (sol.fz, ref.fz), (sol.fzbar, ref.fzbar)):
            assert np.array_equal(a.data, b.data), name
        monkeypatch.undo()


@pytest.mark.parametrize("k", [2, 5])
def test_non_finite_array_step_raises_at_that_step(monkeypatch, k):
    # a NaN in the (k-1)-th unchecked transform, which the k-th picard_step
    # call makes, stops the solve at that call instead of running on to
    # max_inner: step k of a warm solve, step k + 1 of a cold one, whose
    # first step (mu + nu) makes no call
    for omega0 in (None, 0.3j * disk_indicator(64)):
        transforms_done = []
        transform = transforms._BoxTransform.__call__

        def poisoned(*args):
            out = transform(*args)
            transforms_done.append(None)
            if len(transforms_done) == k - 1:
                out[:] = np.nan
            return out

        monkeypatch.setattr(transforms._BoxTransform, "__call__", poisoned)
        calls = spy_steps(monkeypatch)
        with pytest.raises(ValueError, match="grid samples must all be finite"):
            solve_linear(constant_disk_problem(0.5, n=64), SolverConfig(grid_n=64, box=L),
                         omega0=omega0)
        assert len(calls) == k
        monkeypatch.undo()


def test_warm_start_is_checked_on_the_first_step(monkeypatch):
    prob = constant_disk_problem(0.5, n=64)
    cfg = SolverConfig(grid_n=64, box=L)
    calls = spy_steps(monkeypatch)
    wide = 0.1 * (np.abs(coordinates(L, 64)) < 1.8)
    with pytest.raises(SupportTooLarge):
        solve_linear(prob, cfg, omega0=wide)
    assert calls == [GridField]
    bad = 0.5 * disk_indicator(64)
    bad[30, 30] = np.nan
    with pytest.raises(ValueError, match="grid samples must all be finite"):
        solve_linear(prob, cfg, omega0=bad)


def test_solve_linear_takes_no_numpy_norm(monkeypatch):
    def no_norm(*args, **kwargs):
        raise AssertionError("np.linalg.norm called during solve_linear")

    monkeypatch.setattr(np.linalg, "norm", no_norm)
    solve_linear(constant_disk_problem(0.5, n=64), SolverConfig(grid_n=64, box=L))


def undo_normalization(sol):
    """Return the raw principal-solution grid f/scale + translation."""
    return sol.f.data / sol.normalization.scale + sol.normalization.translation


@pytest.mark.parametrize("nu_side", [False, True], ids=["mu-only", "nu-only"])
def test_constant_disk_matches_closed_form(nu_side):
    prob = constant_disk_problem(0.5, nu_side=nu_side)
    sol = solve_linear(prob, CFG)
    Z = coordinates(L, N)
    raw = undo_normalization(sol)
    mask = np.abs(np.abs(Z) - 1.0) > 0.1
    err = np.abs(raw - closed_form(Z, 0.5))[mask].max()
    assert err <= 1e-2
    # the coefficient equation itself holds to solver precision
    assert linear_residual(sol, prob) <= 1e-6


def test_measured_contraction_ratio():
    sol = solve_linear(constant_disk_problem(0.5), CFG)
    est = sol.trace.contraction_estimate
    assert est == pytest.approx(0.5, abs=0.05)
    # ratios only recorded from the second update on
    assert len(sol.trace.ratios) == len(sol.trace.update_norms) - 1


def test_update_ratios_bounded_by_contraction_factor():
    sol = solve_linear(constant_disk_problem(0.8), CFG)
    late = sol.trace.ratios[2:]
    assert max(late) <= 0.8 + 0.1


def test_conformal_outside_support():
    sol = solve_linear(constant_disk_problem(0.5), CFG)
    Z = coordinates(L, N)
    outside = np.abs(Z) > 1.1
    assert np.abs(sol.fzbar.data[outside]).max() <= 1e-6 * np.abs(sol.fz.data).max()


def test_effective_coefficient_bounded_by_k():
    # collapsing (mu, nu) to mu + ratio nu through the solution's derivative
    # ratio conj(fz)/fz never exceeds the two-characteristic bound
    prob = constant_disk_problem(0.5, nu_side=True)
    sol = solve_linear(prob, CFG)
    fz = sol.fz.data
    ratio = np.where(fz != 0, np.conj(fz) / np.where(fz != 0, fz, 1), 0)
    mu, nu = grids(prob)
    mu_eff = mu + ratio * nu
    assert np.abs(mu_eff).max() <= 0.5 + 1e-12


def test_jacobian_positive_inside():
    for k in (0.5, 0.8):
        sol = solve_linear(constant_disk_problem(k), CFG)
        Z = coordinates(L, N)
        inside = np.abs(Z) < 1
        J = np.abs(sol.fz.data) ** 2 - np.abs(sol.fzbar.data) ** 2
        assert (J[inside] > 0).mean() >= 0.99


def test_normalization_pins_f0_and_f1():
    sol = solve_linear(constant_disk_problem(0.5), CFG)
    assert abs(complex(sol.f.interp(0j))) < 1e-10
    assert abs(complex(sol.f.interp(1.0 + 0j))) == pytest.approx(1.0, abs=1e-10)


def test_normalization_idempotent():
    sol = solve_linear(constant_disk_problem(0.5), CFG)
    f2, norm = normalize_solution(sol.f.data.copy(), L)
    assert norm.scale == pytest.approx(1.0, abs=1e-9)
    assert abs(norm.translation) < 1e-9
    np.testing.assert_allclose(f2, sol.f.data, atol=1e-8)


def test_not_contractive_rejected():
    prob = constant_disk_problem(0.5)
    bad = replace(prob, k_bound=1.0)
    with pytest.raises(NotContractive):
        solve_linear(bad, CFG)


def test_problem_validation():
    # declared bound below the actual coefficients
    zero = np.zeros((64, 64))
    with pytest.raises(ValueError, match="exceed the declared bound"):
        grid_problem(disk_indicator(64) * 0.9, zero, 0.5)
    # support escaping the half-box
    wide = from_function(L, 64, lambda z: 0.5 * (np.abs(z) < 1.8))
    with pytest.raises(SupportTooLarge):
        grid_problem(wide.data, zero, 0.5)


def test_problem_and_transforms_share_support_rule():
    # one rule (support extent <= half the box side) for both; the off-center
    # disk reaches 1.15 from the origin but spans only 0.9
    fields = {
        "centered unit disk": (lambda z: np.abs(z) < 1, True),
        "|z| < 1.9": (lambda z: np.abs(z) < 1.9, False),
        "r = 0.45 disk at 0.7": (lambda z: np.abs(z - 0.7) < 0.45, True),
    }
    for name, (indicator, accepted) in fields.items():
        mu = from_function(L, 64, lambda z: 0.5 * indicator(z))
        verdicts = []
        for build in (lambda: grid_problem(mu.data, np.zeros((64, 64)), 0.5),
                      lambda: cauchy_transform(mu)):
            try:
                build()
                verdicts.append(True)
            except SupportTooLarge:
                verdicts.append(False)
        assert verdicts == [accepted, accepted], name


# ---------------------------------------------------------------------------
# the box-shaped solve against the whole-grid Picard loop it replaced

def whole_grid_solve(mu, nu, cfg, omega0=None, tol=None):
    """Oracle: the Picard loop and assembly on whole grids, as the solver ran
    before its problems and iterates moved to the box. Each step takes the
    public S of the whole iterate grid and fills the box of a zero grid;
    the updates read the box, but a warm start's first the whole grid.
    Returns f, fz, fzbar and the update norms."""
    n, h = mu.shape[0], 2 * L / mu.shape[0]
    tol = cfg.inner_tol if tol is None else tol
    box = _check_support(np.abs(mu) + np.abs(nu), L)
    mu_only = not nu[box].any()
    omega = np.zeros((n, n), dtype=complex) if omega0 is None else omega0
    norms = []
    for step in range(cfg.max_inner):
        new = np.zeros((n, n), dtype=complex)
        if step == 0 and omega0 is None:
            new[box] = mu[box] + nu[box]  # S 0 = 0
        else:
            fz = 1.0 + beurling_transform(GridField(L, omega)).data[box]
            new[box] = mu[box] * fz if mu_only else mu[box] * fz + nu[box] * np.conj(fz)
        part = ... if step == 0 and omega0 is not None else box
        norms.append(l2_norm(new[part] - omega[part]) * h)
        omega = new
        if norms[-1] < tol * max(1.0, l2_norm(omega[box]) * h):
            break
    f = coordinates(L, n) + cauchy_transform(GridField(L, omega)).data
    f = f - complex(grid.bilinear(f, L, 0j))
    scale = 1.0 / abs(complex(grid.bilinear(f, L, 1.0 + 0j)))
    fz = scale * (1.0 + beurling_transform(GridField(L, omega)).data)
    return scale * f, fz, scale * omega, norms


def oracle_problems(n):
    """(name, sample-built problem) pairs: an off-centre disk with complex mu,
    -0 samples in its box, and nu = 0 or not; and a fully truncated one."""
    Z = coordinates(L, n)
    index = np.flatnonzero(np.abs(Z - (0.5 + 0.3j)) < 0.45)
    mu = np.full(index.size, 0.3 + 0.2j)
    mu[[3, index.size // 2]] = complex(-0.0, 0.0)
    nu = 0.3j * np.cos(np.arange(index.size))
    yield "mu only", LinearProblem(L, n, index, mu, np.zeros(index.size), 0.7)
    yield "mu and nu", LinearProblem(L, n, index, mu, nu, 0.7)
    index = np.flatnonzero(np.abs(Z) < 1)
    yield "empty box", LinearProblem(L, n, index, *truncate(np.full(index.size, 0.5 + 0j),
                                                            np.zeros(index.size), 2),
                                     rung_bound(2))


@pytest.mark.parametrize("n", [64, 128])
def test_box_solve_gives_the_bits_of_the_whole_grid_loop(n):
    cfg = SolverConfig(grid_n=n, box=L)
    Z = coordinates(L, n)
    warm = 0.2 * (np.abs(Z - 0.4) < 0.6) + 0.05j * (np.abs(Z + 0.3j) < 0.5)
    for name, prob in oracle_problems(n):
        mu, nu = grids(prob)
        assert np.array_equal(prob.mu_box, mu[prob.box]) and (prob.box[0].stop > 0) == (
            name != "empty box"), name
        for omega0 in (None, warm):
            for tol in (None, 1e-3):
                sol = solve_linear(prob, cfg, omega0=omega0, tol=tol)
                f, fz, fzbar, norms = whole_grid_solve(mu, nu, cfg, omega0, tol)
                case = f"{name}, {'cold' if omega0 is None else 'warm'}, tol {tol}"
                assert sol.trace.update_norms == norms, case
                assert sol.f.data.tobytes() == f.tobytes(), case
                assert sol.fzbar.data.tobytes() == fzbar.tobytes(), case
                assert (sol.fz is None) == (tol is not None), case
                if sol.fz is not None:
                    assert sol.fz.data.tobytes() == fz.tobytes(), case


def test_sample_problem_matches_the_grid_support_check():
    # random sample sets: faint, zero and -0 samples, supports of any spread;
    # the problem's box, mu_only and errors are those of the grid's check
    rng = np.random.default_rng(11)
    outcomes = set()
    for trial in range(300):
        n = int(rng.choice([16, 32, 64]))
        side = int(rng.integers(1, n + 1))
        r0, c0 = rng.integers(0, n - side + 1, size=2)
        rows, cols = (np.sort(rng.choice(np.arange(a, a + side), size=2)) for a in (r0, c0))
        block = np.zeros((n, n), dtype=bool)
        block[rows[0]:rows[1] + 1, cols[0]:cols[1] + 1] = True
        index = np.flatnonzero(block & (rng.random((n, n)) < rng.random()))
        mu = (rng.normal(size=index.size) + 1j * rng.normal(size=index.size)) * 0.1
        nu = np.zeros(index.size, dtype=complex)
        if trial % 3:
            nu[rng.random(index.size) < 0.2] = 0.05j
        kinds = rng.integers(0, 5, size=index.size)
        mu[kinds == 0] = 0.0
        mu[kinds == 1] = complex(-0.0, -0.0)
        mu[kinds == 2] *= 1e-15  # below the extent threshold
        k_bound = float(rng.choice([0.5, 0.1]))
        grid_mu, grid_nu = np.zeros(n * n, dtype=complex), np.zeros(n * n, dtype=complex)
        grid_mu[index], grid_nu[index] = mu, nu
        grid_mu, grid_nu = grid_mu.reshape(n, n), grid_nu.reshape(n, n)
        s = np.abs(grid_mu) + np.abs(grid_nu)
        try:
            expected = ("bound",) if s.max() > k_bound + 1e-12 else _check_support(s, L)
        except SupportTooLarge as exc:
            expected = ("too large", str(exc))
        try:
            prob = LinearProblem(L, n, index, mu, nu, k_bound)
            got = prob.box
            assert prob.mu_only == (not grid_nu[prob.box].any())
            for on_box, on_grid in ((prob.mu_box, grid_mu), (prob.nu_box, grid_nu)):
                assert on_box.tobytes() == on_grid[prob.box].tobytes()
        except SupportTooLarge as exc:
            got = ("too large", str(exc))
        except ValueError as exc:
            assert "exceed the declared bound" in str(exc)
            got = ("bound",)
        assert got == expected, trial
        outcomes.add(got[0] if isinstance(got[0], str) else got[0].stop > got[0].start)
    assert outcomes == {"bound", "too large", True, False}


def test_problem_rejects_bad_samples():
    index = np.array([5, 9, 200])
    for bad, message in (((index[::-1], np.ones(3) * 0.1, np.zeros(3)), "increase"),
                         ((index + 4000, np.ones(3) * 0.1, np.zeros(3)), "increase"),
                         ((index, np.ones(2) * 0.1, np.zeros(3)), "one length"),
                         ((index, np.array([0.1, np.nan, 0.1]), np.zeros(3)), "finite")):
        with pytest.raises(ValueError, match=message):
            LinearProblem(L, 64, *bad, 0.5)
    with pytest.raises(ValueError, match="power of two"):
        LinearProblem(L, 48, index, np.zeros(3), np.zeros(3), 0.5)


# ---------------------------------------------------------------------------
# what the solve allocates

def test_unchecked_steps_allocate_nothing_of_box_size(monkeypatch):
    # steady-state steps, norms included, run in the solve's reused buffers:
    # over ten steps after the first two, the traced peak stays within a few
    # kB of the current size (the box holds 63 x 63 samples, 62 kB)
    prob = constant_disk_problem(0.5, n=128, nu_side=True)
    assert prob.mu_box.shape == (63, 63)
    marks, step = [], linear_solver.picard_step

    def marked(*args):
        if len(marks) in (3, 13):
            marks.append(tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
        else:
            marks.append(None)
        return step(*args)

    monkeypatch.setattr(linear_solver, "picard_step", marked)
    tracemalloc.start()
    try:
        sol = solve_linear(prob, SolverConfig(grid_n=128, box=L))
    finally:
        tracemalloc.stop()
    assert sol.trace.steps > 14
    (current, _), (_, peak) = marks[3], marks[13]
    assert peak - current < 4096


def test_solve_peak_memory_in_grids():
    # above what it starts with, a solve at inner_tol holds 4.3 grids at its
    # peak: the fixed point, f, and the spectrum (n + 4 samples a row), the
    # output and |omega| over the band of rows of the public S; the bound
    # leaves one grid of headroom
    n = 128
    grid_bytes = n * n * 16
    cfg = SolverConfig(grid_n=n, box=L)
    for prob, omega0 in ((constant_disk_problem(0.5, n=n), None),
                         (constant_disk_problem(0.5, n=n, nu_side=True), 0.3 * disk_indicator(n))):
        solve_linear(prob, cfg, omega0=omega0)  # the kernels are cached
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sol = solve_linear(prob, cfg, omega0=omega0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert sol.trace.steps > 10
        assert peak < 5.3 * grid_bytes, peak / grid_bytes


def test_max_inner_caps_the_picard_steps():
    prob = constant_disk_problem(0.5, n=64)
    steps = solve_linear(prob, SolverConfig(grid_n=64, box=L)).trace.steps
    assert steps > 2
    capped = solve_linear(prob, SolverConfig(grid_n=64, box=L, max_inner=steps))
    assert capped.trace.steps == len(capped.trace.update_norms) == steps
    with pytest.raises(MaxIterations, match=f"no convergence in {steps - 1} Picard steps"):
        solve_linear(prob, SolverConfig(grid_n=64, box=L, max_inner=steps - 1))


def test_the_residual_check_reads_the_linear_residual():
    # the check sums on the box only; the whole-grid residual is the same number
    prob = constant_disk_problem(0.5, n=64)
    cfg = SolverConfig(grid_n=64, box=L)
    res = linear_residual(solve_linear(prob, cfg), prob)
    assert 0.0 < res < 1e-9
    solve_linear(prob, replace(cfg, residual_tol=1.01 * res))
    with pytest.raises(MaxIterations, match="converged iteration left residual"):
        solve_linear(prob, replace(cfg, residual_tol=0.99 * res))


def test_archive_round_trip(tmp_path):
    sol = solve_linear(constant_disk_problem(0.5, n=64), SolverConfig(grid_n=64, box=L))
    out = save_solution(sol, tmp_path / "archive")
    loaded = load_solution(out)
    np.testing.assert_array_equal(loaded.f.data, sol.f.data)
    np.testing.assert_array_equal(loaded.fzbar.data, sol.fzbar.data)
    assert loaded.normalization.scale == sol.normalization.scale
    assert loaded.trace.steps == sol.trace.steps


@dataclass
class _Probe:
    z0: complex
    window: tuple


@dataclass
class _Report:
    probe: _Probe
    values: list


def test_write_json_fixes_one_standard_format(tmp_path):
    report = _Report(_Probe(0.5 - 2j, (1, 2.5)), [np.nan, np.inf, -np.inf, np.float64(0.1)])
    path = tmp_path / "report.json"
    _write_json(report, path, nulls=True)

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    text = path.read_text()
    parsed = json.loads(text, parse_constant=reject)
    assert parsed == {"probe": {"z0": [0.5, -2.0], "window": [1, 2.5]},
                      "values": [None, None, None, 0.1]}
    assert text == json.dumps(parsed, indent=2, sort_keys=True)
    assert np.isnan(report.values[0])  # the report itself is left as it was
    # an object JSON cannot hold is refused, not written as its string
    with pytest.raises(TypeError):
        _write_json({"x": object()}, tmp_path / "bad.json")


@pytest.mark.parametrize("bad, where", [
    (np.nan, "values/0"), (np.inf, "values/0"), (-np.inf, "values/0"),
    (complex(1.0, np.inf), "probe/z0"),
])
def test_write_json_refuses_a_non_finite_number_without_nulls(tmp_path, bad, where):
    if isinstance(bad, complex):
        report = _Report(_Probe(bad, ()), [])
    else:
        report = _Report(_Probe(0j, ()), [bad, 1.0])
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match=f"^report.json/{where} is "):
        _write_json(report, path)
    assert not path.exists()  # refused before the file is opened
