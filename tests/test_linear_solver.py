import json
from dataclasses import dataclass, replace

import numpy as np
import pytest

from beltrami_lab import linear_solver, transforms
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
from beltrami_lab.transforms import beurling_transform, cauchy_transform

L, N = 2.0, 256
CFG = SolverConfig(grid_n=N, box=L)


def disk_indicator(n):
    return (np.abs(coordinates(L, n)) < 1).astype(complex)


def constant_disk_problem(k, n=N, nu_side=False):
    chi = disk_indicator(n)
    mu = GridField(L, np.zeros_like(chi) if nu_side else k * chi)
    nu = GridField(L, k * chi if nu_side else np.zeros_like(chi))
    return LinearProblem(mu=mu, nu=nu, k_bound=k)


def linear_residual(sol, prob):
    """Relative L2 residual of f_zbar = mu f_z + nu conj(f_z) over the whole grid."""
    fz = sol.fz.data
    res = sol.fzbar.data - prob.mu.data * fz - prob.nu.data * np.conj(fz)
    return l2_norm(res) / l2_norm(fz)


def closed_form(z, k):
    """Principal solution for mu = k chi_D: z + k conj(z) inside, z + k/z outside."""
    zs = np.where(z == 0, 1, z)
    return np.where(np.abs(z) <= 1, z + k * np.conj(z), z + k / zs)


def test_zero_coefficients_give_identity():
    prob = LinearProblem(mu=zeros(L, 64), nu=zeros(L, 64), k_bound=0.0)
    sol = solve_linear(prob, SolverConfig(grid_n=64, box=L))
    assert sol.trace.steps == 1
    assert linear_residual(sol, prob) == 0.0
    np.testing.assert_allclose(sol.f.data, coordinates(L, 64), atol=1e-12)
    np.testing.assert_allclose(sol.fz.data, 1.0, atol=1e-12)
    np.testing.assert_allclose(sol.fzbar.data, 0.0, atol=1e-12)


def test_picard_first_step_is_mu():
    prob = constant_disk_problem(0.5, n=64)
    out = picard_step(zeros(L, 64), prob)
    np.testing.assert_allclose(out, prob.mu.data, atol=1e-14)
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
        prob = LinearProblem(mu=GridField(L, (0.3 + 0.2j) * chi), nu=GridField(L, 0.3j * chi),
                             k_bound=0.7)
        yield name, inside, prob


def test_picard_step_matches_full_grid_formula():
    rng = np.random.default_rng(3)
    for name, inside, prob in off_centre_problems():
        jj, kk = np.nonzero(inside)
        assert prob.box == (slice(jj.min(), jj.max() + 1), slice(kk.min(), kk.max() + 1)), name
        omega = GridField(L, (rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))) * inside)
        dfz = 1.0 + beurling_transform(omega).data
        full = prob.mu.data * dfz + prob.nu.data * np.conj(dfz)
        out = picard_step(omega, prob)
        assert np.array_equal(out, full), name
        outside = np.ones(out.shape, dtype=bool)
        outside[prob.box] = False
        assert np.all(out[outside] == 0), name
        # an array step (unchecked, S on the box only) gives the bits
        # of the checked GridField step
        again = picard_step(out, prob)
        assert np.array_equal(again, picard_step(GridField(L, out), prob)), name
        assert np.all(again[outside] == 0), name
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
    assert sol.trace.update_norms[0] == l2_norm(omega1 - omega0) * h
    assert sol.trace.update_norms[0] > l2_norm(omega1[prob.box] - omega0[prob.box]) * h


def fully_truncated_problem():
    chi = disk_indicator(64)
    mu, nu = truncate(0.5 * chi, np.zeros_like(chi), 2)  # K = 3 > 2 everywhere
    return LinearProblem(mu=GridField(L, mu), nu=GridField(L, nu), k_bound=rung_bound(2))


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
    # every iterate of an empty-box problem after its start is zero, so the
    # solve takes no T or S of its fixed point: a cold solve makes no
    # transform at all, a warm one only those of its Picard steps; f = z and
    # fz = scale are the bits the transforms would give
    prob, cfg = fully_truncated_problem(), SolverConfig(grid_n=64, box=L)
    omega0 = None if start == "cold" else 0.5 * disk_indicator(64)
    carried = []
    for module in (transforms, linear_solver):
        def counted(*args, transform=module._slug_carried):
            carried.append(None)
            return transform(*args)

        monkeypatch.setattr(module, "_slug_carried", counted)
    sol = solve_linear(prob, cfg, omega0=omega0)
    assert len(carried) == (0 if omega0 is None else sol.trace.steps)
    monkeypatch.undo()
    zero = zeros(L, 64)
    f, norm = normalize_solution(prob.mu.z + cauchy_transform(zero).data, L)
    assert norm == sol.normalization
    fz = norm.scale * (1.0 + beurling_transform(zero).data)
    for got, ref in ((sol.f, f), (sol.fz, fz), (sol.fzbar, norm.scale * zero.data)):
        assert got.data.tobytes() == ref.tobytes()


def test_mu_only_step_equals_the_nu_path_step():
    # nu = 0 on the box: the step forms mu (1 + S omega) alone, and its values
    # are those of the nu path (the signs of zeros may differ where mu = 0)
    rng = np.random.default_rng(5)
    for name, inside, prob in off_centre_problems():
        prob = LinearProblem(mu=prob.mu, nu=zeros(L, 64), k_bound=prob.k_bound)
        forced = replace(prob)
        object.__setattr__(forced, "mu_only", False)
        assert prob.mu_only, name
        omega = (rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))) * inside
        for given in (GridField(L, omega), omega):
            assert np.array_equal(picard_step(given, prob), picard_step(given, forced)), name


def test_nonzero_nu_takes_the_nu_path():
    # a single nonzero nu sample in the box is enough for the nu path
    rng = np.random.default_rng(6)
    for name, inside, prob in off_centre_problems():
        nu = np.zeros((64, 64), dtype=complex)
        jj, kk = np.nonzero(inside)
        nu[jj[len(jj) // 2], kk[len(kk) // 2]] = 0.1j
        prob = LinearProblem(mu=prob.mu, nu=GridField(L, nu), k_bound=prob.k_bound)
        assert not prob.mu_only, name
        omega = GridField(L, (rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))) * inside)
        dfz = 1.0 + beurling_transform(omega).data
        step = picard_step(omega, prob)
        assert np.array_equal(step, prob.mu.data * dfz + prob.nu.data * np.conj(dfz)), name
        assert not np.array_equal(step, prob.mu.data * dfz), name


def spy_steps(monkeypatch, checked=False):
    """Count picard_step calls; with checked, hand every array step to it as
    a GridField of a copy (a GridField freezes its array, and the solve
    writes each iterate grid again), so each step goes through the checked
    public transform."""
    calls = []
    step = linear_solver.picard_step

    def spied(omega, prob, *buffers):
        calls.append(type(omega))
        if checked and not isinstance(omega, GridField):
            omega = GridField(prob.mu.L, omega.copy())
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
        transform = linear_solver._slug_carried

        def poisoned(*args):
            out = transform(*args)
            transforms_done.append(None)
            if len(transforms_done) == k - 1:
                out[:] = np.nan
            return out

        monkeypatch.setattr(linear_solver, "_slug_carried", poisoned)
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
    mu_eff = prob.mu.data + ratio * prob.nu.data
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
    f2, norm = normalize_solution(sol.f.data, L)
    assert norm.scale == pytest.approx(1.0, abs=1e-9)
    assert abs(norm.translation) < 1e-9
    np.testing.assert_allclose(f2, sol.f.data, atol=1e-8)


def test_not_contractive_rejected():
    prob = constant_disk_problem(0.5)
    bad = LinearProblem(mu=prob.mu, nu=prob.nu, k_bound=1.0)
    with pytest.raises(NotContractive):
        solve_linear(bad, CFG)


def test_problem_validation():
    # declared bound below the actual coefficients
    with pytest.raises(ValueError):
        LinearProblem(mu=GridField(L, disk_indicator(64) * 0.9), nu=zeros(L, 64), k_bound=0.5)
    # support escaping the half-box
    wide = from_function(L, 64, lambda z: 0.5 * (np.abs(z) < 1.8))
    with pytest.raises(ValueError):
        LinearProblem(mu=wide, nu=zeros(L, 64), k_bound=0.5)


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
        for build in (lambda: LinearProblem(mu=mu, nu=zeros(L, 64), k_bound=0.5),
                      lambda: cauchy_transform(mu)):
            try:
                build()
                verdicts.append(True)
            except SupportTooLarge:
                verdicts.append(False)
        assert verdicts == [accepted, accepted], name


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
