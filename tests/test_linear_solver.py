import numpy as np
import pytest

from beltrami_lab.errors import MaxIterations, NotContractive, SupportTooLarge
from beltrami_lab.grid import GridField, coordinates, from_function, zeros
from beltrami_lab.linear_solver import (
    LinearProblem,
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


def closed_form(z, k):
    """Principal solution for mu = k chi_D: z + k conj(z) inside, z + k/z outside."""
    zs = np.where(z == 0, 1, z)
    return np.where(np.abs(z) <= 1, z + k * np.conj(z), z + k / zs)


def test_zero_coefficients_give_identity():
    prob = LinearProblem(mu=zeros(L, 64), nu=zeros(L, 64), k_bound=0.0)
    sol = solve_linear(prob, SolverConfig(grid_n=64, box=L))
    assert sol.trace.steps == 1
    assert sol.residual_l2_rel == 0.0
    np.testing.assert_allclose(sol.f.data, coordinates(L, 64), atol=1e-12)
    np.testing.assert_allclose(sol.fz.data, 1.0, atol=1e-12)
    np.testing.assert_allclose(sol.fzbar.data, 0.0, atol=1e-12)


def test_picard_first_step_is_mu():
    prob = constant_disk_problem(0.5, n=64)
    out = picard_step(zeros(L, 64), prob)
    np.testing.assert_allclose(out.data, prob.mu.data, atol=1e-14)


def test_picard_step_matches_full_grid_formula():
    # an off-centre support, so the band is not the middle rows
    chi = (np.abs(coordinates(L, 64) - (0.5 + 0.3j)) < 0.45).astype(complex)
    prob = LinearProblem(mu=GridField(L, 0.4 * chi), nu=GridField(L, 0.3j * chi), k_bound=0.7)
    j0, j1 = prob.band
    assert np.any(chi[j0]) and np.any(chi[j1 - 1])
    assert not np.any(chi[:j0]) and not np.any(chi[j1:])
    rng = np.random.default_rng(3)
    omega = GridField(L, (rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))) * chi)
    dfz = 1.0 + beurling_transform(omega).data
    full = prob.mu.data * dfz + prob.nu.data * np.conj(dfz)
    out = picard_step(omega, prob).data
    assert np.array_equal(out, full)
    assert np.all(out[:j0] == 0) and np.all(out[j1:] == 0)


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
    assert sol.residual_l2_rel <= 1e-6


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
    # collapsing (mu, nu) through the solution's derivative ratio never
    # exceeds the two-characteristic bound
    from beltrami_lab.dilatation import effective_single_coefficient

    prob = constant_disk_problem(0.5, nu_side=True)
    sol = solve_linear(prob, CFG)
    fz = sol.fz.data
    ratio = np.where(fz != 0, np.conj(fz) / np.where(fz != 0, fz, 1), 0)
    mu_eff = effective_single_coefficient(prob.mu.data, prob.nu.data, ratio)
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
    f2, fz2, fzb2, norm = normalize_solution(sol.f.data, sol.fz.data, sol.fzbar.data, L)
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


def test_archive_round_trip(tmp_path):
    sol = solve_linear(constant_disk_problem(0.5, n=64), SolverConfig(grid_n=64, box=L))
    out = save_solution(sol, tmp_path / "archive")
    loaded = load_solution(out)
    np.testing.assert_array_equal(loaded.f.data, sol.f.data)
    np.testing.assert_array_equal(loaded.fzbar.data, sol.fzbar.data)
    assert loaded.normalization.scale == sol.normalization.scale
    assert loaded.trace.steps == sol.trace.steps
