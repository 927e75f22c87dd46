from dataclasses import replace

import numpy as np
import pytest

from beltrami_lab.coefficients import (
    BY_Q,
    CoefficientSpec,
    builtin_catalog,
    parse_coefficient_expr,
)
from beltrami_lab.conditions import parse_majorant
from beltrami_lab.errors import EllipticityViolation, EmptyCompact, NotContractive
from beltrami_lab.grid import GridField, coordinates, from_function, zeros
from beltrami_lab.linear_solver import LinearProblem, solve_linear
from beltrami_lab.quasilinear import (
    SolverConfig,
    compact_sup_distance,
    frozen_coefficient_fields,
    solve_quasilinear,
)

L = 2.0
FAST = SolverConfig(grid_n=128, box=L, ladder=(2, 4, 8, 16, 32, 64), outer_tol=1e-5)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(ladder=(4, 2))
    with pytest.raises(ValueError):
        SolverConfig(inner_tol=-1)
    with pytest.raises(ValueError):
        SolverConfig(compact_margins=(0.5, 1.0))


@pytest.mark.parametrize("field, value", [
    ("ladder", ()), ("compact_margins", ()), ("max_inner", 0), ("max_outer", 0),
])
def test_config_rejects_empty_or_zero(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_compact_sup_distance_trivial():
    f = from_function(L, 64, lambda z: z)
    assert compact_sup_distance(f, f, 0.5) == 0.0
    g = GridField(L, f.data + 0.1)
    assert compact_sup_distance(f, g, 0.5) == pytest.approx(0.1)


def test_compact_sup_distance_affine_vs_identity():
    ident = from_function(L, 64, lambda z: z)
    affine = from_function(
        L, 64, lambda z: z + 0.5 * np.conj(z) * (np.abs(z) < 1)
    )
    # margin 0.5 keeps |x|,|y| <= 1.5, so the max of 0.5|z| over the disk is 0.5
    assert compact_sup_distance(affine, ident, 0.5) == pytest.approx(0.5, abs=0.02)
    with pytest.raises(EmptyCompact):
        compact_sup_distance(affine, ident, 2.5)


def test_frozen_fields_w_independent():
    spec = builtin_catalog("constant-disk", [0.5])
    f1 = from_function(L, 64, lambda z: z)
    f2 = from_function(L, 64, lambda z: z + 0.3 * np.conj(z))
    mu1, _ = frozen_coefficient_fields(spec, f1, rung=8)
    mu2, _ = frozen_coefficient_fields(spec, f2, rung=8)
    np.testing.assert_array_equal(mu1.data, mu2.data)


def test_frozen_fields_sec4_identity_map():
    spec = builtin_catalog("paper-example-sec4")
    ident = from_function(L, 64, lambda z: z)
    mu, _ = frozen_coefficient_fields(spec, ident, rung=64)
    Z = coordinates(L, 64)
    j, k = 32, 36  # z = 0.25, on the positive real axis
    assert Z[j, k] == 0.25
    assert mu.data[j, k] == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("rung", [2, 4])
def test_frozen_fields_respect_rung_bound(rung):
    spec = builtin_catalog("paper-example-sec4")
    ident = from_function(L, 64, lambda z: z)
    mu, nu = frozen_coefficient_fields(spec, ident, rung=rung)
    s = np.abs(mu.data) + np.abs(nu.data)
    assert s.max() <= (rung - 1) / (rung + 1) + 1e-12


def test_w_independent_spec_reduces_to_linear():
    spec = builtin_catalog("constant-disk", [0.5])
    cfg = SolverConfig(grid_n=128, box=L, ladder=(2, 4, 8))
    sol, report = solve_quasilinear(spec, cfg)
    # rung 2 truncates everything (K = 3 > 2); rungs 4 and 8 see the full
    # coefficient, and the outer loop stabilises after one solve
    assert report.rungs[-1]["outer_steps"] <= 2
    assert report.ladder_converged
    # support-radius semantics: coefficients vanish outside |z| <= 1
    chi = (np.abs(coordinates(L, 128)) <= 1).astype(complex)
    prob = LinearProblem(mu=GridField(L, 0.5 * chi), nu=zeros(L, 128), k_bound=0.5)
    direct = solve_linear(prob, cfg)
    np.testing.assert_array_equal(sol.f.data, direct.f.data)


def test_toy_w_dependent_outer_contraction():
    # small Lipschitz dependence on w forces geometric outer updates
    spec = builtin_catalog("w-damped-disk", [0.3])
    cfg = SolverConfig(grid_n=128, box=L, ladder=(2, 4), outer_tol=1e-8)
    sol, report = solve_quasilinear(spec, cfg)
    assert report.quasi_residual <= 1e-3
    assert report.ladder_converged


def test_degenerate_spec_rejected():
    spec = CoefficientSpec(mu_expr=parse_coefficient_expr("1.2"), label="too-big")
    with pytest.raises(NotContractive):
        solve_quasilinear(spec, FAST)


def test_sec4_ladder_run_small_grid():
    spec = builtin_catalog("paper-example-sec4")
    sol, report = solve_quasilinear(spec, FAST)
    # residual of the untruncated equation, a.e. over the support
    assert report.quasi_residual <= 1e-2
    assert report.degenerate_samples <= 3
    Z = coordinates(L, 128)
    inside = np.abs(Z) < 1
    J = np.abs(sol.fz.data) ** 2 - np.abs(sol.fzbar.data) ** 2
    assert (J[inside] > 0).mean() >= 0.99
    # solution is pinned by the normalization
    assert abs(complex(sol.f.interp(0j))) < 1e-9
    assert abs(complex(sol.f.interp(1.0 + 0j))) == pytest.approx(1.0, abs=1e-9)
    # rung distances are recorded for every margin
    assert all(len(row["d"]) == len(FAST.compact_margins) for row in report.rungs)


def test_round_off_degenerate_sample_excluded():
    # |mu| = 1 exactly at z = 0, but |exp(i*(theta + 0.005))| rounds below 1,
    # so without a margin the sample (K ~ 1e16) counted as elliptic and
    # dominated the residual
    spec = CoefficientSpec(
        mu_expr=parse_coefficient_expr("exp(i*(theta+0.005))*(1-r-abs(w))/(1+r+abs(w))"),
        label="sec4-phase-shifted",
    )
    _, report = solve_quasilinear(spec, SolverConfig(grid_n=64, box=L))
    assert report.quasi_residual <= 1e-5
    assert report.degenerate_samples == 1


def test_ladder_report_json(tmp_path):
    spec = builtin_catalog("constant-disk", [0.5])
    _, report = solve_quasilinear(spec, SolverConfig(grid_n=64, box=L, ladder=(2, 4)))
    path = tmp_path / "ladder.json"
    report.to_json(path)
    import json

    payload = json.loads(path.read_text())
    assert payload["final_rung"] == 4
    assert [row["rung"] for row in payload["rungs"]] == [2, 4]


def test_by_q_with_exact_majorant_matches_by_k():
    # Q is K of mu = 0.9 r itself, so both modes zero the same samples
    spec = builtin_catalog("radial-power", [0.9, 1])
    by_k = SolverConfig(grid_n=64, box=L, ladder=(2, 4, 8, 16, 32))
    by_q = replace(by_k, trunc_mode=BY_Q, q_majorant=parse_majorant("(1+0.9*r)/(1-0.9*r)"))
    sol_k, report_k = solve_quasilinear(spec, by_k)
    sol_q, report_q = solve_quasilinear(spec, by_q)
    np.testing.assert_array_equal(sol_q.f.data, sol_k.f.data)
    assert report_q.final_rung == report_k.final_rung == 32


def test_by_q_with_too_weak_majorant_raises():
    # 1/r does not bound K(z, f(z)) of sec4 near |z| = 1, where |f| is large,
    # so truncating by it keeps samples above the rung's ellipticity bound
    cfg = SolverConfig(grid_n=64, box=L, ladder=(2, 4), trunc_mode=BY_Q,
                       q_majorant=parse_majorant("1/r"))
    with pytest.raises(EllipticityViolation, match="majorant too weak"):
        solve_quasilinear(builtin_catalog("paper-example-sec4"), cfg)
