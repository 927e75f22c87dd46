from dataclasses import replace

import numpy as np
import pytest

from beltrami_lab import cli, linear_solver, quasilinear
from beltrami_lab.coefficients import (
    CATALOG,
    CoefficientSpec,
    builtin_catalog,
    coefficient_fields,
    rung_bound,
    truncate,
)
from beltrami_lab.conditions import parse_majorant
from beltrami_lab.errors import (
    EllipticityViolation,
    EmptyCompact,
    MaxIterations,
    NotContractive,
)
from beltrami_lab.grid import GridField, coordinates, from_function
from beltrami_lab.linear_solver import LinearProblem, solve_linear
from beltrami_lab.quasilinear import (
    SolverConfig,
    compact_sup_distance,
    compact_sup_distances,
    frozen_coefficient_fields,
    solve_quasilinear,
)
from beltrami_lab.transforms import beurling_transform

L = 2.0
FAST = SolverConfig(grid_n=128, box=L, ladder=(2, 4, 8, 16, 32, 64), outer_tol=1e-5)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(ladder=(4, 2))
    with pytest.raises(ValueError):
        SolverConfig(inner_tol=-1)
    with pytest.raises(ValueError):
        SolverConfig(compact_margins=(0.5, 1.0))


def test_config_rejects_a_margin_the_box_cannot_hold():
    with pytest.raises(ValueError, match="compact_margins"):
        SolverConfig(box=2.0, compact_margins=(2.0, 1.0))


@pytest.mark.parametrize("field, value", [
    ("ladder", ()), ("compact_margins", ()), ("max_inner", 0), ("max_outer", 0),
    ("ladder", (0, 2)),
])
def test_config_rejects_empty_or_zero(field, value):
    with pytest.raises(ValueError, match=field):
        SolverConfig(**{field: value})


def test_compact_sup_distance_trivial():
    f = from_function(L, 64, lambda z: z)
    assert compact_sup_distance(f, f, 0.5) == 0.0
    g = GridField(L, f.data + 0.1)
    assert compact_sup_distance(f, g, 0.5) == pytest.approx(0.1)


def test_compact_sup_distance_reads_the_square_block():
    # the block equals the full-grid mask of the samples at distance >=
    # margin from the boundary, margins on and between grid lines included
    rng = np.random.default_rng(4)
    for n in (16, 32, 64):
        Z = coordinates(L, n)
        f, g = (GridField(L, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                for _ in range(2))
        margins = (1.9, 1.5, 1.0, 0.5, 0.3, 2.0 / n, 1e-3)
        for margin in margins:
            mask = np.maximum(np.abs(Z.real), np.abs(Z.imag)) <= L - margin
            assert compact_sup_distance(f, g, margin) == np.abs(f.data - g.data)[mask].max()
        # all margins from one pass over the largest block, in any order
        for some in (margins, margins[::-1], (0.5, 1.5, 1.0)):
            assert compact_sup_distances(f, g, some) == [compact_sup_distance(f, g, m)
                                                         for m in some]


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
    index1, mu1, _ = frozen_coefficient_fields(spec, f1, rung=8)
    index2, mu2, _ = frozen_coefficient_fields(spec, f2, rung=8)
    np.testing.assert_array_equal(index1, index2)
    np.testing.assert_array_equal(mu1, mu2)


def test_frozen_fields_sec4_identity_map():
    spec = builtin_catalog("paper-example-sec4")
    ident = from_function(L, 64, lambda z: z)
    mu, _ = embedded_fields(*frozen_coefficient_fields(spec, ident, rung=64))
    Z = coordinates(L, 64)
    j, k = 32, 36  # z = 0.25, on the positive real axis
    assert Z[j, k] == 0.25
    assert mu[j, k] == pytest.approx(1.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("rung", [2, 4])
def test_frozen_fields_respect_rung_bound(rung):
    spec = builtin_catalog("paper-example-sec4")
    ident = from_function(L, 64, lambda z: z)
    _, mu, nu = frozen_coefficient_fields(spec, ident, rung=rung)
    s = np.abs(mu) + np.abs(nu)
    assert s.max() <= (rung - 1) / (rung + 1) + 1e-12


def embedded_fields(index, mu, nu, n=64):
    """Sampled coefficients on the whole n x n grid, +0 at every other sample."""
    grids = []
    for samples in (mu, nu):
        full = np.zeros(n * n, dtype=complex)
        full[index] = samples
        grids.append(full.reshape(n, n))
    return grids


CATALOG_PARAMS = {"constant-disk": [0.5], "radial-power": [0.9, 1.0], "w-damped-disk": [0.9]}


@pytest.mark.parametrize("entry", sorted(CATALOG))
def test_frozen_fields_equal_full_grid_sampling(entry):
    # sampling inside the support only must not change a bit of the grids
    spec = builtin_catalog(entry, CATALOG_PARAMS.get(entry, []))
    f = from_function(L, 64, lambda z: z + 0.3 * np.conj(z) * np.exp(-np.abs(z) ** 2))
    Z = coordinates(L, 64)
    for rung in (2, 8):
        ref = truncate(*coefficient_fields(spec, Z, f.data), rung, None, Z)
        got = embedded_fields(*frozen_coefficient_fields(spec, f, rung))
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()


def test_w_independent_spec_reduces_to_linear():
    spec = builtin_catalog("constant-disk", [0.5])
    cfg = SolverConfig(grid_n=128, box=L, ladder=(2, 4, 8))
    sol, report = solve_quasilinear(spec, cfg)
    # rung 2 truncates everything (K = 3 > 2); rung 4 sees the full
    # coefficient and stabilises after one solve; rung 8 samples the same
    # coefficients, so it keeps rung 4's solution and makes no solve
    assert repeated_rung_row(report.rungs[-1]) == (0, 0, 0, "tol", [0.0, 0.0, 0.0])
    assert report.ladder_converged
    # support-radius semantics: coefficients vanish outside |z| <= 1
    index = np.flatnonzero(np.abs(coordinates(L, 128)) <= 1)
    prob = LinearProblem(L, 128, index, np.full(index.size, 0.5 + 0j), np.zeros(index.size), 0.5)
    direct = solve_linear(prob, cfg)
    np.testing.assert_array_equal(sol.f.data, direct.f.data)


def repeated_rung_row(row):
    return (row["outer_steps"], row["picard_steps"], row["picard_steps_max"], row["stop"],
            row["d"])


def test_toy_w_dependent_outer_contraction():
    # small Lipschitz dependence on w forces geometric outer updates
    spec = builtin_catalog("w-damped-disk", [0.3])
    cfg = SolverConfig(grid_n=128, box=L, ladder=(2, 4), outer_tol=1e-8)
    sol, report = solve_quasilinear(spec, cfg)
    assert report.quasi_residual <= 1e-3
    assert report.ladder_converged


def test_degenerate_spec_rejected():
    spec = CoefficientSpec(mu="1.2", label="too-big")
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
        mu="exp(i*(theta+0.005))*(1-r-abs(w))/(1+r+abs(w))",
        label="sec4-phase-shifted",
    )
    _, report = solve_quasilinear(spec, SolverConfig(grid_n=64, box=L))
    assert report.quasi_residual <= 1e-5
    assert report.degenerate_samples == 1


def test_ladder_report_json(tmp_path):
    spec = builtin_catalog("constant-disk", [0.5])
    _, report = solve_quasilinear(spec, SolverConfig(grid_n=64, box=L, ladder=(2, 4)))
    path = tmp_path / "ladder.json"
    linear_solver._write_json(report, path, nulls=True)
    import json

    payload = json.loads(path.read_text())
    assert payload["final_rung"] == 4
    assert [row["rung"] for row in payload["rungs"]] == [2, 4]
    # the first rung has no distance: NaN in memory, null in the file
    assert np.isnan(report.rungs[0]["d"]).all()
    assert payload["rungs"][0]["d"] == [None] * len(report.margins)


def test_by_q_with_exact_majorant_matches_by_k():
    # Q is K of mu = 0.9 r itself, so both modes zero the same samples
    spec = builtin_catalog("radial-power", [0.9, 1])
    by_k = SolverConfig(grid_n=64, box=L, ladder=(2, 4, 8, 16, 32))
    by_q = replace(by_k, q_majorant=parse_majorant("(1+0.9*r)/(1-0.9*r)"))
    sol_k, report_k = solve_quasilinear(spec, by_k)
    sol_q, report_q = solve_quasilinear(spec, by_q)
    np.testing.assert_array_equal(sol_q.f.data, sol_k.f.data)
    assert report_q.final_rung == report_k.final_rung == 32


def test_by_q_with_too_weak_majorant_raises():
    # 1/r does not bound K(z, f(z)) of sec4 near |z| = 1, where |f| is large,
    # so truncating by it keeps samples above the rung's ellipticity bound
    cfg = SolverConfig(grid_n=64, box=L, ladder=(2, 4), q_majorant=parse_majorant("1/r"))
    with pytest.raises(EllipticityViolation, match="majorant too weak"):
        solve_quasilinear(builtin_catalog("paper-example-sec4"), cfg)


def test_capped_rungs_are_not_converged():
    # every rung of sec4 needs more than two outer steps, so each one is capped
    cfg = SolverConfig(grid_n=64, box=L, max_outer=2)
    _, report = solve_quasilinear(builtin_catalog("paper-example-sec4"), cfg)
    assert [row["stop"] for row in report.rungs] == ["max_outer"] * len(report.rungs)
    assert all(row["outer_steps"] == 2 for row in report.rungs)
    assert not report.ladder_converged


def test_stop_records_cap_and_stall():
    # outer_tol below round-off: rung 2 stalls at the smallest damping,
    # rung 4 runs out of steps; the residual alone would pass. The exact
    # counts follow round-off, so a change to the solve's arithmetic may
    # move them: keep one rung of each stop kind.
    cfg = SolverConfig(grid_n=64, box=L, ladder=(2, 4), outer_tol=1e-16)
    _, report = solve_quasilinear(builtin_catalog("w-damped-disk", [0.55]), cfg)
    assert [(row["outer_steps"], row["stop"]) for row in report.rungs] == [
        (23, "stalled"), (40, "max_outer")]
    assert report.quasi_residual <= cfg.residual_tol
    assert not report.ladder_converged


def test_rising_updates_end_the_rung_stalled():
    # a strongly w-dependent phase makes the outer updates rise for five
    # steps in a row at the smallest damping; the rung ends stalled
    spec = CoefficientSpec(mu="0.6*exp(i*16*re(w))", label="wild")
    _, report = solve_quasilinear(spec, SolverConfig(grid_n=32, box=L, ladder=(4, 8)))
    assert [row["stop"] for row in report.rungs] == ["stalled", "stalled"]
    assert not report.ladder_converged


def test_stalled_rung_reports_the_map_it_ends_on():
    # both rungs stall; rung 8's d must be the distance between the map the
    # ladder returns and the map of the same ladder cut at rung 4, not the
    # distance between iterates the stalled rungs did not end on
    spec = CoefficientSpec(mu="0.5*exp(i*8*im(w))")
    cfg = SolverConfig(grid_n=32, box=L, ladder=(4, 8))
    sol, report = solve_quasilinear(spec, cfg)
    cut, _ = solve_quasilinear(spec, replace(cfg, ladder=(4,)))
    assert [row["stop"] for row in report.rungs] == ["stalled", "stalled"]
    assert report.rungs[1]["d"] == [compact_sup_distance(sol.f, cut.f, margin)
                                    for margin in cfg.compact_margins]


# ---------------------------------------------------------------------------
# warm-started, inexact inner solves

def spy_solves(monkeypatch):
    """Record every solve_linear call of the ladder:
    (problem, start, tol, solution, L2 norm of its raw omega)."""
    calls = []

    def spy(prob, cfg, *args, omega0=None, tol=None, **kwargs):
        sol = solve_linear(prob, cfg, *args, omega0=omega0, tol=tol, **kwargs)
        omega_norm = np.linalg.norm(linear_solver.raw_omega(sol)) * sol.f.h
        calls.append((prob, omega0, cfg.inner_tol if tol is None else tol, sol, omega_norm))
        return sol

    monkeypatch.setattr(quasilinear, "solve_linear", spy)
    return calls


def solves_by_rung(calls, report):
    """The recorded solves of each rung, in ladder order (rungs differ in k_bound)."""
    return [[c for c in calls if c[0].k_bound == rung_bound(row["rung"])]
            for row in report.rungs]


@pytest.mark.parametrize("stop, spec, cfg", [
    ("tol", builtin_catalog("w-damped-disk", [0.5]),
     SolverConfig(grid_n=64, box=L, ladder=(2, 4))),
    ("stalled", CoefficientSpec(mu="0.6*exp(i*16*re(w))"),
     SolverConfig(grid_n=32, box=L, ladder=(4, 8))),
    ("max_outer", builtin_catalog("paper-example-sec4"),
     SolverConfig(grid_n=64, box=L, ladder=(2, 4), max_outer=2)),
], ids=["tol", "stalled", "max_outer"])
def test_rung_solves_start_cold_and_end_at_inner_tol(stop, spec, cfg, monkeypatch):
    # each case reads w and has rungs that end at `stop` after a solve looser
    # than inner_tol, so the rung's solution needs the continuation
    calls = spy_solves(monkeypatch)
    _, report = solve_quasilinear(spec, cfg)
    assert any(row["stop"] == stop for row in report.rungs)
    for row, solves in zip(report.rungs, solves_by_rung(calls, report)):
        if row["stop"] != stop:
            continue
        _, start, tol, _, _ = solves[0]
        # cold, and only as tight as the outer loop can use
        assert start is None and tol == quasilinear._FORCING_CAP
        # a warm solve ran looser than inner_tol, so the rung needed its continuation
        assert any(c[2] > cfg.inner_tol for c in solves)
        _, _, tol, sol, omega_norm = solves[-1]
        assert tol == cfg.inner_tol
        assert sol.trace.update_norms[-1] < cfg.inner_tol * max(1.0, omega_norm)
        assert len(solves) == row["outer_steps"] + 1


@pytest.mark.parametrize("spec", [
    builtin_catalog("radial-power", [0.9, 1]),
    CoefficientSpec(mu="0.3*exp(i*theta)", nu="0.2*r", label="w-free"),
], ids=["radial-power", "mu-and-nu"])
def test_w_independent_first_solve_is_cold_at_inner_tol(spec, monkeypatch):
    # the frozen coefficients repeat at once, so the first solve of each rung
    # is its only one: it runs to inner_tol and nothing is continued
    calls = spy_solves(monkeypatch)
    cfg = SolverConfig(grid_n=64, box=L, ladder=(2, 4))
    _, report = solve_quasilinear(spec, cfg)
    for row, solves in zip(report.rungs, solves_by_rung(calls, report)):
        assert (row["outer_steps"], row["stop"]) == (1, "tol")
        [(_, start, tol, _, _)] = solves
        assert start is None and tol == cfg.inner_tol


@pytest.mark.parametrize("mu, nu, reads", [
    ("0.5", "0", False),
    ("0.5*exp(i*theta)*r", "0.1*z", False),
    ("0.5", "0.3*exp(i*abs(w))", True),          # w only in nu
    ("0.5*exp(i*8*abs(w))", "0", True),
    ("0.3*conj(w)/(1+r)", "0", True),
    ("0.4*exp(i*re(w)^2)", "0", True),
])
def test_reads_w(mu, nu, reads):
    spec = CoefficientSpec(mu=mu, nu=nu)
    assert quasilinear._reads_w(spec) is reads


def test_warm_solves_halve_the_picard_work(monkeypatch):
    # against the cold inner_tol solve of every outer step's problem
    calls = spy_solves(monkeypatch)
    cfg = SolverConfig(grid_n=64, box=L)
    _, report = solve_quasilinear(builtin_catalog("w-damped-disk", [0.5]), cfg)
    warm = sum(row["picard_steps"] for row in report.rungs)
    problems = list({id(c[0]): c[0] for c in calls}.values())
    cold = sum(solve_linear(prob, cfg).trace.steps for prob in problems)
    assert warm == sum(c[3].trace.steps for c in calls)
    assert warm <= 0.5 * cold


def linear_residual(sol, prob):
    """Relative L2 residual of f_zbar = mu f_z + nu conj(f_z) over the whole grid."""
    fz = sol.fz.data
    mu, nu = embedded_fields(prob.index, prob.mu, prob.nu, prob.n)
    res = sol.fzbar.data - mu * fz - nu * np.conj(fz)
    return np.linalg.norm(res) / np.linalg.norm(fz)


def test_loose_warm_solves_skip_the_residual_check(monkeypatch):
    # a solve at the forcing cap leaves a residual near 7e-5; only the
    # solves run to inner_tol answer to residual_tol
    cfg = SolverConfig(grid_n=32, box=L, residual_tol=1e-6)
    calls = spy_solves(monkeypatch)
    _, report = solve_quasilinear(builtin_catalog("w-damped-disk", [0.5]), cfg)
    for solves in solves_by_rung(calls, report):  # each rung ends on a checked solve
        prob, _, tol, sol, _ = solves[-1]
        assert tol == cfg.inner_tol
        assert linear_residual(sol, prob) <= cfg.residual_tol
    assert report.ladder_converged
    prob = LinearProblem(L, 32, *frozen_coefficient_fields(builtin_catalog("w-damped-disk", [0.5]),
                                                           GridField(L, coordinates(L, 32)), 4),
                         rung_bound(4))
    strict = replace(cfg, residual_tol=1e-14)
    loose = solve_linear(prob, strict, tol=quasilinear._FORCING_CAP)
    assert loose.fz is None  # a loose solve forms no fz: form it from its omega
    omega = linear_solver.raw_omega(loose)
    fz = 1.0 + beurling_transform(GridField(L, omega)).data
    mu, nu = embedded_fields(prob.index, prob.mu, prob.nu, prob.n)
    res = omega - mu * fz - nu * np.conj(fz)
    assert np.linalg.norm(res) / np.linalg.norm(fz) > strict.residual_tol
    with pytest.raises(MaxIterations):
        solve_linear(prob, strict)


def test_ladder_picard_counts_match_picard_steps(monkeypatch):
    per_bound = {}
    step = linear_solver.picard_step

    def counted(omega, prob, *buffers):
        per_bound[prob.k_bound] = per_bound.get(prob.k_bound, 0) + 1
        return step(omega, prob, *buffers)

    monkeypatch.setattr(linear_solver, "picard_step", counted)
    calls = spy_solves(monkeypatch)
    cfg = SolverConfig(grid_n=64, box=L, ladder=(2, 4, 8))
    _, report = solve_quasilinear(builtin_catalog("paper-example-sec4"), cfg)
    # a cold solve's first step, mu + nu, is a step without a picard_step call
    for prob, start, *_ in calls:
        if start is None:
            per_bound[prob.k_bound] = per_bound.get(prob.k_bound, 0) + 1
    assert per_bound == {rung_bound(row["rung"]): row["picard_steps"] for row in report.rungs}
    for row, solves in zip(report.rungs, solves_by_rung(calls, report)):
        assert row["picard_steps_max"] == max(c[3].trace.steps for c in solves)


def test_only_solves_at_inner_tol_form_fz(monkeypatch, tmp_path):
    # a looser solve only steers the outer loop: S of its fixed point is not
    # formed and its fz is None; the archived solution has its fz
    fixed_point_S = []
    in_step = []
    step, transform = linear_solver.picard_step, linear_solver.beurling_transform

    def stepped(*args):
        in_step.append(None)
        try:
            return step(*args)
        finally:
            in_step.pop()

    def transformed(omega):
        if not in_step:
            fixed_point_S.append(None)
        return transform(omega)

    solves = []  # (tol, fixed-point S transforms, solution)

    def spy(prob, cfg, omega0=None, tol=None):
        before = len(fixed_point_S)
        sol = solve_linear(prob, cfg, omega0=omega0, tol=tol)
        solves.append((cfg.inner_tol if tol is None else tol, len(fixed_point_S) - before, sol))
        return sol

    monkeypatch.setattr(linear_solver, "picard_step", stepped)
    monkeypatch.setattr(linear_solver, "beurling_transform", transformed)
    monkeypatch.setattr(quasilinear, "solve_linear", spy)
    argv = ["solve", "--spec", "w-damped-disk:0.5", "--grid", "64", "--ladder", "2,4",
            "--out", str(tmp_path)]
    assert cli.main(argv) in (0, 3)
    inner_tol = SolverConfig().inner_tol
    assert any(tol > inner_tol for tol, _, _ in solves)
    assert any(tol == inner_tol for tol, _, _ in solves)
    for tol, transforms, sol in solves:
        assert transforms == (tol <= inner_tol)
        assert (sol.fz is None) == (tol > inner_tol)
    archived = linear_solver.load_solution(tmp_path)
    assert np.array_equal(archived.fz.data, solves[-1][2].fz.data)


# ---------------------------------------------------------------------------
# verdicts over a strongly w-dependent family (scripts/w_dependent_scan.py)

W_SCAN = [f"{a}*exp(i*{b}*{g})" for a in (0.3, 0.5, 0.6) for b in (4, 8, 16)
          for g in ("abs(w)", "re(w)", "im(w)", "abs(w)^2")]


@pytest.mark.parametrize("mu", W_SCAN)
def test_w_scan_verdicts_mean_what_they_say(mu, monkeypatch):
    # asserts only what a stop and a verdict mean, never how many members
    # converge, and re-derives each from the solves rather than the labels
    samplings = []  # (rung, f, index, mu, nu) of every frozen sampling, in order
    real = quasilinear.frozen_coefficient_fields

    def sampled(spec, f, rung, q=None):
        fields = real(spec, f, rung, q)
        samplings.append((rung, f, *fields))
        return fields

    monkeypatch.setattr(quasilinear, "frozen_coefficient_fields", sampled)
    calls = spy_solves(monkeypatch)
    spec = CoefficientSpec(mu=mu)
    cfg = SolverConfig(grid_n=32, box=L, ladder=(4, 8))
    sol, report = solve_quasilinear(spec, cfg)
    # a rung stopped at tol either sampled the coefficients it had just solved
    # or took its last outer step with an update below outer_tol
    for row, solves in zip(report.rungs, solves_by_rung(calls, report)):
        if row["stop"] != "tol":
            continue
        steps = row["outer_steps"]
        indices = [k for k, s in enumerate(samplings) if s[0] == row["rung"]]
        last = indices[-1]
        if len(indices) > steps:
            assert last > 0
            (*_, index_a, mu_a, nu_a), (*_, index_b, mu_b, nu_b) = samplings[last - 1:last + 1]
            assert np.array_equal(index_a, index_b)
            assert np.array_equal(mu_a, mu_b) and np.array_equal(nu_a, nu_b)
        else:
            update = compact_sup_distance(solves[steps - 1][3].f, samplings[last][1],
                                          min(cfg.compact_margins))
            assert update < cfg.outer_tol
    if not report.ladder_converged:
        return
    assert all(row["stop"] == "tol" for row in report.rungs)
    assert report.quasi_residual <= cfg.residual_tol
    # one more frozen-w solve at the final f moves it by less than outer_tol
    # on every tracked compact
    rung = report.final_rung
    again = solve_linear(LinearProblem(L, cfg.grid_n, *real(spec, sol.f, rung), rung_bound(rung)),
                         cfg)
    for margin in cfg.compact_margins:
        assert compact_sup_distance(again.f, sol.f, margin) < cfg.outer_tol


# ---------------------------------------------------------------------------
# a rung that repeats the last solved coefficients

def test_repeated_rung_makes_no_solve(monkeypatch):
    calls = spy_solves(monkeypatch)
    cfg = SolverConfig(grid_n=64, box=L, ladder=(2, 4, 8))
    _, report = solve_quasilinear(builtin_catalog("constant-disk", [0.5]), cfg)
    assert [len(solves) for solves in solves_by_rung(calls, report)] == [1, 1, 0]
    assert repeated_rung_row(report.rungs[-1]) == (0, 0, 0, "tol", [0.0, 0.0, 0.0])
    assert report.ladder_converged


def test_rung_after_a_capped_rung_is_solved_again(monkeypatch):
    # rung 4 stops at max_outer before it can see its coefficients repeat,
    # so rung 8 must not take its solution as settled: it solves again,
    # and only then does its zero update stop it at tol
    calls = spy_solves(monkeypatch)
    cfg = SolverConfig(grid_n=64, box=L, ladder=(4, 8), max_outer=1)
    _, report = solve_quasilinear(builtin_catalog("constant-disk", [0.5]), cfg)
    assert [(row["outer_steps"], row["stop"]) for row in report.rungs] == [
        (1, "max_outer"), (1, "tol")]
    assert [len(solves) for solves in solves_by_rung(calls, report)] == [1, 1]
    assert not report.ladder_converged


def test_repeated_rung_runs_no_stale_continuation(monkeypatch):
    # rung 4 samples k = 0.3 once and k = 0.5 after that, so it ends with a
    # loose warm solve and its continuation; rung 8 repeats k = 0.5 and must
    # not continue rung 4's last solve a second time
    real = quasilinear.frozen_coefficient_fields
    first = [builtin_catalog("constant-disk", [0.3])]

    def switching(spec, f, rung, q=None):
        return real(first.pop() if first else spec, f, rung, q)

    monkeypatch.setattr(quasilinear, "frozen_coefficient_fields", switching)
    calls = spy_solves(monkeypatch)
    cfg = SolverConfig(grid_n=64, box=L, ladder=(4, 8))
    _, report = solve_quasilinear(builtin_catalog("constant-disk", [0.5]), cfg)
    assert [len(solves) for solves in solves_by_rung(calls, report)] == [3, 0]
    assert calls[1][2] > cfg.inner_tol  # the warm solve ran loose
    assert repeated_rung_row(report.rungs[1]) == (0, 0, 0, "tol", [0.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# the untruncated residual of each rung

@pytest.mark.parametrize("spec, n, solved", [
    (builtin_catalog("paper-example-sec4"), 32, [True, True, True]),
    (builtin_catalog("constant-disk", [0.5]), 64, [True, True, False]),  # rung 8 repeats rung 4
], ids=["sec4-32", "disk-64"])
def test_each_rung_row_holds_the_residual_of_the_ladder_cut_there(spec, n, solved, monkeypatch):
    # the oracle is the same spec solved with the ladder cut after that rung
    calls = []
    residual = quasilinear.residual

    def counted(solution, spec):
        calls.append(solution)
        return residual(solution, spec)
    monkeypatch.setattr(quasilinear, "residual", counted)
    cfg = SolverConfig(grid_n=n, box=L, ladder=(2, 4, 8))
    _, report = solve_quasilinear(spec, cfg)
    rows = report.rungs
    assert [row["outer_steps"] > 0 for row in rows] == solved
    assert len(calls) == sum(solved)  # a repeated rung makes no call
    for prev, row in zip(rows, rows[1:]):
        if not row["outer_steps"]:
            assert row["quasi_residual"] == prev["quasi_residual"]
    assert report.quasi_residual == rows[-1]["quasi_residual"]
    for k, row in enumerate(rows):
        _, cut = solve_quasilinear(spec, replace(cfg, ladder=cfg.ladder[:k + 1]))
        assert row["quasi_residual"] == cut.quasi_residual
