"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line. The expensive solves (the example
coefficient at grids 128 and 256) are shared module-scoped fixtures.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time

import numpy as np
import pytest

from beltrami_lab.cli import main as cli_main
from beltrami_lab.coefficients import (
    CoefficientSpec,
    builtin_catalog,
    coefficient_fields,
    truncate,
)
from beltrami_lab.dilatation import (
    inner_dilatation_p,
    map_dilatation,
    maximal_dilatation,
    tangential_dilatation,
)
from beltrami_lab.errors import NotContractive
from beltrami_lab.grid import GridField, coordinates, from_function, zeros
from beltrami_lab.linear_solver import IterationTrace, LinearProblem, Normalization, Solution, solve_linear
from beltrami_lab.quasilinear import SolverConfig, solve_quasilinear
from beltrami_lab.transforms import beurling_transform, cauchy_transform, derivatives
from beltrami_lab.verify import (
    continuity_modulus_fit,
    injectivity_check,
    inverse_dilatation_audit,
    jacobian_stats,
    residual,
)

L = 2.0


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sec4_256():
    spec = builtin_catalog("paper-example-sec4")
    t0 = time.time()
    sol, rep = solve_quasilinear(spec, SolverConfig(grid_n=256, box=L))
    return spec, sol, rep, time.time() - t0


@pytest.fixture(scope="module")
def sec4_128():
    spec = builtin_catalog("paper-example-sec4")
    sol, rep = solve_quasilinear(spec, SolverConfig(grid_n=128, box=L))
    return spec, sol, rep


def test_criterion_1_example_constants(tmp_path):
    t0 = time.time()
    code = cli_main(["example", "--out", str(tmp_path)])
    elapsed = time.time() - t0
    payload = json.loads((tmp_path / "example.json").read_text())
    disk = payload["disk_integral_of_1_over_r"]
    ok_disk = abs(disk - 2 * np.pi) <= 0.01 * 2 * np.pi
    ok_limit = (payload["Q_divergence"]["verdict"] == "CONVERGENT"
                and abs(payload["Q_divergence"]["limit"] - 0.5) <= 1e-4)
    ok_q1 = payload["Q1_divergence"]["verdict"] == "DIVERGENT"
    ok_time = elapsed < 10.0
    report(
        1,
        code in (0, 3) and ok_disk and ok_limit and ok_q1 and ok_time,
        f"disk integral {disk:.5f} (2pi within 1%: {ok_disk}), "
        f"I limit {payload['Q_divergence']['limit']:.6f} CONVERGENT: {ok_limit}, "
        f"Q1 DIVERGENT: {ok_q1}, runtime {elapsed:.1f}s < 10s: {ok_time}",
    )


def test_criterion_2_constant_disk_closed_form():
    t0 = time.time()
    n = 256
    Z = coordinates(L, n)
    chi = (np.abs(Z) < 1).astype(complex)
    zs = np.where(Z == 0, 1, Z)
    exact = np.where(np.abs(Z) <= 1, Z + 0.5 * np.conj(Z), Z + 0.5 / zs)
    mask = np.abs(np.abs(Z) - 1.0) > 0.1
    cfg = SolverConfig(grid_n=n, box=L)
    errs, ratios = [], []
    index = np.flatnonzero(chi)  # the samples of the disk
    half, zero = np.full(index.size, 0.5 + 0j), np.zeros(index.size, dtype=complex)
    for nu_side in (False, True):
        mu, nu = (zero, half) if nu_side else (half, zero)
        sol = solve_linear(LinearProblem(L, n, index, mu, nu, 0.5), cfg)
        raw = sol.f.data / sol.normalization.scale + sol.normalization.translation
        errs.append(np.abs(raw - exact)[mask].max())
        ratios.append(sol.trace.contraction_estimate)
    elapsed = time.time() - t0
    ok_err = max(errs) <= 1e-2
    ok_ratio = all(abs(r - 0.5) <= 0.05 for r in ratios)
    ok_time = elapsed < 30.0
    report(
        2,
        ok_err and ok_ratio and ok_time,
        f"sup errors (mu, nu twins) {errs[0]:.2e}, {errs[1]:.2e} <= 1e-2: {ok_err}; "
        f"contraction ratios {ratios[0]:.3f}, {ratios[1]:.3f} in 0.5+-0.05: {ok_ratio}; "
        f"runtime {elapsed:.1f}s < 30s: {ok_time}",
    )


def test_criterion_3_transform_oracles():
    # dbar(T w) = w on a mean-zero smooth bump
    def bump(z):
        b1 = np.exp(-np.abs(z - 0.2) ** 2 / 0.02)
        b2 = np.exp(-np.abs(z + 0.25j) ** 2 / 0.03)
        return b1 - b2 * (b1.sum() / b2.sum())

    omega = from_function(L, 256, bump)
    back = derivatives(cauchy_transform(omega), method="spectral").fzbar
    inv_err = np.linalg.norm(back.data - omega.data) / np.linalg.norm(omega.data)

    # isometry on mean-zero fields
    rng = np.random.default_rng(11)
    Z256 = coordinates(L, 256)
    inside = np.abs(Z256) < 0.9
    data = (rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256)))
    data *= np.exp(-np.abs(Z256) ** 2 / 0.1) * inside
    data[inside] -= data[inside].mean()
    om = GridField(L, data)
    iso_dev = abs(beurling_transform(om).norm_l2() / om.norm_l2() - 1.0)

    # chi oracles at n = 512 plus monotone refinement on the coarse probe set
    Z128 = coordinates(L, 128)
    probe_mask = np.abs(np.abs(Z128) - 1.0) > 0.15
    errsT, errsS = [], []
    for n in (128, 256, 512):
        step = n // 128
        Zn = coordinates(L, n)
        chi = GridField(L, (np.abs(Zn) < 1).astype(complex))
        zs = np.where(Z128 == 0, 1, Z128)
        exact_T = np.where(np.abs(Z128) <= 1, np.conj(Z128), 1 / zs)
        exact_S = np.where(np.abs(Z128) <= 1, 0, -1 / zs**2)
        T = cauchy_transform(chi).data[::step, ::step]
        S = beurling_transform(chi).data[::step, ::step]
        errsT.append(np.abs(T - exact_T)[probe_mask].max())
        errsS.append(np.abs(S - exact_S)[probe_mask].max())
    ok = (
        inv_err <= 1e-6
        and iso_dev <= 1e-8
        and errsT[2] <= 5e-2
        and errsS[2] <= 5e-2
        and errsT[0] > errsT[1] > errsT[2]
        and errsS[0] > errsS[1] > errsS[2]
    )
    report(
        3,
        ok,
        f"dbar(T w) identity {inv_err:.2e} <= 1e-6; isometry deviation {iso_dev:.2e} "
        f"<= 1e-8; chi errors at 512: T {errsT[2]:.3f}, S {errsS[2]:.3f} <= 5e-2; "
        f"refinement T {[f'{e:.3f}' for e in errsT]}, S {[f'{e:.3f}' for e in errsS]}",
    )


def test_criterion_4_quasilinear_example_run(sec4_256):
    spec, sol, rep, elapsed = sec4_256
    _, norms = residual(sol, spec)
    Z = coordinates(L, 256)
    inside = np.abs(Z) < 1
    J = np.abs(sol.fz.data) ** 2 - np.abs(sol.fzbar.data) ** 2
    frac_pos = float((J[inside] > 0).mean())
    inj = injectivity_check(sol)
    # zero folds = zero multiply-covered image regions. Triangle-orientation
    # flips may additionally occur inside the sub-resolution collapse around
    # the degenerate point z = 0; they must stay confined there and carry
    # negligible area, otherwise the run fails.
    from test_verify import _signed_area2, _triangles

    A, B, C, Az, _, _ = _triangles(sol)
    area2 = _signed_area2(A, B, C)
    flipped = area2 < 0
    flips_confined = bool(
        not flipped.any()
        or (np.abs(Az[flipped]).max() <= 0.15 and -area2[flipped].sum() <= 1e-3)
    )
    d_last = [row["d"][0] for row in rep.rungs[-3:]]
    ok = (
        rep.final_rung == 64
        and norms["l2_rel"] <= 1e-2
        and frac_pos >= 0.99
        and inj["folded_cell_count"] == 0
        and flips_confined
        and d_last[0] > d_last[1] > d_last[2]
        and elapsed < 300.0
    )
    report(
        4,
        ok,
        f"residual {norms['l2_rel']:.2e} <= 1e-2 ({norms['degenerate_samples']} degenerate "
        f"sample excluded); J>0 on {frac_pos:.2%} >= 99%; injectivity PASS: 0 folds "
        f"(cover test), {inj['orientation_flips']} sub-resolution flips confined to the "
        f"degenerate core: {flips_confined}; d_j over last rungs "
        f"{[f'{d:.3f}' for d in d_last]} decreasing; runtime {elapsed:.0f}s < 300s",
    )


def test_sec4_256_stalled_rung_is_flagged(sec4_256):
    # rung 8 cycles at the smallest damping; the ladder still reaches 64 and
    # is Cauchy, but a stalled rung means the run is not reported converged
    _, _, rep, _ = sec4_256
    stops = {row["rung"]: row["stop"] for row in rep.rungs}
    assert stops == {2: "tol", 4: "tol", 8: "stalled", 16: "tol", 32: "tol", 64: "tol"}
    assert not rep.ladder_converged


def test_criterion_5_dilatation_identities():
    rng = np.random.default_rng(17)
    n = 10_000
    # nondegenerate derivative samples
    fz = rng.normal(size=n) + 1j * rng.normal(size=n)
    fzbar = fz * rng.uniform(0, 0.95, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    ki2 = inner_dilatation_p(fz, fzbar, 2.0)
    kmap = map_dilatation(fz, fzbar)
    exact_identity = np.array_equal(ki2, kmap)

    mu = rng.uniform(0, 0.95, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    nu = (0.98 - np.abs(mu)) * rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    z0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    z0 = np.where(z == z0, z0 + 0.5, z0)
    theta = 2 * np.pi * rng.uniform(0, 1, n)
    kt = tangential_dilatation(mu, nu, z, z0, theta)
    K = maximal_dilatation(mu, nu)
    kt_below = bool(np.all(kt <= K * (1 + 1e-12) + 1e-12))

    spec = builtin_catalog("paper-example-sec4")
    ok_trunc = True
    worst = {}
    for rung in (2, 4, 8):
        zg = 0.99 * np.sqrt(rng.uniform(0, 1, 4096)) * np.exp(2j * np.pi * rng.uniform(0, 1, 4096))
        wg = rng.exponential(0.4, 4096) * np.exp(2j * np.pi * rng.uniform(0, 1, 4096))
        m, nn = truncate(*coefficient_fields(spec, zg, wg), rung)
        smax = float((np.abs(m) + np.abs(nn)).max())
        worst[rung] = smax
        ok_trunc &= smax <= (rung - 1) / (rung + 1) + 1e-12
    report(
        5,
        exact_identity and kt_below and ok_trunc,
        f"K_I2 == K_map exactly on {n} samples: {exact_identity}; K^T <= K on {n} "
        f"samples: {kt_below}; truncation ellipticity at rungs 2,4,8: "
        f"{[f'{worst[r]:.6f}' for r in (2, 4, 8)]} within (n-1)/(n+1)+1e-12: {ok_trunc}",
    )


def test_criterion_6_inverse_audit_oracle():
    n = 256
    f = from_function(L, n, lambda z: z + 0.5 * np.conj(z))
    sol = Solution(
        f=f,
        fz=from_function(L, n, lambda z: np.ones_like(z)),
        fzbar=from_function(L, n, lambda z: np.full_like(z, 0.5)),
        trace=IterationTrace(), normalization=Normalization(0j, 1.0, 0.0),
    )
    unit_disk = builtin_catalog("constant-disk", [0.5])  # f solves it inside the support
    out = inverse_dilatation_audit(sol, unit_disk, p=2.0)
    dev = max(abs(out["mean_KIp"] - 3.0), abs(out["max_KIp"] - 3.0)) / 3.0
    integral_ok = abs(out["integral_KIp"] - 3.0 * out["window_area"]) <= 0.01 * 3.0 * out["window_area"]
    report(
        6,
        dev <= 1e-3 and integral_ok,
        f"K_I2(g) uniform 3 within {dev:.2e} <= 1e-3; integral "
        f"{out['integral_KIp']:.4f} vs 3*area {3 * out['window_area']:.4f} within 1%",
    )


def test_criterion_7_continuity_fit_stability(sec4_128, sec4_256):
    spec, sol128, _ = sec4_128
    _, sol256, _, _ = sec4_256
    q_l1 = 2 * np.pi
    fit128 = continuity_modulus_fit(sol128, spec, q_l1, margin=0.5)
    fit256 = continuity_modulus_fit(sol256, spec, q_l1, margin=0.5)
    c1, c2 = fit128["C"], fit256["C"]
    ok = np.isfinite(c1) and np.isfinite(c2) and abs(c1 - c2) <= 0.2 * max(c1, c2)
    report(
        7,
        ok,
        f"fitted C on |z| <= 0.5: {c1:.4f} (n=128) vs {c2:.4f} (n=256), "
        f"relative spread {abs(c1 - c2) / max(c1, c2):.1%} <= 20%",
    )


def test_criterion_8_negative_controls():
    n = 256
    # corrupted solution: f scaled by 1.1 inside the disk only
    def corrupt(z):
        zs = np.where(z == 0, 1, z)
        base = np.where(np.abs(z) <= 1, z + 0.5 * np.conj(z), z + 0.5 / zs)
        return np.where(np.abs(z) <= 1, 1.1 * base, base)

    field = from_function(L, n, corrupt)
    pair = derivatives(field, method="fd")
    bad = Solution(
        f=field, fz=pair.fz, fzbar=pair.fzbar, trace=IterationTrace(),
        normalization=Normalization(0j, 1.0, 0.0),
    )
    unit_disk = builtin_catalog("constant-disk", [0.5])
    _, norms = residual(bad, unit_disk)
    ok_corrupt = norms["l2_rel"] > 1e-1

    conj_sol = Solution(
        f=from_function(L, n, np.conj),
        fz=zeros(L, n),
        fzbar=from_function(L, n, lambda z: np.ones_like(z)),
        trace=IterationTrace(), normalization=Normalization(0j, 1.0, 0.0),
    )
    ok_conj = jacobian_stats(conj_sol, unit_disk)["fraction_nonpositive"] == 1.0

    sq = from_function(L, n, lambda z: z * z)
    sq_pair = derivatives(sq, method="fd")
    sq_sol = Solution(
        f=sq, fz=sq_pair.fz, fzbar=sq_pair.fzbar, trace=IterationTrace(),
        normalization=Normalization(0j, 1.0, 0.0),
    )
    ok_square = not injectivity_check(sq_sol)["passed"]

    try:
        solve_quasilinear(
            CoefficientSpec(mu="1.2", label="degenerate"),
            SolverConfig(grid_n=64, box=L, ladder=(2, 4)),
        )
        ok_reject = False
    except NotContractive:
        ok_reject = True
    index = np.flatnonzero(np.abs(coordinates(L, 64)) < 1)
    try:
        solve_linear(
            LinearProblem(L, 64, index, np.full(index.size, 0.999 + 0j), np.zeros(index.size),
                          1.0),
            SolverConfig(grid_n=64, box=L),
        )
        ok_reject_linear = False
    except NotContractive:
        ok_reject_linear = True

    report(
        8,
        ok_corrupt and ok_conj and ok_square and ok_reject and ok_reject_linear,
        f"corrupted residual {norms['l2_rel']:.3f} > 0.1: {ok_corrupt}; conj(z) jacobian "
        f"fraction 1: {ok_conj}; z^2 injectivity FAIL: {ok_square}; k >= 1 rejected "
        f"with NotContractive (quasilinear {ok_reject}, linear {ok_reject_linear})",
    )
