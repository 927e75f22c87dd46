"""Command-line entry point: analyze, solve, verify, example, catalog.

Exit codes: 0 completed, 1 configuration or solver error, 2 majorant
bound violated (with witness), 3 run completed but flagged (truncation
ladder exhausted before its tolerance). Reports are JSON with sorted
keys, evidence ladders as CSV, grids in the BLGF binary format;
identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import coefficients, conditions, verify
from .coefficients import CATALOG, builtin_catalog, load_spec_file, spec_from_dict, spec_to_dict
from .dilatation import jacobian, tangential_dilatation
from .errors import BeltramiLabError, BoundViolation, ConfigError
from .linear_solver import save_solution
from .quasilinear import SolverConfig, solve_quasilinear
from .verify import write_ppm


def _load_config_file(path):
    parser = configparser.ConfigParser()
    with open(path) as fh:
        content = fh.read()
    if not content.lstrip().startswith("["):
        content = "[run]\n" + content
    parser.read_string(content)
    flat = {}
    for section in parser.sections():
        for key, val in parser.items(section):
            flat[key.replace("-", "_")] = val
    return flat


def _resolve_spec(name_or_path):
    """Catalog entry ("constant-disk:0.5"), bare entry, or spec file path."""
    base, _, param_str = str(name_or_path).partition(":")
    if base in CATALOG:
        params = [float(x) for x in param_str.split(",")] if param_str else []
        return builtin_catalog(base, params)
    path = Path(name_or_path)
    if path.exists():
        return load_spec_file(path)
    raise ConfigError(f"spec {name_or_path!r} is neither a catalog entry nor a file")


def _merge(args, file_cfg, key, cast, default):
    """Flags override config file values, which override defaults."""
    flag_val = getattr(args, key, None)
    if flag_val is not None:
        return flag_val
    if key in file_cfg:
        return cast(file_cfg[key])
    return default


def _solver_config(args, file_cfg):
    ladder = _merge(args, file_cfg, "ladder", str, "2,4,8,16,32,64")
    if isinstance(ladder, str):
        ladder = tuple(int(x) for x in ladder.split(","))
    margins = _merge(args, file_cfg, "margins", str, "1.5,1.0,0.5")
    if isinstance(margins, str):
        margins = tuple(float(x) for x in margins.split(","))
    return SolverConfig(
        grid_n=int(_merge(args, file_cfg, "grid", int, 256)),
        box=float(_merge(args, file_cfg, "box", float, 2.0)),
        ladder=ladder,
        inner_tol=float(_merge(args, file_cfg, "inner_tol", float, 1e-10)),
        outer_tol=float(_merge(args, file_cfg, "outer_tol", float, 1e-5)),
        ladder_tol=float(_merge(args, file_cfg, "ladder_tol", float, 2e-2)),
        residual_tol=float(_merge(args, file_cfg, "residual_tol", float, 1e-3)),
        max_inner=int(_merge(args, file_cfg, "max_inner", int, 500)),
        max_outer=int(_merge(args, file_cfg, "max_outer", int, 40)),
        compact_margins=margins,
    )


def _outdir(args, file_cfg, default):
    out = Path(_merge(args, file_cfg, "out", str, default))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _write_ladder_csv(report, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eps", "value"])
        for eps, val in zip(report.eps, report.partials):
            writer.writerow([eps, val])


# ---------------------------------------------------------------------------
# commands

def cmd_catalog(args, file_cfg):
    for name in sorted(CATALOG):
        _, doc = CATALOG[name]
        print(f"{name:28s} {doc}")
    return 0


def cmd_analyze(args, file_cfg):
    spec = _resolve_spec(args.spec)
    out = _outdir(args, file_cfg, "analyze-out")
    Q = conditions.parse_majorant(args.Q or "1", role="Q")
    q1 = conditions.parse_majorant(args.Q1 or "1", role="Q1")
    probes = [complex(p) for p in (args.z0 or ["0"])]
    w_max = float(args.w_max) if args.w_max is not None else 100.0
    report = conditions.audit_theorem1(spec, Q, q1, probes, w_max=w_max)
    _write_json(report.to_dict(), out / "conditions.json")
    for i, probe in enumerate(report.probes):
        _write_ladder_csv(probe.divergence, out / f"divergence-probe{i}.csv")
    print(f"bound check: max K - Q = {report.max_k_minus_q:.3g}, "
          f"max K^T - Q1 = {report.max_kt_minus_q1:.3g}")
    for probe in report.probes:
        print(f"z0 = {probe.z0}: FMO {probe.fmo.verdict}, "
              f"divergence {probe.divergence.verdict}, hypothesis_ok={probe.hypothesis_ok}")
    print(f"report written to {out}")
    return 0


def cmd_solve(args, file_cfg):
    spec = _resolve_spec(args.spec)
    cfg = _solver_config(args, file_cfg)
    out = _outdir(args, file_cfg, "solve-out")
    t0 = time.time()
    solution, report = solve_quasilinear(spec, cfg)
    elapsed = time.time() - t0
    save_solution(
        solution,
        out,
        extra_meta={
            "spec": spec_to_dict(spec),
            "quasi_residual": report.quasi_residual,
            "degenerate_samples": report.degenerate_samples,
        },
    )
    report.to_json(out / "ladder.json")
    print(f"solved {spec.label or args.spec}: final rung {report.final_rung}, "
          f"residual {report.quasi_residual:.3e}, "
          f"ladder_converged={report.ladder_converged} ({elapsed:.1f}s)")
    print(f"archive written to {out}")
    return 0 if report.ladder_converged else 3


def cmd_verify(args, file_cfg):
    from .linear_solver import load_solution

    src = Path(args.archive)
    out = _outdir(args, file_cfg, src)
    solution = load_solution(src)
    with open(src / "meta.json") as fh:
        meta = json.load(fh)
    if args.spec:
        spec = _resolve_spec(args.spec)
    elif "spec" in meta:
        spec = spec_from_dict(meta["spec"])
    else:
        raise ConfigError("archive has no embedded spec; pass --spec")
    report = verify.verification_report(solution, spec)
    report.to_json(out / "verification.json")
    if args.heatmaps:
        res_field, _ = verify.residual(solution, spec)
        write_ppm(np.abs(res_field.data), out / "residual.ppm")
        write_ppm(jacobian(solution.fz.data, solution.fzbar.data), out / "jacobian.ppm")
    print(f"residual {report.residual_l2_rel:.3e} "
          f"(sup {report.residual_sup:.3e}, degenerate samples {report.degenerate_samples})")
    print(f"jacobian min {report.jacobian['min']:.3e}, "
          f"fraction J<=0 {report.jacobian['fraction_nonpositive']:.2%}")
    print(f"injectivity: {'PASS' if report.injectivity['passed'] else 'FAIL'} "
          f"({report.injectivity['orientation_flips']} flips, "
          f"{report.injectivity['folded_cell_count']} overlap bins)")
    print(f"report written to {out / 'verification.json'}")
    return 0


def cmd_example(args, file_cfg):
    """End-to-end run of the unit-disk example with unbounded dilatation."""
    out = _outdir(args, file_cfg, "example-out")
    results = {}

    q_inv_r = conditions.parse_majorant("1/r")
    q_one = conditions.parse_majorant("1")
    disk_int = conditions.disk_integral(q_inv_r, 0.0, 1.0)
    results["disk_integral_of_1_over_r"] = disk_int
    results["disk_integral_expected"] = 2.0 * np.pi
    print(f"integral of 1/r over the unit disk = {disk_int:.5f} (2*pi = {2 * np.pi:.5f})")

    delta = float(args.delta) if args.delta is not None else 0.5
    div_q = conditions.divergence_integral(q_inv_r, 0.0, delta)
    results["Q_divergence"] = {"verdict": div_q.verdict, "limit": div_q.limit}
    print(f"I(eps) for Q = 1/r: verdict {div_q.verdict}, limit = {div_q.limit:.6f} "
          f"(delta = {delta})")
    _write_ladder_csv(div_q, out / "I-of-eps-Q.csv")

    div_q1 = conditions.divergence_integral(q_one, 0.0, delta)
    results["Q1_divergence"] = {"verdict": div_q1.verdict}
    print(f"I(eps) for Q1 = 1: verdict {div_q1.verdict}")
    _write_ladder_csv(div_q1, out / "I-of-eps-Q1.csv")

    # tangential dilatation samples for both phase variants at r=0.3, |w|=0.2
    r_probe, w_probe = 0.3, 0.2
    kt = {}
    for name in ("paper-example-sec4", "paper-example-sec4-phase2"):
        spec = builtin_catalog(name)
        vals = []
        for th in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            z = r_probe * np.exp(1j * th)
            mu, nu = coefficients.eval_coefficients(spec, z, w_probe)
            vals.append(float(tangential_dilatation(mu, nu, z, 0.0, 0.0)))
        kt[name] = vals
        spread = max(vals) - min(vals)
        print(f"K^T({name}) at r={r_probe}, |w|={w_probe}: "
              f"min {min(vals):.9f}, max {max(vals):.9f}")
        if max(vals) >= 1.0:
            print(f"  note: exceeds 1 although the algebraic chain r+|w| = {r_probe + w_probe} "
                  f"suggests otherwise; the printed phase does not cancel for theta != 0")
        if spread < 1e-9:
            print(f"  phase-squared variant is theta-independent: K^T = r+|w| = "
                  f"{r_probe + w_probe}")
    results["kt_samples"] = kt

    code = 0
    if not args.skip_solve:
        spec = builtin_catalog("paper-example-sec4")
        cfg = _solver_config(args, file_cfg)
        if getattr(args, "grid", None) is None and "grid" not in file_cfg:
            cfg = replace(cfg, grid_n=128)  # keep the default example under 10 s
        t0 = time.time()
        solution, report = solve_quasilinear(spec, cfg)
        elapsed = time.time() - t0
        vrep = verify.verification_report(solution, spec, with_inverse=False)
        results["solve"] = {
            "grid": cfg.grid_n,
            "final_rung": report.final_rung,
            "quasi_residual": report.quasi_residual,
            "degenerate_samples": report.degenerate_samples,
            "jacobian_fraction_nonpositive": vrep.jacobian["fraction_nonpositive"],
            "injectivity_passed": vrep.injectivity["passed"],
            "folds": vrep.injectivity["folded_cell_count"],
            "orientation_flips": vrep.injectivity["orientation_flips"],
        }
        save_solution(solution, out / "solution", extra_meta={
            "spec": spec_to_dict(spec),
        })
        report.to_json(out / "solution" / "ladder.json")
        flips = vrep.injectivity["orientation_flips"]
        print(f"solved the example at n={cfg.grid_n}: residual {report.quasi_residual:.3e}, "
              f"jacobian fraction J<=0 {vrep.jacobian['fraction_nonpositive']:.2%}, "
              f"injectivity {vrep.injectivity['folded_cell_count']} folds"
              + (f" ({flips} sub-resolution flips near the degenerate point)" if flips else "")
              + f" ({elapsed:.1f}s)")
        if not report.ladder_converged:
            code = 3
    _write_json(results, out / "example.json")
    print(f"example report written to {out}")
    return code


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="beltrami-lab",
        description="Numerical laboratory for two-characteristic Beltrami equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI-style config file; flags override it")
        p.add_argument("--out", help="output directory")
        p.add_argument("--grid", type=int, help="samples per axis (power of two)")
        p.add_argument("--box", type=float, help="box half-side L")
        p.add_argument("--ladder", help="comma-separated truncation rungs")
        p.add_argument("--margins", help="comma-separated compact margins")
        p.add_argument("--inner-tol", dest="inner_tol", type=float)
        p.add_argument("--outer-tol", dest="outer_tol", type=float)
        p.add_argument("--ladder-tol", dest="ladder_tol", type=float)
        p.add_argument("--residual-tol", dest="residual_tol", type=float)
        p.add_argument("--max-inner", dest="max_inner", type=int)
        p.add_argument("--max-outer", dest="max_outer", type=int)

    p = sub.add_parser("catalog", help="list builtin coefficient specs")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("analyze", help="audit majorant bounds, FMO and divergence conditions")
    add_common(p)
    p.add_argument("--spec", required=True, help="catalog name or spec file path")
    p.add_argument("--Q", help="maximal-dilatation majorant expression in z, r, theta")
    p.add_argument("--Q1", help="tangential majorant expression")
    p.add_argument("--z0", nargs="*", help="probe points, e.g. 0 0.5+0.1j")
    p.add_argument("--w-max", dest="w_max", help="largest |w| in the bound sampling ladder")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", help="run the truncation ladder solver")
    add_common(p)
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="verify a solution archive")
    add_common(p)
    p.add_argument("--archive", required=True)
    p.add_argument("--spec", help="override the spec stored in the archive")
    p.add_argument("--heatmaps", action="store_true", help="write PPM heatmaps")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("example", help="reproduce the unit-disk example end to end")
    add_common(p)
    p.add_argument("--delta", help="upper endpoint of the divergence integrals")
    p.add_argument("--skip-solve", action="store_true", help="constants only, no solve")
    p.set_defaults(func=cmd_example)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            file_cfg = _load_config_file(args.config)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 1
    try:
        return args.func(args, file_cfg)
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        print(f"witness (z, w, theta): {exc.witness}", file=sys.stderr)
        return 2
    except BeltramiLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
