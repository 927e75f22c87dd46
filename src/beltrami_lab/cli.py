"""Command-line entry point: analyze, solve, verify, example, catalog.

Exit codes: 0 completed, 1 usage, configuration or solver error, 2 majorant
bound violated (with witness), 3 run completed but flagged (the ladder
ended before its rungs were Cauchy, the untruncated residual exceeds
residual_tol, or a rung stopped stalled or at max_outer). Reports are
standard JSON (linear_solver._write_json): sorted keys, complex numbers as
[re, im]; a non-finite number is null in ladder.json and conditions.json
and an exit 1 elsewhere. Grids are in the BLGF binary format; identical
configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import coefficients, conditions, verify
from .coefficients import CATALOG, builtin_catalog, load_spec_file, spec_from_dict, spec_to_dict
from .dilatation import tangential_dilatation
from .errors import BeltramiLabError, BoundViolation, ConfigError
from .linear_solver import _write_json, load_solution, read_meta, save_solution
from .quasilinear import SolverConfig, solve_quasilinear


def _resolve_spec(name_or_path):
    """Catalog entry ("constant-disk:0.5"), bare entry, or spec file path."""
    base, _, param_str = str(name_or_path).partition(":")
    if base in CATALOG:
        try:
            params = _floats(param_str) if param_str else ()
        except ValueError as exc:  # a parameter that is not a number
            raise ConfigError(f"spec {name_or_path!r}: {exc}") from None
        return builtin_catalog(base, params)
    path = Path(name_or_path)
    if path.exists():
        return load_spec_file(path)
    raise ConfigError(f"spec {name_or_path!r} is neither a catalog entry nor a file")


def _config_flags(parser, command, path):
    """The `key = value` lines of a config file as flags of `command`.

    Each key is read as the subcommand's parser reads its flag: a switch
    takes `true` (flag given) or `false` (flag left out), an option with
    several values gets one token per whitespace-separated item, and any
    other key, known or not, becomes one `--key=value` token.
    """
    sub = parser.commands.get(command)
    tokens = []
    for key, value in coefficients.read_key_values(path).items():
        flag = "--" + key.replace("_", "-")
        action = sub._option_string_actions.get(flag) if sub else None
        if action is not None and action.nargs == 0:
            if value not in ("true", "false"):
                raise ConfigError(f"{path}: {key} = {value}: a switch takes true or false")
            if value == "true":
                tokens.append(flag)
        elif action is not None and action.nargs == "+":
            tokens += [flag, *value.split()]
        else:
            tokens.append(f"{flag}={value}")
    return tokens


def _solver_config(args, **defaults):
    """SolverConfig from the solver flags given (their dests are its field names)."""
    given = {f.name: getattr(args, f.name) for f in fields(SolverConfig)
             if getattr(args, f.name, None) is not None}
    return SolverConfig(**{**defaults, **given})


def _outdir(args, default):
    out = Path(args.out or default)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _solve(spec, cfg, out):
    """Solve; write the archive with its spec and ladder.json; print one row per rung."""
    t0 = time.time()
    solution, report = solve_quasilinear(spec, cfg)
    elapsed = time.time() - t0
    save_solution(solution, out, extra_meta={"spec": spec_to_dict(spec)})
    _write_json(report, out / "ladder.json", nulls=True)
    print(f"{'rung':>6} {'outer':>6} {'picard':>7} {'stop':>10} {'d_largest':>12} "
          f"{'quasi residual':>15}")
    for row in report.rungs:
        print(f"{row['rung']:>6} {row['outer_steps']:>6} {row['picard_steps']:>7} "
              f"{row['stop']:>10} {row['d'][-1]:>12.4e} {row['quasi_residual']:>15.4e}")
    print(f"solved {spec.label or 'spec'}: final rung {report.final_rung}, "
          f"residual {report.quasi_residual:.3e}, "
          f"ladder_converged={report.ladder_converged} ({elapsed:.1f}s)")
    print(f"archive written to {out}")
    return solution, report


def _verify(solution, spec, out, heatmaps):
    """Run the verification battery, write verification.json and print its verdicts."""
    report = verify.verification_report(solution, spec, heatmaps=out if heatmaps else None)
    _write_json(report, out / "verification.json")
    print(f"residual {report.residual_l2_rel:.3e} "
          f"(sup {report.residual_sup:.3e}, degenerate samples {report.degenerate_samples})")
    print(f"jacobian min {report.jacobian['min']:.3e}, "
          f"fraction J<=0 {report.jacobian['fraction_nonpositive']:.2%}")
    print(f"injectivity: {'PASS' if report.injectivity['passed'] else 'FAIL'} "
          f"({report.injectivity['orientation_flips']} flips, "
          f"{report.injectivity['folded_cell_count']} overlap bins)")
    print(f"report written to {out / 'verification.json'}")


# ---------------------------------------------------------------------------
# commands

def cmd_catalog(args):
    for name in sorted(CATALOG):
        print(f"{name:28s} {CATALOG[name][0]}")
    return 0


def cmd_analyze(args):
    spec = _resolve_spec(args.spec)
    Q = conditions.parse_majorant(args.Q)
    q1 = conditions.parse_majorant(args.Q1)
    report = conditions.audit_theorem1(spec, Q, q1, args.z0, w_max=args.w_max)
    out = _outdir(args, "analyze-out")  # a refused input leaves no directory
    _write_json(report, out / "conditions.json", nulls=True)
    print(f"bound check: max K - Q = {report.max_k_minus_q:.3g}, "
          f"max K^T - Q1 = {report.max_kt_minus_q1:.3g}")
    for probe in report.probes:
        print(f"z0 = {probe.z0}: FMO {probe.fmo.verdict}, "
              f"divergence {probe.divergence.verdict}, hypothesis_ok={probe.hypothesis_ok}")
    print(f"report written to {out}")
    return 0


def cmd_solve(args):
    spec = _resolve_spec(args.spec)
    # save_solution makes the directory: a refused spec or a failed solve leaves none
    _, report = _solve(spec, _solver_config(args), Path(args.out or "solve-out"))
    return 0 if report.ladder_converged else 3


def cmd_verify(args):
    src = Path(args.archive)
    meta = read_meta(src)
    solution = load_solution(src, meta)
    if args.spec:
        spec = _resolve_spec(args.spec)
    elif "spec" in meta:
        spec = spec_from_dict(meta["spec"], source=src / "meta.json")
    else:
        raise ConfigError("archive has no embedded spec; pass --spec")
    _verify(solution, spec, _outdir(args, src), args.heatmaps)  # a refused input leaves no directory
    return 0


def cmd_example(args):
    """End-to-end run of the unit-disk example with unbounded dilatation."""
    # inputs are checked before any output: no line printed, no directory made
    conditions.eps_ladder(args.delta)
    # grid 128 keeps the default example under 10 s
    cfg = None if args.skip_solve else _solver_config(args, grid_n=128)
    out = _outdir(args, "example-out")
    results = {}

    q_inv_r = conditions.parse_majorant("1/r")
    q_one = conditions.parse_majorant("1")
    disk_int = conditions.disk_integral(q_inv_r, 0.0, 1.0)
    results["disk_integral_of_1_over_r"] = disk_int
    results["disk_integral_expected"] = 2.0 * np.pi
    print(f"integral of 1/r over the unit disk = {disk_int:.5f} (2*pi = {2 * np.pi:.5f})")

    div_q = conditions.divergence_integral(q_inv_r, 0.0, args.delta)
    results["Q_divergence"] = div_q
    print(f"I(eps) for Q = 1/r: verdict {div_q.verdict}, limit = {div_q.limit:.6f} "
          f"(delta = {args.delta})")

    div_q1 = conditions.divergence_integral(q_one, 0.0, args.delta)
    results["Q1_divergence"] = div_q1
    print(f"I(eps) for Q1 = 1: verdict {div_q1.verdict}")

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
    if cfg is not None:
        spec = builtin_catalog("paper-example-sec4")
        solution, report = _solve(spec, cfg, out / "solution")
        _verify(solution, spec, out / "solution", heatmaps=False)
        if not report.ladder_converged:
            code = 3
    _write_json(results, out / "example.json")
    print(f"example report written to {out}")
    return code


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they exit 1 like every configuration error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def _floats(text):
    return tuple(float(x) for x in text.split(","))


def build_parser():
    parser = _Parser(
        prog="beltrami-lab",
        description="Numerical laboratory for two-characteristic Beltrami equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subcommand parser, for _config_flags

    def add_common(p):
        p.add_argument("--config", help="key = value file of long flags; flags override it")
        p.add_argument("--out", help="output directory")

    def add_solver(p):  # no defaults here: SolverConfig holds them
        p.add_argument("--grid", dest="grid_n", type=int, help="samples per axis (power of two)")
        p.add_argument("--box", type=float, help="box half-side L")
        p.add_argument("--ladder", type=_ints, help="comma-separated truncation rungs")
        p.add_argument("--margins", dest="compact_margins", type=_floats,
                       help="comma-separated compact margins")
        p.add_argument("--inner-tol", type=float)
        p.add_argument("--outer-tol", type=float)
        p.add_argument("--ladder-tol", type=float)
        p.add_argument("--residual-tol", type=float)
        p.add_argument("--max-inner", type=int)
        p.add_argument("--max-outer", type=int)

    p = sub.add_parser("catalog", help="list builtin coefficient specs")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("analyze", help="audit majorant bounds, FMO and divergence conditions")
    add_common(p)
    p.add_argument("--spec", required=True, help="catalog name or spec file path")
    p.add_argument("--Q", default="1", help="maximal-dilatation majorant expression in z, r, theta")
    p.add_argument("--Q1", default="1", help="tangential majorant expression")
    p.add_argument("--z0", nargs="+", type=complex, default=[0j],
                   help="probe points, e.g. 0 0.5+0.1j")
    p.add_argument("--w-max", type=float, default=100.0, help="largest |w| in the bound sampling")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", help="run the truncation ladder solver")
    add_common(p)
    add_solver(p)
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
    add_solver(p)
    p.add_argument("--delta", type=float, default=0.5, help="upper end of the divergence integrals")
    p.add_argument("--skip-solve", action="store_true", help="constants only, no solve")
    p.set_defaults(func=cmd_example)
    return parser


@lru_cache(maxsize=1)
def _parsers():
    """The --config pre-parser and the full parser, built once per process:
    an in-process caller of main (a benchmark, a script) pays the build once."""
    pre = _Parser(prog="beltrami-lab", add_help=False)
    pre.add_argument("--config")
    return pre, build_parser()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # --config is read before the full parse, so the file may supply
        # required flags; its keys become flags ahead of the command line,
        # whose values win
        pre, parser = _parsers()
        config = pre.parse_known_args(argv)[0].config
        if config:
            argv = argv[:1] + _config_flags(parser, argv[0], config) + argv[1:]
        args = parser.parse_args(argv)
        return args.func(args)
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        print(f"witness (z, w, theta): {exc.witness}", file=sys.stderr)
        return 2
    except (BeltramiLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
