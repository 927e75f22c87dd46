#!/usr/bin/env python3
"""Truncation-ladder convergence study for a catalog coefficient.

Runs the quasilinear solver over an extended ladder and prints, per
rung: outer steps, Picard steps (summed over the rung's inner solves),
why the outer loop stopped (tol, stalled or max_outer), the compact
sup-distance to the previous rung, and the running residual of the
untruncated equation. Useful for judging how deep a ladder a given
coefficient needs.

Usage: python scripts/ladder_convergence_study.py [--spec paper-example-sec4]
       [--grid 256] [--rungs 2,4,8,16,32,64,128]
"""

import argparse
import time

from beltrami_lab.cli import _resolve_spec
from beltrami_lab.quasilinear import SolverConfig, solve_quasilinear


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", default="paper-example-sec4")
    parser.add_argument("--grid", type=int, default=256)
    parser.add_argument("--rungs", default="2,4,8,16,32,64,128")
    args = parser.parse_args()
    spec = _resolve_spec(args.spec)
    ladder = tuple(int(x) for x in args.rungs.split(","))
    results = []
    # run increasing ladder prefixes so each row reports the residual of the
    # equation after stopping at that rung
    for depth in range(1, len(ladder) + 1):
        cfg = SolverConfig(grid_n=args.grid, ladder=ladder[:depth], ladder_tol=1e-12)
        t0 = time.time()
        sol, rep = solve_quasilinear(spec, cfg)
        results.append((ladder[depth - 1], rep, time.time() - t0))
    print(f"{'rung':>6} {'outer':>6} {'picard':>7} {'stop':>10} {'d_largest':>12} "
          f"{'quasi residual':>15} {'time':>7}")
    for rung, rep, dt in results:
        row = rep.rungs[-1]
        d = row["d"][-1] if row["d"] else float("nan")
        print(f"{rung:>6} {row['outer_steps']:>6} {row['picard_steps']:>7} {row['stop']:>10} "
              f"{d:>12.4e} {rep.quasi_residual:>15.4e} {dt:>6.1f}s")


if __name__ == "__main__":
    main()
