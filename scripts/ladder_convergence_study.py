#!/usr/bin/env python3
"""Truncation-ladder convergence study for a catalog coefficient.

Runs the quasilinear solver once over an extended ladder and prints, per
rung: outer steps, Picard steps (summed over the rung's inner solves),
why the outer loop stopped (tol, stalled or max_outer), the compact
sup-distance to the previous rung, and the residual of the untruncated
equation after that rung, as `ladder.json` records them; then the total
time. Useful for judging how deep a ladder a given coefficient needs.

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
    # ladder_tol 1e-12 runs every rung unless two rungs give the same map
    cfg = SolverConfig(grid_n=args.grid, ladder=ladder, ladder_tol=1e-12)
    t0 = time.time()
    _, rep = solve_quasilinear(spec, cfg)
    elapsed = time.time() - t0
    print(f"{'rung':>6} {'outer':>6} {'picard':>7} {'stop':>10} {'d_largest':>12} "
          f"{'quasi residual':>15}")
    for row in rep.rungs:
        print(f"{row['rung']:>6} {row['outer_steps']:>6} {row['picard_steps']:>7} "
              f"{row['stop']:>10} {row['d'][-1]:>12.4e} {row['quasi_residual']:>15.4e}")
    print(f"total time {elapsed:.1f}s")


if __name__ == "__main__":
    main()
