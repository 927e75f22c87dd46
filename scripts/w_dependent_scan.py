#!/usr/bin/env python3
"""Scan of strongly w-dependent coefficients: the yardstick for verdicts.

Solves the 36 members mu = a*exp(i*b*g(w)), nu = 0, on the unit disk,
with a in {0.3, 0.5, 0.6}, b in {4, 8, 16} and g in {|w|, Re w, Im w,
|w|^2}, and prints, per member: each rung's stop (tol, stalled or
max_outer), the outer and Picard steps summed over the rungs, the
untruncated residual and the verdict (the exit code `solve` would give:
0 when the ladder converged, else 3). The last line holds the totals.
No sample is truncated at either default rung (|mu| = a <= rung_bound(4)),
so every stop that is not tol comes from the outer loop.

Usage: python scripts/w_dependent_scan.py [--grid 32] [--rungs 4,8]
"""

import argparse
import itertools
import time

from beltrami_lab.coefficients import CoefficientSpec
from beltrami_lab.quasilinear import SolverConfig, solve_quasilinear

AMPLITUDES = (0.3, 0.5, 0.6)
FREQUENCIES = (4, 8, 16)
PHASES = ("abs(w)", "re(w)", "im(w)", "abs(w)^2")


def family():
    """The scan's specs, labelled by their mu formula."""
    for a, b, g in itertools.product(AMPLITUDES, FREQUENCIES, PHASES):
        mu = f"{a}*exp(i*{b}*{g})"
        yield CoefficientSpec(mu=mu, label=mu)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grid", type=int, default=32)
    parser.add_argument("--rungs", default="4,8")
    args = parser.parse_args()
    cfg = SolverConfig(grid_n=args.grid, ladder=tuple(int(x) for x in args.rungs.split(",")))
    print(f"{'mu':<26} {'stops':<18} {'outer':>6} {'picard':>7} {'quasi residual':>15} "
          f"{'exit':>5}")
    members = converged = outer = picard = 0
    t0 = time.time()
    for spec in family():
        _, report = solve_quasilinear(spec, cfg)
        stops = ",".join(row["stop"] for row in report.rungs)
        steps = sum(row["outer_steps"] for row in report.rungs)
        inner = sum(row["picard_steps"] for row in report.rungs)
        print(f"{spec.label:<26} {stops:<18} {steps:>6} {inner:>7} "
              f"{report.quasi_residual:>15.4e} {0 if report.ladder_converged else 3:>5}")
        members += 1
        converged += report.ladder_converged
        outer += steps
        picard += inner
    print(f"totals: members {members} converged {converged} outer {outer} picard {picard} "
          f"time {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
