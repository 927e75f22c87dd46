#!/usr/bin/env python3
"""Wall, CPU and page-fault costs of repeated in-process `solve` commands.

Runs one warm-up `solve --ladder 4` of the spec at the grid size, which
fills the grid and FFT caches, then --repeat full `solve` commands
through `beltrami_lab.cli.main` in this process, each into a fresh
temporary directory, and prints one row per solve: its wall, user and
system seconds and the minor page faults it took (differences of
`resource.getrusage` around the call). The solves run on one thread of
every library thread pool, as the benchmark's do.

Usage: python scripts/solve_costs.py --spec constant-disk:0.5 --grid 512 --repeat 5
"""

import argparse
import contextlib
import io
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

from beltrami_lab import cli  # noqa: E402  (after the thread pools are pinned)

COMPLETED = (0, 3)  # exit codes of a solve that wrote its archive


def run(argv):
    """cli.main(argv) with its output discarded; exits on a failed solve."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code not in COMPLETED:
        sys.exit(f"error: {' '.join(argv)} exited {code}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--grid", type=int, required=True)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    solve = ["solve", "--spec", args.spec, "--grid", str(args.grid)]
    with tempfile.TemporaryDirectory() as tmp:
        run(solve + ["--ladder", "4", "--out", str(Path(tmp) / "warm")])
        print(f"{'solve':>5} {'wall_s':>8} {'user_s':>8} {'sys_s':>8} {'minor_faults':>12}")
        for k in range(1, args.repeat + 1):
            before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            run(solve + ["--out", str(Path(tmp) / f"solve-{k}")])
            wall, after = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF)
            print(f"{k:>5} {wall:8.4f} {after.ru_utime - before.ru_utime:8.4f} "
                  f"{after.ru_stime - before.ru_stime:8.4f} "
                  f"{after.ru_minflt - before.ru_minflt:12d}")


if __name__ == "__main__":
    main()
