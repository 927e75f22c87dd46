"""Closed-loop solve/verify benchmark of the beltrami-lab command line.

    python3 perfbench/run.py --workload sec4-256 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`, never from an installed copy. One process acts as a single
client: each `beltrami_lab.cli.main([...])` call starts only after the
previous one returned, on one thread. A cycle is a `solve` into an
archive and a check of the archive, then the workload's number of
`verify` commands on it, each followed by a check of its report.
Cycles repeat until `--seconds` have passed.

--trace 0 prints the end-to-end metrics (medians over the run):
solve_s, verify_s, setup_s (median of five fresh processes timed from
start until the first operation could begin: imports, input generation,
warm-up) and peak_rss_mb. Operations failed over attempted are the
`failed` and `attempted` fields of the result.

--trace 1 alternates untraced and traced cycles of one solve and one
verify, at least two of each, and prints the per-layer metrics of a
traced cycle: work counts, which must repeat exactly between traced
cycles, and median times. The spans are written to .perfbench-work/.

Both modes end with the negative controls: corrupted copies of the last
archive must fail their check.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 5
WORKLOAD_NAMES = ("sec4-256", "wdamped-128", "disk-512")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="do the set-up only, print 'ready' and exit (times setup_s)")
    return p.parse_args(argv)


def bootstrap():
    """Make the checkout's src/ importable and pin library thread pools to one thread.

    numpy's FFT is single-threaded; a second OpenBLAS thread only spin-waits
    between the small dot products of the norms (measured: twice the CPU
    time for the same work, 10% slower wall time on 2 cores).
    """
    if not (SRC / "beltrami_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no beltrami_lab package under {SRC}; "
                         "run from the root of a source checkout")
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import beltrami_lab

    if Path(beltrami_lab.__file__).resolve().parent != SRC / "beltrami_lab":
        raise SystemExit(f"error: beltrami_lab imported from {beltrami_lab.__file__}, not {SRC}")


class Context:
    """Imports, generated inputs and warm-up of one run: its set-up."""

    def __init__(self, workload_name, seed, workdir):
        from beltrami_lab import cli

        import workloads

        self.cli = cli
        self.workload = workloads.WORKLOADS[workload_name]
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.value = self.workload.parameter(seed)
        self.spec_arg = self.workload.spec_arg(self.value)
        self.spec = workloads.spec_for(self.spec_arg)
        self.archive = workdir / "archive"
        # warm-up: fill the grid and FFT kernel caches at this grid size
        warm = ["solve", "--spec", "constant-disk:0.5", "--grid", str(self.workload.grid),
                "--ladder", "2", "--out", str(workdir / "warm")]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(warm) not in (0, 3):  # one rung: converged is not decidable
                raise SystemExit("error: warm-up solve failed")


def environment():
    import numpy as np
    import scipy

    fft = "numpy.fft (pocketfft)" if any("pocketfft" in m for m in sys.modules) else "numpy.fft"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fft_backend": fft,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS + ("BELTRAMI_THREADS",)},
    }


class Ops:
    """Every operation of the run: kind, wall time, verdict."""

    def __init__(self, ctx, tracer=None):
        self.ctx = ctx
        self.tracer = tracer
        self.rows = []  # (op id, kind, seconds, ok)

    def run(self, kind, argv, check, traced=False):
        op = len(self.rows)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if traced:
                    rc = self.tracer.call("cli.main", op, self.ctx.cli.main, argv)
                else:
                    rc = self.ctx.cli.main(argv)
            except Exception:  # a failed operation is counted, not fatal
                rc = traceback.format_exc()
            dt = time.perf_counter() - t0
        # exit 3 (completed but flagged) leaves a full archive: the check decides
        problems = [f"exit {rc} {err.getvalue().strip()}"] if rc not in (0, 3) else check()
        ok = not problems
        if not ok:
            print(f"FAILED {kind} op {op}: {'; '.join(problems)}", file=sys.stderr)
        self.rows.append((op, kind, dt, ok))
        return op, dt

    def cycle(self, verifies, traced=False):
        """solve, then `verifies` verifies; returns (op ids, summed op wall time)."""
        import workloads

        ctx, wl = self.ctx, self.ctx.workload
        shutil.rmtree(ctx.archive, ignore_errors=True)
        solve = ["solve", "--spec", ctx.spec_arg, "--grid", str(wl.grid), "--out", str(ctx.archive)]
        a, ta = self.run("solve", solve, traced=traced, check=lambda: workloads.check_archive(
            ctx.archive, wl, ctx.value, ctx.spec))
        ids, total = [a], ta
        for _ in range(verifies):
            (ctx.archive / "verification.json").unlink(missing_ok=True)
            b, tb = self.run("verify", ["verify", "--archive", str(ctx.archive)], traced=traced,
                             check=lambda: workloads.check_verification(ctx.archive, wl))
            ids.append(b)
            total += tb
        return ids, total

    def times(self, kind):
        return [dt for _, k, dt, _ in self.rows if k == kind]

    @property
    def failed(self):
        return sum(1 for row in self.rows if not row[3])


def negative_controls(ctx):
    """Number of corrupted archives whose check failed, out of those tried."""
    import workloads

    results = workloads.negative_controls(ctx.archive, ctx.workdir / "controls",
                                          ctx.workload, ctx.value, ctx.spec)
    caught = sum(1 for problems in results.values() if problems)
    for name, problems in results.items():
        print(f"negative control {name}: {'counted as failed' if problems else 'PASSED (bad)'}"
              + (f" ({problems[0]})" if problems else ""))
    return caught, len(results)


def time_setup(args):
    """Median wall time of fresh processes doing the set-up, from start to 'ready'."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        words = out.split()
        if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
            raise SystemExit(f"error: set-up probe failed: {err.strip()}")
        samples.append(float(words[1]) - t0)  # CLOCK_MONOTONIC is shared by all processes
    return statistics.median(samples)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_plain(args, ctx):
    ops = Ops(ctx)
    setup_s = time_setup(args)
    t0 = time.perf_counter()
    while True:
        ops.cycle(ctx.workload.verify_repeats)
        if time.perf_counter() - t0 >= args.seconds:
            break
    solve, verify = ops.times("solve"), ops.times("verify")
    metrics = {
        "solve_s": metric(statistics.median(solve), "s"),
        "verify_s": metric(statistics.median(verify), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"{args.workload} seed {args.seed} (parameter {ctx.value!r}): "
          f"solve_s median {metrics['solve_s']['value']:.4f} (n={len(solve)}), "
          f"verify_s median {metrics['verify_s']['value']:.4f} (n={len(verify)}), "
          f"setup_s {setup_s:.4f} (median of {SETUP_PROBES}), "
          f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f}, "
          f"failed_ops {ops.failed}/{len(ops.rows)}")
    return ops, metrics, True


def run_traced(args, ctx):
    import spans

    tracer = spans.Tracer()
    ops = Ops(ctx, tracer)
    plain, traced = [], []  # (op ids, op wall time) per cycle

    def traced_cycle():
        tracer.install()
        try:
            traced.append(ops.cycle(1, traced=True))
        finally:
            tracer.uninstall()

    t0 = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - t0 < args.seconds:
        plain.append(ops.cycle(1))
        traced_cycle()

    per_cycle = [spans.layer_metrics(tracer.spans, ids) for ids, _ in traced]
    ok = True
    for name in spans.COUNTS:
        seen = {m[name] for m in per_cycle}
        if len(seen) != 1:
            ok = False
            print(f"work count {name} differs between traced cycles: {sorted(seen)}",
                  file=sys.stderr)
    missing = spans.self_test(tracer.spans, traced[0][0], args.workload)
    if missing:
        ok = False
        print(f"self-test: no spans behind {', '.join(missing)}", file=sys.stderr)
    values = {name: (per_cycle[0][name] if name in spans.COUNTS
                     else statistics.median(m[name] for m in per_cycle))
              for name in per_cycle[0]}
    values["trace.overhead_frac"] = (statistics.median(t for _, t in traced)
                                     / statistics.median(t for _, t in plain) - 1.0)
    metrics = {name: metric(v, spans.unit(name)) for name, v in values.items()}
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path, environment())
    print(f"{len(tracer.spans)} spans of {len(traced)} traced cycles written to {path}; "
          f"{len(plain)} untraced cycles; failed_ops {ops.failed}/{len(ops.rows)}")
    return ops, metrics, ok


def main(argv=None):
    args = parse_args(argv)
    bootstrap()
    workdir = WORK / f"run-{os.getpid()}"
    try:
        ctx = Context(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(f"ready {time.monotonic()!r}", flush=True)
            return 0
        print("env " + json.dumps(environment(), sort_keys=True))
        ops, metrics, ok = (run_traced if args.trace else run_plain)(args, ctx)
        caught, tried = negative_controls(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": ok and ops.failed == 0 and caught == tried,
        "attempted": len(ops.rows),
        "failed": ops.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
