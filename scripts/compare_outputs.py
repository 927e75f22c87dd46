#!/usr/bin/env python3
"""Compare the outputs of this checkout with those of a base revision.

    python3 scripts/compare_outputs.py --base HEAD

Extracts the base revision's tree with `git archive` into a temporary
directory, then runs one fixed list of commands through
`beltrami_lab.cli.main` on each tree, in a fresh Python process that
imports the package from that tree's `src/`: a `solve` and a `verify`
of each benchmark workload, of seven catalog specs at n = 128 and of
paper-example-sec4-phase2 at n = 512 (warm, loose and stalled solves on
the grid size whose FFT passes run on two threads), a
`verify` of an archive of a folded map (the only one whose cover test
finds overlapping bins), the `analyze` config of the CI smoke test,
`example --grid 32 --ladder 2,4`, a `verify --heatmaps` of the disk-0.5
and sec4 archives, and the totals line of
`scripts/w_dependent_scan.py`. For every file
written it prints `identical`, or else the max |difference| of a grid or
the JSON keys that differ, and then both exit codes of every command.
Exits 0 when nothing differs and every command completed on both trees
(exit 0 or 3, with every file it should write), else 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SOLVES = (
    # the benchmark workloads (perfbench/workloads.py) at seed 0
    ("sec4-256", "paper-example-sec4", 256),
    ("wdamped-128", "w-damped-disk:0.9", 128),
    ("disk-512", "constant-disk:0.5", 512),
    ("disk-0.5", "constant-disk:0.5", 128),
    ("disk-0.96", "constant-disk:0.96", 128),
    ("sec4", "paper-example-sec4", 128),
    ("phase2", "paper-example-sec4-phase2", 128),
    ("radial-0.9", "radial-power:0.9,1", 128),
    ("radial-0.96", "radial-power:0.96,1", 128),
    ("wdamped-0.55", "w-damped-disk:0.55", 128),
    ("phase2-512", "paper-example-sec4-phase2", 512),
)
ANALYZE_CONFIG = "spec = constant-disk:0.5\nQ = 3\nQ1 = 9\nz0 = 0 0.5\n"  # as in CI
FOLD = "fold"  # archive of f = min(x, -2x) + i y at n = 128, written by write_fold_archive
HEATMAPS = ("disk-0.5", "sec4")  # archives verified again with --heatmaps


ARCHIVE = ("f.blgf", "fz.blgf", "fzbar.blgf", "meta.json", "ladder.json")
COMPLETED = (0, 3)  # cli exit codes of a run that wrote its files


def commands(out: Path):
    """(name, argv, files it writes relative to out) of every cli.main call."""
    for name, spec, n in SOLVES:
        yield (f"solve {name}", ["solve", "--spec", spec, "--grid", str(n), "--out", str(out / name)],
               [f"{name}/{file}" for file in ARCHIVE])
        yield f"verify {name}", ["verify", "--archive", str(out / name)], [f"{name}/verification.json"]
    yield f"verify {FOLD}", ["verify", "--archive", str(out / FOLD)], [f"{FOLD}/verification.json"]
    for name in HEATMAPS:
        yield (f"verify --heatmaps {name}",
               ["verify", "--archive", str(out / name), "--heatmaps", "--out",
                str(out / f"heatmaps-{name}")],
               [f"heatmaps-{name}/{file}"
                for file in ("verification.json", "residual.ppm", "jacobian.ppm")])
    yield ("analyze", ["analyze", "--config", str(out / "analyze.ini"), "--out", str(out / "analyze")],
           ["analyze/conditions.json"])
    yield ("example", ["example", "--grid", "32", "--ladder", "2,4", "--out", str(out / "example")],
           ["example/example.json", *(f"example/solution/{file}"
                                      for file in (*ARCHIVE, "verification.json"))])


def write_fold_archive(out: Path):
    """Archive f = min(x, -2x) + i y, with its exact fz and fzbar and the
    spec constant-disk:0.5. The map folds the right half of the box back
    over the left, reversed: its triangles there flip, and where the folded
    half reaches past the other the boundary winds -1 times, so the cover
    test counts overlapping bins."""
    from beltrami_lab import coefficients, grid, linear_solver

    z = grid.coordinates(2.0, 128)
    right = z.real > 0
    # on the right f = -2x + i y = -z/2 - 3 conj(z)/2
    sol = linear_solver.Solution(
        f=grid.GridField(2.0, np.where(right, -2.0 * z.real, z.real) + 1j * z.imag),
        fz=grid.GridField(2.0, np.where(right, -0.5, 1.0) + 0j),
        fzbar=grid.GridField(2.0, np.where(right, -1.5, 0.0) + 0j),
        trace=linear_solver.IterationTrace(),
        normalization=linear_solver.Normalization(0j, 1.0, 0.0),
    )
    spec = coefficients.builtin_catalog("constant-disk", [0.5])
    linear_solver.save_solution(sol, out / FOLD, extra_meta={"spec": coefficients.spec_to_dict(spec)})


def run_tree(tree: Path, out: Path):
    """Run every command on the package under tree/src; write the exit codes
    and the scan's totals (without its time) to out/codes.json."""
    sys.path.insert(0, str(tree / "src"))
    from beltrami_lab import cli

    if not Path(cli.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"error: beltrami_lab imported from {cli.__file__}, not {tree}")
    (out / "analyze.ini").write_text(ANALYZE_CONFIG)
    write_fold_archive(out)
    codes = {}
    for name, argv, _ in commands(out):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                codes[name] = cli.main(argv)
            except Exception as exc:  # an uncaught error is an outcome to compare too
                codes[name] = f"raised {type(exc).__name__}: {exc}"
    scan = subprocess.run([sys.executable, str(tree / "scripts" / "w_dependent_scan.py")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")})
    totals = scan.stdout.strip().splitlines()[-1] if scan.stdout.strip() else ""
    codes["scan"] = scan.returncode
    codes["scan totals"] = totals.split(" time ")[0]
    (out / "codes.json").write_text(json.dumps(codes, indent=2))


def _grid(path: Path):
    raw = path.read_bytes()
    return raw[:16], np.frombuffer(raw[16:], dtype="<c16")


def _json_diff(a, b, where=""):
    """Paths of the keys whose values differ between two parsed JSON values."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [d for key in sorted(set(a) | set(b))
                for d in (_json_diff(a.get(key), b.get(key), f"{where}/{key}")
                          if key in a and key in b else [f"{where}/{key}"])]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in _json_diff(x, y, f"{where}/{i}")]
    return [] if a == b else [where or "/"]


def compare_file(base: Path, head: Path) -> str:
    if base.read_bytes() == head.read_bytes():
        return "identical"
    if base.suffix == ".blgf":
        (hb, gb), (hh, gh) = _grid(base), _grid(head)
        if hb != hh or gb.shape != gh.shape:
            return "grid header or size differs"
        return f"max |delta| {np.abs(gb - gh).max():.3g}"
    if base.suffix == ".json":
        keys = _json_diff(json.loads(base.read_text()), json.loads(head.read_text()))
        return "keys differ: " + ", ".join(keys) if keys else "same JSON, different text"
    return "differs"


def completed(out: Path, codes: dict) -> list[str]:
    """What did not complete in one tree's run: a command that exited
    other than 0 or 3 or raised, a file one should have written, the scan."""
    failed = [f"{name} exited {codes[name]!r}" for name, _, _ in commands(out)
              if codes[name] not in COMPLETED]
    failed += [f"{file} not written" for _, _, files in commands(out) for file in files
               if not (out / file).is_file()]
    if codes["scan"] != 0 or not codes["scan totals"].startswith("totals:"):
        failed.append(f"scan exited {codes['scan']!r} with totals {codes['scan totals']!r}")
    return failed


def compare(base_out: Path, head_out: Path) -> bool:
    """Print one line per file and per exit code, then what did not complete;
    True when all match and everything completed on both trees."""
    same = True
    files = sorted({p.relative_to(d) for d in (base_out, head_out) for p in d.rglob("*")
                    if p.is_file() and p.name not in ("codes.json", "analyze.ini")})
    for rel in files:
        b, h = base_out / rel, head_out / rel
        verdict = (compare_file(b, h) if b.exists() and h.exists()
                   else f"only in {'base' if b.exists() else 'head'}")
        same &= verdict == "identical"
        print(f"{rel}: {verdict}")
    codes_b = json.loads((base_out / "codes.json").read_text())
    codes_h = json.loads((head_out / "codes.json").read_text())
    for name in codes_b | codes_h:
        b, h = codes_b.get(name), codes_h.get(name)
        same &= b == h
        print(f"{name}: base {b!r}, head {h!r}{'' if b == h else '  DIFFERS'}")
    for label, out, codes in (("base", base_out, codes_b), ("head", head_out, codes_h)):
        for failure in completed(out, codes):
            same = False
            print(f"{label}: {failure}  FAILED")
    return same


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", help="git revision to compare with")
    p.add_argument("--run-tree", type=Path, help=argparse.SUPPRESS)
    p.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.run_tree:
        run_tree(args.run_tree, args.out)
        return 0
    if not args.base:
        p.error("--base is required")
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        tmp = Path(tmp)
        base_tree = tmp / "base-tree"
        base_tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive, check=True)
        for label, tree in (("base", base_tree), ("head", ROOT)):
            (tmp / label).mkdir()
            subprocess.run([sys.executable, __file__, "--run-tree", str(tree),
                            "--out", str(tmp / label)], check=True)
        return 0 if compare(tmp / "base", tmp / "head") else 1


if __name__ == "__main__":
    sys.exit(main())
