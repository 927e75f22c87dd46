import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beltrami_lab
from beltrami_lab import verify
from beltrami_lab.cli import main
from beltrami_lab.coefficients import builtin_catalog
from beltrami_lab.dilatation import jacobian
from beltrami_lab.linear_solver import load_solution


def run(args):
    return main(args)


def test_catalog_lists_entries(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "constant-disk" in out
    assert "paper-example-sec4" in out


def test_example_constants(tmp_path, capsys):
    code = run(["example", "--skip-solve", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "example.json").read_text())
    assert payload["disk_integral_of_1_over_r"] == pytest.approx(2 * np.pi, rel=0.01)
    assert payload["Q_divergence"]["verdict"] == "CONVERGENT"
    assert payload["Q_divergence"]["limit"] == pytest.approx(0.5, abs=1e-4)
    assert payload["Q1_divergence"]["verdict"] == "DIVERGENT"
    # phase-squared variant evaluates to r + |w| = 0.5 for every theta
    kt2 = payload["kt_samples"]["paper-example-sec4-phase2"]
    assert max(abs(v - 0.5) for v in kt2) < 1e-9
    # the printed phase spreads with theta and crosses 1 (flagged in output)
    kt1 = payload["kt_samples"]["paper-example-sec4"]
    assert max(kt1) > 1.0
    assert (tmp_path / "I-of-eps-Q.csv").exists()
    out = capsys.readouterr().out
    assert "DIVERGENT" in out


def test_analyze_constant_disk(tmp_path):
    code = run([
        "analyze", "--spec", "constant-disk-file", "--out", str(tmp_path),
    ])
    assert code == 1            # unknown spec name is a config error


def test_analyze_writes_report(tmp_path):
    code = run([
        "analyze", "--spec", "paper-example-sec4", "--Q", "1/r", "--Q1", "1",
        "--z0", "0", "--w-max", "0.01", "--out", str(tmp_path / "a"),
    ])
    # the printed phase violates K^T <= 1 even for small w
    assert code == 2

    code = run([
        "analyze", "--spec", "paper-example-sec4-phase2", "--Q", "1/r", "--Q1", "1",
        "--z0", "0", "--w-max", "0.01", "--out", str(tmp_path / "b"),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "b" / "conditions.json").read_text())
    assert payload["probes"][0]["divergence"]["verdict"] == "DIVERGENT"
    assert (tmp_path / "b" / "divergence-probe0.csv").exists()


def test_analyze_bound_violation_exit_code(tmp_path):
    code = run([
        "analyze", "--spec", "constant-disk:0.5", "--Q", "0.5",
        "--z0", "0", "--out", str(tmp_path),
    ])
    assert code == 2


def test_solve_and_verify_archive(tmp_path):
    out = tmp_path / "run"
    code = run([
        "solve", "--spec", "constant-disk:0.5", "--grid", "64", "--ladder", "2,4,8",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "f.blgf").exists()
    assert (out / "ladder.json").exists()
    meta = json.loads((out / "meta.json").read_text())
    assert meta["spec"]["support_radius"] == 1.0
    # each fact once: box and size live in the grid headers, rung and
    # quasi_residual in ladder.json, label and support in the spec
    assert set(meta) == {"normalization", "residual_l2_rel", "spec", "trace"}
    assert set(meta["trace"]) == {"update_norms"}

    code = run(["verify", "--archive", str(out), "--heatmaps"])
    assert code == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["residual_l2_rel"] <= 1e-3
    assert report["injectivity"]["passed"]
    assert (out / "residual.ppm").exists()
    assert (out / "jacobian.ppm").exists()


@pytest.mark.parametrize("spec", ["constant-disk:0.5", "paper-example-sec4"])
def test_one_residual_per_archive(spec, tmp_path):
    out = tmp_path / "run"
    # sec4 stops at rung 8 before the ladder converges (exit 3)
    assert run(["solve", "--spec", spec, "--grid", "64", "--ladder", "2,4,8",
                "--out", str(out)]) in (0, 3)
    assert run(["verify", "--archive", str(out)]) == 0
    ladder = json.loads((out / "ladder.json").read_text())
    report = json.loads((out / "verification.json").read_text())
    assert ladder["quasi_residual"] == report["residual_l2_rel"]
    assert ladder["degenerate_samples"] == report["degenerate_samples"]


def test_archive_with_stored_ratios_still_verifies(tmp_path):
    out = tmp_path / "run"
    assert run(["solve", "--spec", "constant-disk:0.5", "--grid", "64", "--ladder", "2,4,8",
                "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    # update ratios are derived from update_norms, no longer stored
    assert "ratios" not in meta["trace"]
    # the older format stored them next to the norms
    norms = meta["trace"]["update_norms"]
    stored = [b / a for a, b in zip(norms, norms[1:]) if a > 0]
    meta["trace"]["ratios"] = stored
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    assert load_solution(out).trace.ratios == stored
    assert run(["verify", "--archive", str(out)]) == 0
    report = json.loads((out / "verification.json").read_text())
    assert report["residual_l2_rel"] <= 1e-3


def test_archive_in_the_older_format_still_verifies(tmp_path):
    out = tmp_path / "run"
    assert run(["solve", "--spec", "constant-disk:0.5", "--grid", "64", "--ladder", "2,4,8",
                "--out", str(out)]) == 0
    assert run(["verify", "--archive", str(out), "--out", str(tmp_path / "new")]) == 0
    # the older format also stored the grid geometry, the rung, the spec's
    # label and support, the ladder's residual and the trace's counters
    meta = json.loads((out / "meta.json").read_text())
    ladder = json.loads((out / "ladder.json").read_text())
    meta.update(box=2.0, n=64, rung=ladder["final_rung"], label=meta["spec"]["label"],
                support_radius=meta["spec"]["support_radius"],
                quasi_residual=ladder["quasi_residual"],
                degenerate_samples=ladder["degenerate_samples"])
    meta["trace"].update(steps=len(meta["trace"]["update_norms"]), converged=True)
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    assert run(["verify", "--archive", str(out), "--out", str(tmp_path / "old")]) == 0
    assert ((tmp_path / "old" / "verification.json").read_bytes()
            == (tmp_path / "new" / "verification.json").read_bytes())


def test_verify_spec_override_sets_every_certificate_domain(tmp_path):
    # the archive's spec has the unit disk as support; the override's is |z| <= 0.5
    out = tmp_path / "run"
    assert run(["solve", "--spec", "constant-disk:0.5", "--grid", "128", "--ladder", "2,4,8",
                "--out", str(out)]) == 0
    half = tmp_path / "half.spec"
    half.write_text('label = "half"\nmu = "0.5"\nnu = "0"\nsupport_radius = 0.5\n')
    assert run(["verify", "--archive", str(out), "--spec", str(half),
                "--out", str(tmp_path / "half")]) == 0
    report = json.loads((tmp_path / "half" / "verification.json").read_text())
    sol = load_solution(out)
    J = jacobian(sol.fz.data, sol.fzbar.data)
    radius = np.abs(sol.f.z)
    assert report["jacobian"]["min"] == float(J[radius <= 0.5].min())
    assert J[radius <= 1.0].min() < J[radius <= 0.5].min()


def test_solve_rejects_degenerate_spec(tmp_path):
    spec_file = tmp_path / "bad.spec"
    spec_file.write_text('label = "too-big"\nmu = "1.2"\nnu = "0"\nsupport_radius = 1.0\n')
    code = run(["solve", "--spec", str(spec_file), "--grid", "64", "--out",
                str(tmp_path / "out")])
    assert code == 1


def test_config_file_flags_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("grid = 64\nladder = 2,4,8\n")
    out = tmp_path / "out"
    code = run(["solve", "--spec", "constant-disk:0.5", "--config", str(cfg),
                "--out", str(out)])
    assert code == 0
    assert load_solution(out).f.n == 64


def test_deterministic_reports(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run([
            "analyze", "--spec", "constant-disk:0.5", "--Q", "3", "--Q1", "3",
            "--z0", "0", "--out", str(out),
        ]) == 0
    assert (a / "conditions.json").read_bytes() == (b / "conditions.json").read_bytes()


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    out = tmp_path_factory.mktemp("archive") / "run"
    assert run(["solve", "--spec", "constant-disk:0.5", "--grid", "64", "--ladder", "2,4,8",
                "--out", str(out)]) == 0
    return out


def test_heatmaps_come_from_the_report_grids(archive, tmp_path, monkeypatch):
    counts = {"residual": 0, "jacobian": 0}

    def counted(name):
        fn = getattr(verify, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(verify, name, call)
        return fn

    residual, jacobian = counted("residual"), counted("jacobian")
    out = tmp_path / "verify"
    assert run(["verify", "--archive", str(archive), "--out", str(out), "--heatmaps"]) == 0
    assert counts == {"residual": 1, "jacobian": 1}
    # the heatmaps as written when they were computed apart from the report
    sol = load_solution(archive)
    res_field, _ = residual(sol, builtin_catalog("constant-disk", [0.5]))
    verify.write_ppm(np.abs(res_field.data), tmp_path / "residual.ppm")
    verify.write_ppm(jacobian(sol.fz.data, sol.fzbar.data), tmp_path / "jacobian.ppm")
    for name in ("residual.ppm", "jacobian.ppm"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()


def test_usage_error_exits_1(capsys):
    # exit 2 means a majorant bound was violated; a usage error is a configuration error
    assert run(["solve"]) == 1
    assert "--spec" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run(["solve", "--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_solver_flags_rejected_where_unread(command, archive, tmp_path):
    # without the flag both commands exit 0
    target = (["--archive", str(archive)] if command == "verify"
              else ["--spec", "constant-disk:0.5", "--Q", "3", "--Q1", "3"])
    assert run([command, *target, "--out", str(tmp_path)]) == 0
    assert run([command, *target, "--grid", "64", "--out", str(tmp_path)]) == 1


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("grid = 64\nmax_outers = 3\n")
    assert run(["solve", "--spec", "constant-disk:0.5", "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == 1


def test_config_line_without_equals_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("grid = 64\nladder\n")
    assert run(["solve", "--spec", "constant-disk:0.5", "--config", str(cfg),
                "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{cfg}:2: expected key = value" in err
    assert "Traceback" not in err


def test_config_repeated_key_last_wins(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("grid = 32\nladder = 2,4,8\ngrid = 64\n")
    out = tmp_path / "out"
    assert run(["solve", "--spec", "constant-disk:0.5", "--config", str(cfg),
                "--out", str(out)]) == 0
    assert load_solution(out).f.n == 64


@pytest.mark.parametrize("flag", ["--max-outer", "--max-inner"])
def test_zero_iteration_cap_rejected(flag, tmp_path, capsys):
    assert run(["solve", "--spec", "constant-disk:0.5", "--grid", "32", flag, "0",
                "--out", str(tmp_path)]) == 1
    assert flag[2:].replace("-", "_") in capsys.readouterr().err


def test_config_file_equals_flags(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]  # sections are skipped\ngrid = 64\nladder = 2,4\nmargins = 1.0,0.5\n")
    flags = ["--grid", "64", "--ladder", "2,4", "--margins", "1.0,0.5"]
    for name, extra in (("file", ["--config", str(cfg)]), ("flags", flags)):
        assert run(["solve", "--spec", "constant-disk:0.5", *extra,
                    "--out", str(tmp_path / name)]) == 3
    assert ((tmp_path / "file" / "ladder.json").read_bytes()
            == (tmp_path / "flags" / "ladder.json").read_bytes())


def test_config_file_supplies_required_flags(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("spec = constant-disk:0.5\ngrid = 64\nladder = 2,4,8\n")
    out = tmp_path / "run"
    assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    check = tmp_path / "check.ini"
    check.write_text(f"archive = {out}\n")
    assert run(["verify", "--config", str(check), "--out", str(tmp_path / "v")]) == 0
    assert (tmp_path / "v" / "verification.json").exists()


def test_truncated_identity_ladder_exits_3(tmp_path):
    # K = 49: rungs 2 and 4 zero the whole coefficient, so two identity maps
    # pass the Cauchy test while the untruncated residual is k itself
    out = tmp_path / "run"
    assert run(["solve", "--spec", "constant-disk:0.96", "--grid", "128", "--out", str(out)]) == 3
    ladder = json.loads((out / "ladder.json").read_text())
    assert ladder["quasi_residual"] == pytest.approx(0.96)
    assert [(row["rung"], row["stop"]) for row in ladder["rungs"]] == [(2, "tol"), (4, "tol")]
    assert not ladder["ladder_converged"]


def test_config_file_gives_several_values(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("spec = constant-disk:0.5\nQ = 3\nQ1 = 9\nz0 = 0 0.5\n")
    assert run(["analyze", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
    assert run(["analyze", "--spec", "constant-disk:0.5", "--Q", "3", "--Q1", "9",
                "--z0", "0", "0.5", "--out", str(tmp_path / "flags")]) == 0
    report = (tmp_path / "file" / "conditions.json").read_bytes()
    assert report == (tmp_path / "flags" / "conditions.json").read_bytes()
    assert len(json.loads(report)["probes"]) == 2


@pytest.mark.parametrize("value, written", [("true", True), ("false", False)])
def test_config_file_sets_a_switch(value, written, archive, tmp_path):
    cfg = tmp_path / "check.ini"
    cfg.write_text(f"archive = {archive}\nheatmaps = {value}\n")
    out = tmp_path / "v"
    assert run(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "verification.json").exists()
    assert (out / "residual.ppm").exists() is written
    assert (out / "jacobian.ppm").exists() is written


def test_config_switch_takes_only_true_or_false(archive, tmp_path, capsys):
    cfg = tmp_path / "check.ini"
    cfg.write_text(f"archive = {archive}\nheatmaps = maybe\n")
    assert run(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 1
    assert "heatmaps = maybe" in capsys.readouterr().err


def _scipy_loaded_after(code):
    """scipy subpackages in sys.modules of a fresh interpreter after running `code`."""
    src = str(Path(beltrami_lab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = ("\nimport json, sys\nprint(json.dumps(sorted({m.split('.')[1] for m in sys.modules"
             " if m.startswith('scipy.')})))")
    proc = subprocess.run([sys.executable, "-c", code + probe], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_solve_and_verify_load_no_more_scipy_than_fft(tmp_path):
    # compared with what scipy.fft itself loads (scipy.special, in recent
    # releases), not with a fixed list that would move between scipy versions
    fft_only = _scipy_loaded_after("import scipy.fft")
    out = str(tmp_path / "run")
    loaded = _scipy_loaded_after(
        "from beltrami_lab import cli, transforms\n"
        "assert cli.main(['solve', '--spec', 'constant-disk:0.5', '--grid', '32',"
        f" '--ladder', '2,4', '--out', {out!r}]) in (0, 3)\n"
        f"assert cli.main(['verify', '--archive', {out!r}]) == 0\n"
        "assert transforms._derivative_kernels.cache_info().misses == 0\n")
    assert "integrate" not in loaded
    assert loaded <= fft_only, sorted(loaded - fft_only)


def test_analyze_loads_scipy_integrate_on_its_first_quadrature(tmp_path):
    out = str(tmp_path / "a")
    loaded = _scipy_loaded_after(
        "import sys\n"
        "from beltrami_lab import cli\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        "assert cli.main(['analyze', '--spec', 'constant-disk:0.5', '--Q', '3', '--Q1', '3',"
        f" '--z0', '0', '--out', {out!r}]) == 0\n")
    assert "integrate" in loaded


def test_example_archive_has_the_solve_meta_keys(tmp_path):
    assert run(["example", "--grid", "32", "--ladder", "2,4",
                "--out", str(tmp_path / "ex")]) in (0, 3)
    assert run(["solve", "--spec", "paper-example-sec4", "--grid", "32", "--ladder", "2,4",
                "--out", str(tmp_path / "run")]) in (0, 3)
    example = json.loads((tmp_path / "ex" / "solution" / "meta.json").read_text())
    solve = json.loads((tmp_path / "run" / "meta.json").read_text())
    assert example.keys() == solve.keys()
    assert (tmp_path / "ex" / "solution" / "ladder.json").exists()
