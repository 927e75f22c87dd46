import importlib.util
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beltrami_lab
from beltrami_lab import quasilinear, verify
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
    # each divergence ladder is held once, in example.json
    for key in ("Q_divergence", "Q1_divergence"):
        ladder = payload[key]
        assert len(ladder["eps"]) == len(ladder["partials"]) >= 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["example.json"]
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
    divergence = payload["probes"][0]["divergence"]
    assert divergence["verdict"] == "DIVERGENT"
    assert len(divergence["eps"]) == len(divergence["partials"]) >= 5
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == ["conditions.json"]


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
    # quasi_residual in ladder.json, label and support in the spec; the
    # equation residual in verification.json
    assert set(meta) == {"normalization", "spec", "trace"}
    assert set(meta["trace"]) == {"update_norms"}
    ladder = json.loads((out / "ladder.json").read_text())
    assert set(ladder["rungs"][0]) == {"d", "outer_steps", "picard_steps", "picard_steps_max",
                                       "quasi_residual", "rung", "stop"}

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
    # the older formats also stored the grid geometry, the rung, the spec's
    # label and support, the ladder's residual, the trace's counters and
    # the last solve's linear residual
    meta = json.loads((out / "meta.json").read_text())
    ladder = json.loads((out / "ladder.json").read_text())
    meta.update(box=2.0, n=64, rung=ladder["final_rung"], label=meta["spec"]["label"],
                support_radius=meta["spec"]["support_radius"],
                quasi_residual=ladder["quasi_residual"],
                degenerate_samples=ladder["degenerate_samples"], residual_l2_rel=5.9e-12)
    meta["trace"].update(steps=len(meta["trace"]["update_norms"]), converged=True)
    (out / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
    assert run(["verify", "--archive", str(out), "--out", str(tmp_path / "old")]) == 0
    assert ((tmp_path / "old" / "verification.json").read_bytes()
            == (tmp_path / "new" / "verification.json").read_bytes())


def test_verify_parses_meta_json_once(archive, tmp_path, monkeypatch):
    # the loader and the embedded spec read one parse of the archive's metadata
    parsed = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: parsed.append(text) or loads(text, **kw))
    assert run(["verify", "--archive", str(archive), "--out", str(tmp_path)]) == 0
    assert parsed == [(archive / "meta.json").read_text()]


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

    counted("residual")
    counted("jacobian")
    out = tmp_path / "verify"
    assert run(["verify", "--archive", str(archive), "--out", str(out), "--heatmaps"]) == 0
    assert counts == {"residual": 1, "jacobian": 1}
    # the heatmaps of the whole-grid residual, zero off the support, and of J
    from test_verify import full_grid_residual

    sol = load_solution(archive)
    res, good, _ = full_grid_residual(sol, builtin_catalog("constant-disk", [0.5]))
    verify.write_ppm(np.abs(np.where(good, res, 0.0)), tmp_path / "residual.ppm")
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


def _run_fresh(code):
    """Run `code` in a fresh interpreter that imports this package; the last
    line it prints, parsed as JSON."""
    src = str(Path(beltrami_lab.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _scipy_loaded_after(code):
    """scipy modules in sys.modules of a fresh interpreter after running `code`."""
    probe = ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
             " if m.split('.')[0] == 'scipy')))")
    return set(_run_fresh(code + probe))


def test_one_parser_serves_every_call_of_a_process(tmp_path):
    # two calls in a row, of two subcommands and one of them through --config,
    # give the exit codes and files of separate runs, and build one parser
    cfg = tmp_path / "run.ini"
    cfg.write_text("grid = 64\nladder = 2,4,8\n")

    def calls(out):
        return [["solve", "--spec", "constant-disk:0.5", "--config", str(cfg), "--out", str(out)],
                ["verify", "--archive", str(out), "--heatmaps"]]

    together, apart = tmp_path / "together", tmp_path / "apart"
    codes, builds = _run_fresh(
        "import json\nfrom beltrami_lab import cli\nbuilds = []\nbuild = cli.build_parser\n"
        "cli.build_parser = lambda: builds.append(1) or build()\n"
        f"codes = [cli.main(argv) for argv in {calls(together)!r}]\n"
        "print(json.dumps([codes, len(builds)]))")
    separate = [_run_fresh(f"import json\nfrom beltrami_lab import cli\n"
                           f"print(json.dumps(cli.main({argv!r})))")
                for argv in calls(apart)]
    assert builds == 1
    assert codes == separate == [0, 0]
    names = sorted(p.name for p in together.iterdir())
    assert names == sorted(p.name for p in apart.iterdir())
    assert {"f.blgf", "ladder.json", "verification.json", "residual.ppm"} <= set(names)
    for name in names:
        assert (together / name).read_bytes() == (apart / name).read_bytes(), name


def test_solves_in_one_process_give_the_archives_of_fresh_ones(tmp_path):
    # the caches and buffers a solve leaves behind, of another grid size and
    # problem in between, change no byte of a later solve's archive
    def sec4(out):
        return ["solve", "--spec", "paper-example-sec4", "--grid", "64", "--out", str(out)]

    runs = [sec4(tmp_path / "first"),
            ["solve", "--spec", "constant-disk:0.5", "--grid", "128", "--out", str(tmp_path / "disk")],
            sec4(tmp_path / "again")]
    assert [run(argv) for argv in runs] == [0, 0, 0]
    assert _run_fresh(f"import json\nfrom beltrami_lab import cli\n"
                      f"print(json.dumps(cli.main({sec4(tmp_path / 'fresh')!r})))") == 0
    names = ["f.blgf", "fz.blgf", "fzbar.blgf", "meta.json", "ladder.json"]
    assert sorted(p.name for p in (tmp_path / "fresh").iterdir()) == sorted(names)
    for archive in ("first", "again"):
        for name in names:
            assert ((tmp_path / archive / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes()), (archive, name)


def test_solve_and_verify_load_no_scipy(tmp_path):
    out = str(tmp_path / "run")
    loaded = _scipy_loaded_after(
        "from beltrami_lab import cli, transforms\n"
        "assert cli.main(['solve', '--spec', 'constant-disk:0.5', '--grid', '32',"
        f" '--ladder', '2,4', '--out', {out!r}]) in (0, 3)\n"
        f"assert cli.main(['verify', '--archive', {out!r}]) == 0\n"
        "assert transforms._derivative_kernels.cache_info().misses == 0\n")
    assert not loaded, sorted(loaded)


def test_analyze_loads_scipy_integrate_on_its_first_quadrature(tmp_path):
    out = str(tmp_path / "a")
    loaded = _scipy_loaded_after(
        "import sys\n"
        "from beltrami_lab import cli\n"
        "assert 'scipy.integrate' not in sys.modules\n"
        "assert cli.main(['analyze', '--spec', 'constant-disk:0.5', '--Q', '3', '--Q1', '3',"
        f" '--z0', '0', '--out', {out!r}]) == 0\n")
    assert "scipy.integrate" in loaded


def test_solve_prints_one_row_per_ladder_row(tmp_path, capsys):
    out = tmp_path / "run"
    capsys.readouterr()
    assert run(["solve", "--spec", "paper-example-sec4", "--grid", "32", "--ladder", "2,4,8",
                "--ladder-tol", "1e-12", "--out", str(out)]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:4] == ["rung", "outer", "picard", "stop"]
    assert "quasi residual" in lines[0]
    rungs = json.loads((out / "ladder.json").read_text())["rungs"]
    printed = [line.split()[:4] for line in lines[1:1 + len(rungs)]]
    assert printed == [[str(row["rung"]), str(row["outer_steps"]), str(row["picard_steps"]),
                        row["stop"]] for row in rungs]
    assert lines[1 + len(rungs)].startswith("solved paper-example-sec4: final rung 8,")


def test_example_verifies_its_archive_as_verify_does(tmp_path):
    ex = tmp_path / "ex"
    assert run(["example", "--grid", "32", "--ladder", "2,4", "--out", str(ex)]) == 3
    assert "solve" not in json.loads((ex / "example.json").read_text())
    assert run(["verify", "--archive", str(ex / "solution"), "--out", str(tmp_path / "v")]) == 0
    report = (ex / "solution" / "verification.json").read_bytes()
    assert report == (tmp_path / "v" / "verification.json").read_bytes()
    # injectivity passes at this size, so the example runs the inverse audit too
    assert json.loads(report)["inverse"]["p"] == 2.0


def test_example_archive_has_the_solve_meta_keys(tmp_path):
    assert run(["example", "--grid", "32", "--ladder", "2,4",
                "--out", str(tmp_path / "ex")]) in (0, 3)
    assert run(["solve", "--spec", "paper-example-sec4", "--grid", "32", "--ladder", "2,4",
                "--out", str(tmp_path / "run")]) in (0, 3)
    example = json.loads((tmp_path / "ex" / "solution" / "meta.json").read_text())
    solve = json.loads((tmp_path / "run" / "meta.json").read_text())
    assert example.keys() == solve.keys()
    assert (tmp_path / "ex" / "solution" / "ladder.json").exists()


def _strict(path):
    """The JSON file at path, parsed with NaN and Infinity refused."""
    def reject(token):
        raise ValueError(f"{path}: {token} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


def test_every_report_is_standard_json_in_one_format(tmp_path):
    out = tmp_path / "run"
    assert run(["solve", "--spec", "constant-disk:0.5", "--grid", "64", "--ladder", "2,4,8",
                "--out", str(out)]) == 0
    assert run(["verify", "--archive", str(out), "--heatmaps"]) == 0
    # Q = 1/0 is +inf everywhere, so the largest K - Q is -inf
    assert run(["analyze", "--spec", "constant-disk:0.5", "--Q", "1/0", "--Q1", "9",
                "--z0", "0", "0.5+0.1j", "--out", str(tmp_path / "an")]) == 0
    assert run(["example", "--grid", "32", "--ladder", "2,4",
                "--out", str(tmp_path / "ex")]) in (0, 3)
    paths = sorted(tmp_path.rglob("*.json"))
    assert len(paths) == 8
    for path in paths:
        assert path.read_text() == json.dumps(_strict(path), indent=2, sort_keys=True)
    assert _strict(out / "ladder.json")["rungs"][0]["d"] == [None, None, None]
    conditions = _strict(tmp_path / "an" / "conditions.json")
    assert conditions["max_k_minus_q"] is None
    assert conditions["probes"][1]["z0"] == [0.5, 0.1]


def test_only_the_one_writer_dumps_json(tmp_path, monkeypatch):
    calls = []
    dump = json.dump

    def spy(*args, **kwargs):
        calls.append(kwargs.get("allow_nan"))
        return dump(*args, **kwargs)
    monkeypatch.setattr(json, "dump", spy)
    out = tmp_path / "run"
    assert run(["solve", "--spec", "constant-disk:0.5", "--grid", "64", "--ladder", "2,4,8",
                "--out", str(out)]) == 0
    assert run(["verify", "--archive", str(out)]) == 0
    assert run(["analyze", "--spec", "constant-disk:0.5", "--Q", "3", "--Q1", "9",
                "--z0", "0", "--out", str(tmp_path / "an")]) == 0
    # meta.json, ladder.json, verification.json, conditions.json
    assert calls == [False] * 4


def test_margin_outside_the_box_exits_1_before_any_solve(tmp_path, monkeypatch, capsys):
    calls = []
    solve_linear = quasilinear.solve_linear

    def spy(*args, **kwargs):
        calls.append(1)
        return solve_linear(*args, **kwargs)
    monkeypatch.setattr(quasilinear, "solve_linear", spy)
    assert run(["solve", "--spec", "constant-disk:0.5", "--grid", "64", "--margins", "2.5",
                "--out", str(tmp_path / "run")]) == 1
    assert calls == []
    assert "compact_margins" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt, message", [
    (lambda r: r.inverse.update(integral_KIp=float("inf")),
     "verification.json/inverse/integral_KIp is inf"),
    (lambda r: setattr(r, "residual_l2_rel", float("nan")),
     "verification.json/residual_l2_rel is nan"),
], ids=["inf-KIp", "nan-residual"])
def test_verify_refuses_a_non_finite_certificate(tmp_path, monkeypatch, capsys, corrupt, message):
    # a null would read as a finite value to a checker; exit 1 and no file
    # instead, not even the report of an earlier clean verify
    out = tmp_path / "run"
    assert run(["solve", "--spec", "constant-disk:0.5", "--grid", "64", "--ladder", "2,4,8",
                "--out", str(out)]) == 0
    assert run(["verify", "--archive", str(out)]) == 0
    assert (out / "verification.json").exists()
    report = verify.verification_report

    def folded(*args, **kwargs):
        result = report(*args, **kwargs)
        corrupt(result)
        return result
    monkeypatch.setattr(verify, "verification_report", folded)
    capsys.readouterr()
    assert run(["verify", "--archive", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "verification.json").exists()
    # so the benchmark's verification check fails too
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # dataclasses look up their module
    spec.loader.exec_module(workloads)
    assert workloads.check_verification(out, workloads.WORKLOADS["disk-512"])


# ---------------------------------------------------------------------------
# input boundaries: every fault below exits 1 with an error line, no traceback

DEEP_MU = {
    "groups": "(" * 300 + "0.5" + ")" * 300,
    "sum": "+".join(["0.0004"] * 1200),  # the parser's loop reads it; evaluation would recurse
}


@pytest.mark.parametrize("shape", sorted(DEEP_MU))
def test_too_deep_spec_exits_1(shape, tmp_path, capsys):
    spec = tmp_path / "deep.spec"
    spec.write_text(f'mu = "{DEEP_MU[shape]}"\nsupport_radius = 1\n')
    assert run(["solve", "--spec", str(spec), "--grid", "32", "--out", str(tmp_path / "run")]) == 1
    assert "error:" in capsys.readouterr().err


def test_too_deep_majorant_exits_1(tmp_path, capsys):
    assert run(["analyze", "--spec", "constant-disk:0.5", "--Q", DEEP_MU["groups"],
                "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def _exits_1(argv, capsys, message):
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--Q", "3 $"], "unexpected character '$' (offset 2)"),
    (["analyze", "--Q", "(3"], "expected ')', found 'end of input' (offset 2)"),
    (["analyze", "--Q", "3 3"], "trailing input '3' (offset 2)"),
    # no float holds 1e999, and inf would be another number than the one written
    (["analyze", "--Q", "1e999"], "number '1e999' overflows a float (offset 0)"),
    (["analyze", "--Q", "3", "--Q1", "3", "--z0", "0.999"],
     "probe z0 = 0.999+0j: |z0| = 0.999, but the divergence audit needs |z0| < 0.992188"),
    (["solve", "--grid", "32", "--box", "1", "--margins", "0.5,0.25"],
     "box must contain the normalization points"),
], ids=["character", "unclosed", "trailing", "overflow", "probe-at-rim", "box-1"])
def test_bad_input_exits_1(argv, message, tmp_path, capsys):
    _exits_1(argv + ["--spec", "constant-disk:0.5", "--out", str(tmp_path)], capsys, message)


@pytest.mark.parametrize("text, message", [
    ('mu = "0.5"\nsupport_radius = 0\n', "{path}: support_radius must be positive"),
    ("support_radius = 1\n", "{path}: spec missing keys ['mu']"),
    ('mu = "0.5+1/1e999"\nsupport_radius = 1\n',
     "{path}: number '1e999' overflows a float (offset 6)"),
    ('mu = "0.5+q"\nsupport_radius = 1\n', "{path}: unknown identifier 'q' (offset 4)"),
    # nan passes a `<= 0` test, and an infinite support never fits in the box
    ('mu = "0.5"\nsupport_radius = nan\n',
     "{path}: support_radius must be positive and finite, got nan"),
    ('mu = "0.5"\nsupport_radius = inf\n',
     "{path}: support_radius must be positive and finite, got inf"),
    # a spec that parses but is refused by the ellipticity check before the ladder
    ('mu = "1.5"\nsupport_radius = 1\n', "spec: |mu|+|nu| >= 1 on 100.0% of the support"),
], ids=["zero-support", "no-mu", "overflow", "unknown-identifier", "nan-support", "inf-support",
        "not-elliptic"])
def test_bad_spec_file_exits_1_before_any_archive(text, message, tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_text(text)
    _exits_1(["solve", "--spec", str(spec), "--grid", "32", "--out", str(tmp_path / "run")],
             capsys, message.format(path=spec))
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--spec", "constant-disk:0.5", "--z0", "abc"],
     "argument --z0: invalid complex value: 'abc'"),
    (["solve", "--spec", "constant-disk:abc"],
     "spec 'constant-disk:abc': could not convert string to float: 'abc'"),
    # the divergence integral at z0 ends at half the distance to the support rim
    (["analyze", "--spec", "constant-disk:0.5", "--Q", "3", "--Q1", "3", "--z0", "0", "1.5"],
     "probe z0 = 1.5+0j: |z0| = 1.5, but the divergence audit needs |z0| < 0.992188, "
     "the support radius 1 less 0.0078125"),
    (["example", "--skip-solve", "--delta", "0.003"],
     "divergence integral: delta = 0.003, but delta must exceed 0.00390625 "
     "to leave 5 eps values below it"),
    # verify writes into the archive by default, which must not be made
    (["verify", "--archive", "missing"], "No such file or directory: 'missing/meta.json'"),
], ids=["z0", "catalog-parameter", "probe-outside-support", "example-delta", "missing-archive"])
def test_bad_cli_value_names_its_input(argv, message, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for out in (["--out", str(tmp_path / "out")], []):  # a given and a default directory
        capsys.readouterr()
        assert run(argv + out) == 1
        # a usage error prints the usage lines first; the last line is the error
        captured = capsys.readouterr()
        last = captured.err.splitlines()[-1]
        assert last.startswith("error:") and last.endswith(message)
        # the value is refused before a line is printed or an output directory made
        assert captured.out == ""
        assert not any(tmp_path.iterdir())


def _drop_normalization(meta):
    del meta["normalization"]


def _drop_spec_mu(meta):
    del meta["spec"]["mu"]


def _trace_as_list(meta):
    meta["trace"] = meta["trace"]["update_norms"]


def _spec_as_text(meta):
    meta["spec"] = "constant-disk:0.5"


def _drop_spec(meta):
    del meta["spec"]


def _spec_mu_as_number(meta):
    meta["spec"]["mu"] = 0.5


def _spec_support_null(meta):
    meta["spec"]["support_radius"] = None


def _translation_as_number(meta):
    meta["normalization"]["translation"] = 5


def _scale_as_text(meta):
    meta["normalization"]["scale"] = "x"


def _not_json(meta):
    return "{bad"


def _arg_f1_nan(meta):
    meta["normalization"]["arg_f1"] = float("nan")  # json.dumps writes NaN


def _arg_f1_too_big(meta):
    # json reads any digit string as an int, and this one overflows a float
    meta["normalization"]["arg_f1"] = 10 ** 400


def _update_norm_overflows(meta):
    # json reads 1e999 as inf
    meta["trace"]["update_norms"] = ["overflow"]
    return json.dumps(meta).replace('"overflow"', "1e999")


@pytest.mark.parametrize("corrupt, message", [
    (_drop_normalization, "meta.json: no key 'normalization'"),
    (_drop_spec_mu, "spec missing keys ['mu']"),
    (_trace_as_list, "meta.json: trace is a list, not an object"),
    (_spec_as_text, "spec is a str, not a table of keys"),
    (_drop_spec, "archive has no embedded spec; pass --spec"),
    (_spec_mu_as_number, "meta.json: mu must be text, not float 0.5"),
    (_spec_support_null, "meta.json: support_radius must be a number, not None"),
    (_translation_as_number, "meta.json: normalization/translation is 5, not a pair of numbers"),
    (_scale_as_text, "meta.json: normalization/scale is 'x', not a positive number"),
    (_not_json, "meta.json: Expecting property name enclosed in double quotes"),
    (_arg_f1_nan, "meta.json: normalization/arg_f1 is nan, not a number"),
    (_arg_f1_too_big,
     f"meta.json: normalization/arg_f1 is {'1' + '0' * 39}, not a number"),
    (_update_norm_overflows, "meta.json: trace/update_norms is [inf], not a list of numbers"),
], ids=["no-normalization", "spec-without-mu", "trace-list", "spec-text", "no-spec",
        "spec-mu-number", "spec-support-null", "translation-number", "scale-text",
        "not-json", "arg-f1-nan", "arg-f1-too-big", "update-norm-overflow"])
def test_malformed_archive_exits_1(corrupt, message, tmp_path, capsys):
    # corrupt edits the parsed meta.json in place, or returns the text to write instead
    out = tmp_path / "run"
    assert run(["solve", "--spec", "constant-disk:0.5", "--grid", "32", "--ladder", "2,4,8",
                "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    text = corrupt(meta)
    (out / "meta.json").write_text(json.dumps(meta) if text is None else text)
    capsys.readouterr()
    assert run(["verify", "--archive", str(out), "--out", str(tmp_path / "report")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert message in err
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize("cut", [
    lambda data: data[:10],
    lambda data: data[:-16],
    lambda data: data + data[16:],
    # a whole header and payload that describe no valid grid
    lambda data: b"BLGF" + struct.pack("<Id", 12, 2.0) + bytes(16 * 12 * 12),
    lambda data: data[:16] + np.array([np.nan], "<c16").tobytes() + data[32:],
], ids=["header", "short-payload", "long-payload", "n-12", "nan-sample"])
def test_malformed_grid_file_exits_1(cut, archive, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    for name in ("meta.json", "f.blgf", "fz.blgf", "fzbar.blgf"):
        (out / name).write_bytes((archive / name).read_bytes())
    grid_file = out / "f.blgf"
    grid_file.write_bytes(cut(grid_file.read_bytes()))
    _exits_1(["verify", "--archive", str(out)], capsys, f"error: {grid_file}: ")


# ---------------------------------------------------------------------------
# an archive holds the spec text that was parsed

def test_archive_holds_the_spec_text_as_written(tmp_path):
    mu = "0.9 / (1 + abs(w)^2)"
    spec = tmp_path / "damped.spec"
    spec.write_text(f'mu = "{mu}"\nsupport_radius = 1\n')
    flags = ["--grid", "32", "--ladder", "2,4"]
    file_run, catalog_run = tmp_path / "file", tmp_path / "catalog"
    assert run(["solve", "--spec", str(spec), *flags, "--out", str(file_run)]) == 3
    assert run(["solve", "--spec", "w-damped-disk:0.9", *flags, "--out", str(catalog_run)]) == 3
    assert json.loads((file_run / "meta.json").read_text())["spec"]["mu"] == mu
    for name in ("f.blgf", "fz.blgf", "fzbar.blgf"):
        assert (file_run / name).read_bytes() == (catalog_run / name).read_bytes()
    assert run(["verify", "--archive", str(file_run)]) == 0


def test_deepest_accepted_spec_solves_and_verifies(tmp_path):
    mu = "-" * 98 + "z*(z*z)"  # mu = z^3, 100 levels deep
    spec = tmp_path / "deep.spec"
    spec.write_text(f'mu = "{mu}"\nsupport_radius = 1\n')
    out = tmp_path / "run"
    assert run(["solve", "--spec", str(spec), "--grid", "32", "--ladder", "2,4",
                "--out", str(out)]) == 3
    assert json.loads((out / "meta.json").read_text())["spec"]["mu"] == mu
    assert run(["verify", "--archive", str(out)]) == 0


# ---------------------------------------------------------------------------
# exit codes of w-dependent scan members (scripts/w_dependent_scan.py)

@pytest.mark.parametrize("mu, code, stops", [
    ("0.3*exp(i*4*im(w))", 0, ["tol", "tol"]),
    # residual 7.5e-6 is within residual_tol, but rung 4 stopped at its cap
    ("0.3*exp(i*8*abs(w)^2)", 3, ["max_outer", "tol"]),
    ("0.5*exp(i*8*im(w))", 3, ["stalled", "stalled"]),
])
def test_scan_member_exit_code_is_the_verdict(mu, code, stops, tmp_path):
    spec = tmp_path / "member.spec"
    spec.write_text(f'mu = "{mu}"\nsupport_radius = 1\n')
    out = tmp_path / "run"
    assert run(["solve", "--spec", str(spec), "--grid", "32", "--ladder", "4,8",
                "--out", str(out)]) == code
    ladder = json.loads((out / "ladder.json").read_text())
    assert [row["stop"] for row in ladder["rungs"]] == stops
    assert ladder["ladder_converged"] == (code == 0)
    assert ladder["rungs"][-1]["quasi_residual"] == ladder["quasi_residual"]
    if code == 3 and stops[-1] == "tol":
        assert ladder["quasi_residual"] <= 1e-3  # flagged for the cap, not the residual
