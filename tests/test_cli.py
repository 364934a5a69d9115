"""CLI surface: exit codes, report shapes, schema validation, determinism."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import lptorus.cli
from lptorus import Field, Grid, read_field, single_mode, taylor_green, write_field
from lptorus.cli import _config_echo, _write_json, main, parse_regime
from lptorus.ensembles import random_field
from lptorus.solver import SolverConfig, oracle_compare, picard_solve

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "lptorus" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


@pytest.fixture
def field_files(tmp_path):
    grid = Grid(2, 32)
    paths = {}
    for name, field in (
        ("u0", taylor_green(grid, 0.004)),
        ("theta0", single_mode(grid, (1, 1), 0.003)),
        ("scalar", random_field(grid, np.random.default_rng(5))),
    ) + tuple(  # grids with no full dyadic shell
        (f"{name}_n{n}", field)
        for n in (2, 4)
        for name, field in (
            ("u0", taylor_green(Grid(2, n), 0.004)),
            ("theta0", single_mode(Grid(2, n), (1, 0), 0.003)),
        )
    ):
        path = tmp_path / f"{name}.lpfld"
        write_field(path, field)
        paths[name] = str(path)
    return paths


def test_norm_prints_one_number(field_files, capsys):
    code = main(["norm", field_files["scalar"], "--s", "-1", "--p", "inf",
                 "--r", "inf", "--alpha", "1"])
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert float(out) > 0


def test_norm_of_a_field_near_overflow_prints_a_finite_value(tmp_path, capsys):
    # squares and powers of sup-1e200 samples overflow; the norm does not
    grid = Grid(2, 32)
    path = tmp_path / "big.lpfld"
    field = random_field(grid, np.random.default_rng(5), components=2)
    write_field(path, Field(grid, 1e200 * field.values))
    for p, r in (("2", "2"), ("3", "inf"), ("inf", "1")):
        assert main(["norm", str(path), "--s", "-1", "--p", p, "--r", r]) == 0
        value = float(capsys.readouterr().out.strip())
        assert math.isfinite(value) and value > 1e199


def test_norm_of_a_field_near_underflow_prints_a_nonzero_value(tmp_path, capsys):
    # squares of sup-1e-200 samples underflow to 0; the norm does not
    grid = Grid(2, 32)
    path = tmp_path / "tiny.lpfld"
    field = random_field(grid, np.random.default_rng(5))
    write_field(path, Field(grid, field.values * (1e-200 / np.max(np.abs(field.values)))))
    assert main(["norm", str(path), "--s", "-1", "--p", "2", "--r", "2"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert 1e-202 < value < 1e-198


@pytest.mark.parametrize("trials", [1, 2])
def test_verify_heatchar_family_follows_trials(tmp_path, trials):
    # heatchar draws --trials fields per (sigma, p) case: 4 cases
    report = tmp_path / "heatchar.json"
    assert main(["verify", "heatchar", "--N", "16", "--trials", str(trials),
                 "--report", str(report)]) == 0
    assert json.loads(report.read_text())["params"]["family_size"] == 4 * trials


def test_decompose_writes_blocks_and_manifest(field_files, tmp_path, capsys):
    out_dir = tmp_path / "blocks"
    code = main(["decompose", field_files["scalar"], "--out-dir", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / "decomposition.json").read_text())
    jsonschema.validate(manifest, load_schema("decompose.schema.json"))
    assert manifest["q_max"] == 2
    assert len(manifest["blocks"]) == 4
    total = None
    for entry in manifest["blocks"]:
        block = read_field(out_dir / entry["file"])
        total = block if total is None else total + block
        assert entry["norms"]["l2"] >= 0
    source = read_field(field_files["scalar"])
    assert np.max(np.abs(total.values - source.values)) < 1e-12
    run_manifest = json.loads((out_dir / "run.manifest.json").read_text())
    jsonschema.validate(run_manifest, load_schema("manifest.schema.json"))


def test_verify_lp_passes_and_validates(tmp_path, capsys):
    report_path = tmp_path / "lp.json"
    code = main(["verify", "lp", "--n", "2", "--N", "32", "--trials", "3",
                 "--seed", "7", "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, load_schema("verify.schema.json"))
    assert report["pass"]
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_bilinear_report_shape(tmp_path):
    report_path = tmp_path / "bl.json"
    code = main(["verify", "bilinear", "--lemma", "2.5", "--n", "2",
                 "--N", "16,32", "--trials", "5", "--seed", "3",
                 "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, load_schema("verify.schema.json"))
    assert report["params"]["estimate"] == "2.5"
    assert set(report["stats"]) == {"16", "32"}


def test_solve_report_validates(field_files, tmp_path):
    report_path = tmp_path / "solve.json"
    code = main([
        "solve", "--u0", field_files["u0"], "--theta0", field_files["theta0"],
        "--T", "0.5", "--M", "16", "--regime", "thm1.2", "--tol", "1e-8",
        "--report", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    jsonschema.validate(report, load_schema("solve.schema.json"))
    assert report["converged"]
    assert report["certificate"]["passed"] is True
    manifest = json.loads((tmp_path / "solve.json.manifest.json").read_text())
    jsonschema.validate(manifest, load_schema("manifest.schema.json"))


def test_solve_oracle_report_is_the_serial_report_on_any_cpu_count(
    field_files, tmp_path, monkeypatch
):
    # the report of picard_solve followed by oracle_compare, in one process
    u0, th0 = read_field(field_files["u0"]), read_field(field_files["theta0"])
    config = SolverConfig(horizon=0.25, steps=8, oracle_refine=2)
    u, th, report = picard_solve(u0, th0, config)
    payload = {"config": _config_echo(config), **report.to_dict(),
               "oracle_error": oracle_compare(u0, th0, config, solution=(u, th))}
    _write_json(tmp_path / "serial.json", payload)
    expected = (tmp_path / "serial.json").read_bytes()

    real_oracle = lptorus.cli.exponential_euler
    parent_calls = []

    def spy(*args):  # called in this process only when the oracle is not overlapped
        parent_calls.append(args)
        return real_oracle(*args)

    monkeypatch.setattr(lptorus.cli, "exponential_euler", spy)
    for cpus, in_parent in (({0, 1}, 0), ({0}, 1)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        parent_calls.clear()
        path = tmp_path / f"solve-{len(cpus)}.json"
        assert main(["solve", "--u0", field_files["u0"], "--theta0",
                     field_files["theta0"], "--T", "0.25", "--M", "8", "--oracle",
                     "--oracle-refine", "2", "--report", str(path)]) == 0
        assert path.read_bytes() == expected
        assert len(parent_calls) == in_parent
        manifest = json.loads(Path(str(path) + ".manifest.json").read_text())
        jsonschema.validate(manifest, load_schema("manifest.schema.json"))
        assert set(manifest["stages"]) == {"picard_s", "oracle_s", "oracle_wait_s"}
        assert all(v >= 0 for v in manifest["stages"].values())


def test_solve_regime_parsing():
    assert parse_regime("thm1.2") == {"regime": "thm1.2"}
    assert parse_regime("thm1.3:4,inf") == {"regime": "thm1.3", "p": 4.0,
                                            "r": float("inf")}
    assert parse_regime("thm1.4:2,0.5") == {"regime": "thm1.4", "p": 2.0,
                                            "eps": 0.5}
    with pytest.raises(ValueError):
        parse_regime("thm9")
    # a malformed exponent list names the expected form
    with pytest.raises(ValueError, match="form thm1.3:p,r$"):
        parse_regime("thm1.3:2")
    with pytest.raises(ValueError, match="form thm1.4:p,eps$"):
        parse_regime("thm1.4:2,0.5,3")


def test_sweep_csv(field_files, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--amps-u", "0,0.002,0.2", "--amps-theta", "0.003",
                 "--N", "32", "--M", "8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("amp_u,amp_theta,certificate_pass")
    assert len(lines) == 4
    # zero data row passes trivially; the certificate flag is monotone in
    # the amplitude since the free-evolution norms scale linearly
    passes = [line.split(",")[2] == "True" for line in lines[1:]]
    assert passes[0] is True
    assert all(a or not b for a, b in zip(passes, passes[1:]))


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_unknown_flag_exits_2():
    assert main(["verify", "lp", "--frobnicate"]) == 2


def test_main_builds_its_parser_once_per_process(monkeypatch):
    made = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    lptorus.cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    assert main(["frobnicate"]) == 2
    assert len(made) == 6  # lp and its five subcommands
    assert main(["frobnicate"]) == 2
    assert len(made) == 6


def test_the_cached_parser_keeps_exit_codes_and_patched_collaborators(
    field_files, tmp_path, monkeypatch, capsys
):
    assert main(["verify", "comb", "--report", str(tmp_path / "comb.json")]) == 0
    assert main(["verify", "lp", "--frobnicate"]) == 2
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "0.1.0"
    real_oracle, calls = lptorus.cli.exponential_euler, []
    monkeypatch.setattr(lptorus.cli, "exponential_euler",
                        lambda *args: calls.append(args) or real_oracle(*args))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["solve", "--u0", field_files["u0"], "--theta0", field_files["theta0"],
                 "--T", "0.25", "--M", "8", "--oracle", "--oracle-refine", "2",
                 "--report", str(tmp_path / "solve.json")]) == 0
    assert len(calls) == 1
    monkeypatch.setattr(lptorus.cli, "cmd_verify", lambda args: 7)
    assert main(["verify", "comb"]) == 7  # the command itself is looked up per call


def test_a_bilinear_and_a_comb_run_leave_numpy_ma_unimported(tmp_path):
    # np.median's first call imports numpy.ma, 11-16 ms of a cold run
    code = "\n".join([
        "import sys",
        "from lptorus.cli import main",
        "main(['verify', 'bilinear', '--lemma', '2.7', '--N', '16,32', '--trials', '3'])",
        "main(['verify', 'comb'])",
        "print('numpy.ma' in sys.modules)",
    ])
    src = str(Path(lptorus.cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, timeout=300, env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


def test_malformed_field_file_exits_2_names_field(tmp_path, capsys):
    bad = tmp_path / "bad.lpfld"
    bad.write_bytes(b"LPFLD1 2 x 32 6.28\n" + b"\x00" * 64)
    code = main(["norm", str(bad), "--s", "0", "--p", "2", "--r", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "components" in err


def test_non_finite_field_file_exits_2(tmp_path, capsys):
    values = np.zeros((1, 32, 32))
    values[0, 7, 2] = np.nan
    bad = tmp_path / "nan.lpfld"
    bad.write_bytes(b"LPFLD1 2 1 32 6.283185307179586\n" + values.astype("<f8").tobytes())
    code = main(["norm", str(bad), "--s", "0", "--p", "2", "--r", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "payload" in captured.err


def test_missing_field_file_exits_2(tmp_path):
    assert main(["norm", str(tmp_path / "nope.lpfld"),
                 "--s", "0", "--p", "2", "--r", "2"]) == 2


def test_solve_oracle_overflow_exits_2(tmp_path, capsys):
    grid = Grid(2, 16)
    u0, th0 = tmp_path / "u0.lpfld", tmp_path / "th0.lpfld"
    write_field(u0, taylor_green(grid, 1e306))
    write_field(th0, single_mode(grid, (1, 1), 1e306))
    with np.errstate(all="ignore"):
        code = main(["solve", "--u0", str(u0), "--theta0", str(th0), "--T", "0.5",
                     "--M", "8", "--oracle", "--oracle-refine", "1",
                     "--report", str(tmp_path / "r.json")])
    assert code == 2
    assert "error: oracle integrator is unstable" in capsys.readouterr().err


@pytest.mark.parametrize("amplitude, reason", [(30.0, "growth"), (1e306, "non-finite")])
def test_solve_report_says_why_it_diverged(tmp_path, amplitude, reason):
    grid = Grid(2, 16)
    u0, th0 = tmp_path / "u0.lpfld", tmp_path / "th0.lpfld"
    write_field(u0, taylor_green(grid, amplitude))
    write_field(th0, single_mode(grid, (1, 1), amplitude))
    report_path = tmp_path / "r.json"
    with np.errstate(all="ignore"):
        code = main(["solve", "--u0", str(u0), "--theta0", str(th0), "--T", "0.5",
                     "--M", "8", "--report", str(report_path)])
    assert code == 1

    def reject(token):  # strict JSON: no bare NaN or Infinity tokens
        raise ValueError(f"non-standard JSON token {token}")

    report = json.loads(report_path.read_text(), parse_constant=reject)
    assert report["diverged"] and report["divergence"] == reason
    schema = load_schema("solve.schema.json")
    assert reason in schema["properties"]["divergence"]["enum"]
    jsonschema.validate(report, schema)


def test_solve_report_says_it_stopped_at_max_iterations(tmp_path):
    grid = Grid(2, 16)
    u0, th0 = tmp_path / "u0.lpfld", tmp_path / "th0.lpfld"
    write_field(u0, taylor_green(grid, 0.004))
    write_field(th0, single_mode(grid, (1, 1), 0.003))
    report_path = tmp_path / "r.json"
    code = main(["solve", "--u0", str(u0), "--theta0", str(th0), "--T", "0.25",
                 "--M", "4", "--max-iterations", "1", "--report", str(report_path)])
    assert code == 1
    report = json.loads(report_path.read_text())
    assert not report["converged"] and not report["diverged"]
    assert report["stopped"] == "max_iterations" and "divergence" not in report
    jsonschema.validate(report, load_schema("solve.schema.json"))


@pytest.mark.parametrize("theta_grid", [Grid(2, 16, 1.0), Grid(2, 32)])
def test_solve_data_on_two_grids_exits_2(tmp_path, capsys, theta_grid):
    u0, th0 = tmp_path / "u0.lpfld", tmp_path / "th0.lpfld"
    write_field(u0, taylor_green(Grid(2, 16), 0.004))
    write_field(th0, single_mode(theta_grid, (1, 1), 0.003))
    report = tmp_path / "r.json"
    code = main(["solve", "--u0", str(u0), "--theta0", str(th0), "--T", "0.25",
                 "--M", "4", "--report", str(report)])
    assert code == 2
    assert "error: u0 and theta0 must share one grid" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("refine", ["0", "-1"])
def test_solve_oracle_refine_below_one_exits_2(tmp_path, capsys, refine):
    grid = Grid(2, 16)
    u0, th0 = tmp_path / "u0.lpfld", tmp_path / "th0.lpfld"
    write_field(u0, taylor_green(grid, 0.004))
    write_field(th0, single_mode(grid, (1, 1), 0.003))
    report = tmp_path / "r.json"
    code = main(["solve", "--u0", str(u0), "--theta0", str(th0), "--T", "0.25",
                 "--M", "4", "--oracle", "--oracle-refine", refine,
                 "--report", str(report)])
    assert code == 2
    assert "error: steps and oracle_refine must be >= 1" in capsys.readouterr().err
    assert not report.exists()


def test_solve_velocity_file_with_wrong_component_count_exits_2(
    field_files, tmp_path, capsys
):
    report = tmp_path / "r.json"
    code = main(["solve", "--u0", field_files["scalar"], "--theta0",
                 field_files["theta0"], "--T", "0.25", "--M", "4",
                 "--report", str(report)])
    assert code == 2
    assert "error: u0 must have 2 components" in capsys.readouterr().err
    assert not report.exists()


# the domain-guard table: each cell is an out-of-domain input that must end
# in exit 2 with one ``error:`` line, and no report
DOMAIN_GUARD_CELLS = {
    "lp-grid-without-shell": ["verify", "lp", "--n", "2", "--N", "2"],
    "besov-grid-without-shell": ["verify", "besov", "--n", "4", "--N", "4"],
    "bernstein-no-shell-fits": ["verify", "bernstein", "--n", "2", "--N", "4"],
    "solve-tol-nan": ["solve", "--u0", "{u0}", "--theta0", "{theta0}", "--tol", "nan"],
    "sweep-amplitude-nan": ["sweep", "--amps-u", "0.001,nan", "--amps-theta", "0.001"],
    "sweep-tol-inf": ["sweep", "--amps-u", "0.001", "--amps-theta", "0.001",
                      "--tol", "inf", "--N", "16", "--M", "4"],
    "norm-s-nan": ["norm", "{scalar}", "--s", "nan", "--p", "2", "--r", "2"],
    "norm-s-inf": ["norm", "{scalar}", "--s", "inf", "--p", "2", "--r", "2"],
    "norm-alpha-nan": ["norm", "{scalar}", "--s", "-1", "--p", "2", "--r", "inf",
                       "--alpha", "nan"],
    "solve-horizon-inf": ["solve", "--u0", "{u0}", "--theta0", "{theta0}", "--T", "inf"],
    "solve-buoyancy-inf": ["solve", "--u0", "{u0}", "--theta0", "{theta0}",
                           "--buoyancy", "inf,1", "--M", "4"],
    "solve-eps-nan": ["solve", "--u0", "{u0}", "--theta0", "{theta0}",
                      "--regime", "thm1.4:3,nan", "--M", "4"],
    "solve-eps-inf": ["solve", "--u0", "{u0}", "--theta0", "{theta0}",
                      "--regime", "thm1.4:3,inf", "--M", "4"],
    "verify-lp-trials-0": ["verify", "lp", "--trials", "0"],
    "verify-bony-trials-negative": ["verify", "bony", "--trials", "-3"],
    "verify-besov-trials-0": ["verify", "besov", "--trials", "0"],
    "verify-comb-trials": ["verify", "comb", "--trials", "5"],
    "verify-comb-trials-0": ["verify", "comb", "--trials", "0"],
    "verify-N-negative": ["verify", "bilinear", "--lemma", "2.4", "--N", "-32"],
    "verify-N-not-an-integer": ["verify", "bilinear", "--N", "32,abc"],
    "verify-lp-N-list": ["verify", "lp", "--N", "32,64"],
    "verify-besov-N-list": ["verify", "besov", "--N", "16,32"],
    "verify-bernstein-N-list": ["verify", "bernstein", "--N", "64,64"],
    "verify-bony-N-list": ["verify", "bony", "--N", "16,32"],
    "verify-bilinear-N-repeated": ["verify", "bilinear", "--lemma", "2.4", "--N", "32,32"],
    "verify-heatchar-N-repeated": ["verify", "heatchar", "--N", "32,32"],
    "solve-grid-without-shell-N2": ["solve", "--u0", "{u0_n2}", "--theta0", "{theta0_n2}",
                                    "--M", "4", "--oracle"],
    "solve-grid-without-shell-N4": ["solve", "--u0", "{u0_n4}", "--theta0", "{theta0_n4}",
                                    "--M", "4"],
    "sweep-grid-without-shell-N2": ["sweep", "--amps-u", "0.001", "--amps-theta", "0.001",
                                    "--N", "2", "--M", "4"],
    "sweep-grid-without-shell-N4": ["sweep", "--amps-u", "0.001", "--amps-theta", "0.001",
                                    "--N", "4", "--M", "4"],
    "solve-max-iterations-0": ["solve", "--u0", "{u0}", "--theta0", "{theta0}",
                               "--max-iterations", "0", "--M", "4"],
    "sweep-max-iterations-negative": ["sweep", "--amps-u", "0.001", "--amps-theta", "0.001",
                                      "--max-iterations", "-2", "--N", "16", "--M", "4"],
    "solve-horizon-underflow": ["solve", "--u0", "{u0}", "--theta0", "{theta0}",
                                "--T", "1e-300", "--M", "4"],
    "sweep-horizon-underflow": ["sweep", "--amps-u", "0.001", "--amps-theta", "0.001",
                                "--T", "1e-300", "--N", "16", "--M", "4"],
    # the horizon where the measured lambda itself underflows to 0
    "solve-horizon-lambda-underflow": ["solve", "--u0", "{u0}", "--theta0", "{theta0}",
                                       "--T", "1e-250", "--M", "4"],
    "solve-regime-thm1.3-one-exponent": ["solve", "--u0", "{u0}", "--theta0", "{theta0}",
                                         "--regime", "thm1.3:2", "--M", "4"],
    "solve-regime-thm1.4-three-exponents": ["solve", "--u0", "{u0}", "--theta0", "{theta0}",
                                            "--regime", "thm1.4:2,0.5,3", "--M", "4"],
}


@pytest.mark.parametrize("cell", sorted(DOMAIN_GUARD_CELLS))
def test_out_of_domain_input_exits_2_with_one_error_line(
    cell, field_files, tmp_path, capsys
):
    out = tmp_path / "out"
    argv = [arg.format(**field_files) for arg in DOMAIN_GUARD_CELLS[cell]]
    flag = {"sweep": "--out", "norm": "--manifest"}.get(argv[0], "--report")
    argv += [flag, str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len([line for line in err if line.startswith("error:")]) == 1
    assert not out.exists()


@pytest.mark.parametrize("typed, quoted", [("-32", "'-32'"), ("32,abc", "'abc'"),
                                           ("16,24", "'24'")])
def test_a_bad_resolution_error_quotes_what_was_typed(typed, quoted, tmp_path, capsys):
    # checked before the CLI derives a doubled resolution from it
    out = tmp_path / "out"
    assert main(["verify", "bilinear", "--N", typed, "--report", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --N takes powers of two >= 2, got {quoted}"]
    assert not out.exists()


@pytest.mark.parametrize("suite", ["lp", "besov", "bernstein", "bony"])
def test_a_suite_of_one_resolution_rejects_an_n_list(suite, tmp_path, capsys):
    # bilinear and heatchar take a list; these would run its first entry only
    out = tmp_path / "out"
    assert main(["verify", suite, "--N", "32, 64", "--report", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: verify {suite} takes one --N resolution, got '32, 64'"]
    assert not out.exists()


def test_sweep_row_with_non_finite_norms_exits_1_and_keeps_the_csv(tmp_path, capsys):
    # an overflowing amplitude diverges to a nan velocity norm (the scalar's
    # first iterate reads only the finite u0 theta0 products); the finite row
    # beside it fails its bound but is no error
    out = tmp_path / "sweep.csv"
    with np.errstate(all="ignore"):
        code = main(["sweep", "--amps-u", "1e300,0.001", "--amps-theta", "1",
                     "--N", "16", "--M", "4", "--out", str(out)])
    assert code == 1
    rows = out.read_text().strip().splitlines()[1:]
    velocity, scalar = rows[0].split(",")[-2:]
    assert velocity == "nan" and np.isfinite(float(scalar))
    assert len(rows) == 2 and "nan" not in rows[1]
    err = [line for line in capsys.readouterr().err.splitlines() if "non-finite" in line]
    assert err == ["sweep: non-finite norms in rows (amp_u, amp_theta) (1e+300, 1.0)"]


def test_sweep_csv_does_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    outputs = []
    for cpus in ({0}, {0, 1, 2, 3}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        out = tmp_path / f"sweep-{len(cpus)}.csv"
        assert main(["sweep", "--amps-u", "0.002,0.01", "--amps-theta",
                     "0.003,0.3", "--N", "16", "--M", "4", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    amps = [line.split(",")[:2] for line in outputs[0].decode().splitlines()[1:]]
    assert amps == [["0.002", "0.003"], ["0.002", "0.3"],
                    ["0.01", "0.003"], ["0.01", "0.3"]]


def assert_report_does_not_depend_on_the_worker_count(tail, items, tmp_path, monkeypatch):
    # one worker, then min(items, 4): the same report bytes
    reports = []
    for cpus in ({0}, {0, 1, 2, 3}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        path = tmp_path / f"{tail[0]}-{len(cpus)}.json"
        assert main(["verify", *tail, "--seed", "3", "--report", str(path)]) == 0
        reports.append(path.read_bytes())
        manifest = json.loads(Path(str(path) + ".manifest.json").read_text())
        jsonschema.validate(manifest, load_schema("manifest.schema.json"))
        assert manifest["workers"] == min(items, len(cpus))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("lemma", ["2.4", "2.7"])  # the static and the time path
def test_verify_bilinear_report_does_not_depend_on_the_worker_count(
    lemma, tmp_path, monkeypatch
):
    tail = ["bilinear", "--lemma", lemma, "--N", "16,32", "--trials", "5"]
    assert_report_does_not_depend_on_the_worker_count(tail, 5, tmp_path, monkeypatch)


@pytest.mark.parametrize(
    "tail, items",
    [
        (["bony", "--N", "16", "--trials", "3"], 3),
        (["bony", "--n", "3", "--N", "8", "--trials", "2"], 2),
        (["heatchar", "--N", "8,16", "--trials", "2"], 8),  # 4 cases of 2 fields
        (["heatchar", "--n", "1", "--N", "8,16", "--trials", "3"], 12),
    ],
    ids=["bony-n2", "bony-n3", "heatchar-n2", "heatchar-n1"],
)
def test_verify_bony_and_heatchar_reports_do_not_depend_on_the_worker_count(
    tail, items, tmp_path, monkeypatch
):
    assert_report_does_not_depend_on_the_worker_count(tail, items, tmp_path, monkeypatch)


def test_sweep_and_serial_verify_manifests_record_the_workers(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--amps-u", "0.002,0.01", "--amps-theta", "0.003",
                 "--N", "16", "--M", "4", "--out", str(out)]) == 0
    report = tmp_path / "bernstein.json"
    assert main(["verify", "bernstein", "--N", "16", "--trials", "2",
                 "--report", str(report)]) == 0
    for path, count in ((out, 2), (report, 1)):  # two rows; bernstein stays serial
        manifest = json.loads(Path(str(path) + ".manifest.json").read_text())
        jsonschema.validate(manifest, load_schema("manifest.schema.json"))
        assert manifest["workers"] == count


def test_verify_and_sweep_manifests_record_the_workers_peak_rss(tmp_path, monkeypatch):
    # the largest peak RSS among the workers each command forked; the
    # report itself carries no memory figure
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    out, report = tmp_path / "sweep.csv", tmp_path / "bony.json"
    assert main(["sweep", "--amps-u", "0.002,0.01", "--amps-theta", "0.003",
                 "--N", "16", "--M", "4", "--out", str(out)]) == 0
    assert main(["verify", "bony", "--N", "16", "--trials", "2",
                 "--report", str(report)]) == 0
    for path in (out, report):
        manifest = json.loads(Path(str(path) + ".manifest.json").read_text())
        jsonschema.validate(manifest, load_schema("manifest.schema.json"))
        assert manifest["workers"] == 2
        assert manifest["children_maxrss_mb"] > 1.0
    assert "children_maxrss_mb" not in json.loads(report.read_text())
    bad = dict(manifest, children_maxrss_mb=-1.0)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(bad, load_schema("manifest.schema.json"))


def test_verify_comb_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "comb", "--seed", "9", "--report", str(a)]) == 0
    assert main(["verify", "comb", "--seed", "9", "--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_rerun_byte_identical(field_files, tmp_path):
    args = ["solve", "--u0", field_files["u0"], "--theta0",
            field_files["theta0"], "--T", "0.25", "--M", "8",
            "--regime", "thm1.2"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--report", str(a)]) == 0
    assert main(args + ["--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
