import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sixch
from sixch.cli import main, parse_config
from sixch.diagnostics import dispersion_wavenumber
from sixch.errors import ConfigError
from sixch.initdata import generate
from sixch.model import energy
from sixch.snapshots import read_snapshot
from sixch.stepper import SolverConfig

CONSTANT_CONFIG = """
[grid]
dim = 1
counts = 32
lengths = 1.0
bc = neumann

[potential]
lambda = 3.0
eta = 1.0

[initial]
kind = constant
mean = 0.2

[solver]
scheme = imex
dt0 = 0.01
dt_min = 1e-8
dt_max = 0.1

[run]
t_end = 0.5
snapshot_every = 10
"""

NOISE_CONFIG = """
[grid]
counts = 64
lengths = 12.566370614359172
bc = neumann

[potential]
lambda = 3.0
eta = 1.0

[initial]
kind = noise
mean = 0.2
amplitude = 0.05
seed = 7
cutoff = 10

[solver]
dt0 = 1e-4
dt_min = 1e-10
dt_max = 1e-2

[run]
t_end = 0.05
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_parses_constant_config(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, CONSTANT_CONFIG))
        assert cfg.grid.counts == (32,)
        assert cfg.potential.params.lam == 3.0
        assert cfg.initial.kind == "constant"
        assert cfg.t_end == 0.5
        assert cfg.snapshot_every == 10

    def test_unknown_key_rejected(self, tmp_path):
        bad = CONSTANT_CONFIG.replace("eta = 1.0", "eta = 1.0\netaa = 2.0")
        with pytest.raises(ConfigError, match="etaa"):
            parse_config(write_config(tmp_path, bad))

    def test_unknown_section_rejected(self, tmp_path):
        bad = CONSTANT_CONFIG + "\n[typo]\nx = 1\n"
        with pytest.raises(ConfigError, match="typo"):
            parse_config(write_config(tmp_path, bad))

    def test_inadmissible_mean_rejected(self, tmp_path):
        bad = CONSTANT_CONFIG.replace("mean = 0.2", "mean = 1.0")
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, bad))

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, NOISE_CONFIG)
        assert parse_config(path).initial.seed == 7
        assert parse_config(path, seed_override=99).initial.seed == 99

    @pytest.mark.parametrize("solver_section", ["", "[solver]\n"])
    def test_solver_defaults_from_dataclass(self, tmp_path, solver_section):
        head, tail = CONSTANT_CONFIG.split("[solver]")
        text = head + solver_section + tail[tail.index("[run]"):]
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.solver == SolverConfig()


class TestRunCommand:
    def test_constant_run_exit_zero(self, tmp_path):
        path = write_config(tmp_path, CONSTANT_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mass_drift"] <= 1e-14
        assert summary["final_time"] == pytest.approx(0.5, abs=1e-12)
        assert (out / "ledger.csv").exists()
        assert (out / "provenance.json").exists()
        field, meta = read_snapshot(out / "final_state")
        assert np.allclose(field.values, 0.2)
        assert meta["label"] == "final"
        snaps = sorted((out / "snapshots").glob("*.f64"))
        assert snaps, "cadence snapshots missing"

    def test_bad_config_exit_one(self, tmp_path):
        path = write_config(tmp_path, CONSTANT_CONFIG.replace("mean = 0.2", "mean = 1.5"))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_missing_config_exit_one(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_solver_failure_exit_two(self, tmp_path):
        text = NOISE_CONFIG.replace("amplitude = 0.05", "amplitude = 0.6")
        text = text.replace("[solver]", "[solver]\nscheme = newton\nguard_eps = 0.45")
        text = text.replace("dt_min = 1e-10", "dt_min = 1e-4")
        path = write_config(tmp_path, text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_start_past_the_newton_guard_fails_without_an_attempt(self, tmp_path, capsys,
                                                                  monkeypatch):
        # sup|u0| = 0.9995 > 1 - guard_eps: the step's own guard check made the
        # controller halve dt down to dt_min and end in StepFloorError
        from sixch import stepper

        attempts, step = [], stepper._STEPPERS["newton"]
        monkeypatch.setitem(stepper._STEPPERS, "newton",
                            lambda *args: attempts.append(None) or step(*args))
        text = NOISE_CONFIG.replace("kind = noise", "kind = mode\nmode = 1")
        text = text.replace("amplitude = 0.05", "amplitude = 0.7995")
        text = text.replace("[solver]", "[solver]\nscheme = newton")
        path = write_config(tmp_path, text.replace("dt_min = 1e-10", "dt_min = 1e-12"))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "GuardViolation" in capsys.readouterr().err
        assert attempts == []

    def test_deterministic_outputs(self, tmp_path):
        path = write_config(tmp_path, NOISE_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "ledger.csv").read_bytes() == (out2 / "ledger.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        assert (out1 / "final_state.f64").read_bytes() == (out2 / "final_state.f64").read_bytes()


class TestInitCommand:
    def test_writes_initial_state(self, tmp_path):
        path = write_config(tmp_path, NOISE_CONFIG)
        out = tmp_path / "out"
        assert main(["init", "--config", str(path), "--out", str(out)]) == 0
        field, meta = read_snapshot(out / "initial_state")
        assert meta["label"] == "noise"
        assert abs(field.values.mean() - 0.2) <= 1e-12

    def test_writes_the_state_a_run_starts_from(self, tmp_path):
        # at a level `run` regularizes its start (sup 0.9 -> 0.59, mean 0.2 ->
        # 0.16 here); `init` wrote the unregularized field
        text = CONSTANT_CONFIG.replace("eta = 1.0", "eta = 1.0\ntruncation = 10").replace(
            "kind = constant", "kind = mode\namplitude = 0.7").replace(
            "t_end = 0.5", "t_end = 0.5\nmax_steps = 1")
        path = write_config(tmp_path, text)
        for command in ("init", "run"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
        init = (tmp_path / "init" / "initial_state.f64").read_bytes()
        assert init == (tmp_path / "run" / "snapshots" / "state_000000.f64").read_bytes()


class TestVerifyCommand:
    def test_default_suite_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_a_raising_check_says_why(self, capsys, monkeypatch):
        def broken():
            raise ZeroDivisionError("no samples to divide by")

        monkeypatch.setattr("sixch.verify._check_roundtrip", broken)
        assert main(["verify"]) == 3
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if "FAIL" in line and "verify:" not in line]
        assert len(failed) == 1 and failed[0].startswith("transform round trip")
        assert failed[0].endswith("FAIL  (ZeroDivisionError: no samples to divide by)")
        assert lines[-1] == "verify: 1 failing invariant(s): transform round trip"
        assert all(line.endswith("  PASS") for line in lines[:-1] if line not in failed)

    def test_config_and_out_are_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setattr("sixch.verify.run_invariant_suite", lambda: [("check", True, "")])
        bad = write_config(tmp_path, NOISE_CONFIG.replace("counts = 64", "counts = 3"))
        assert main(["verify", "--config", str(bad), "--out", str(tmp_path / "out")]) == 0
        assert not (tmp_path / "out").exists()


class TestDispersionCommand:
    def test_rates_csv(self, tmp_path):
        text = NOISE_CONFIG + ("\n[dispersion]\nk_indices = 1 2 3\n"
                               "pairs = 0:0, 3:0\nsteps = 40\n")
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["dispersion", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "dispersion.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda,eta,k_index,k,measured,predicted,rel_error"
        assert len(lines) == 1 + 2 * 3
        worst = max(float(l.split(",")[-1]) for l in lines[1:])
        assert worst <= 0.01


class TestCdepCommand:
    def test_envelope_report(self, tmp_path):
        text = NOISE_CONFIG.replace("bc = neumann", "bc = periodic")
        text = text.replace("amplitude = 0.05", "amplitude = 0.02")
        text += "\n[cdep]\nt_end = 0.5\nmode = 1\namplitude = 1e-6\n"
        text = text.replace("dt0 = 1e-4", "dt0 = 2e-3")
        text = text.replace("dt_max = 1e-2", "dt_max = 2e-3")
        text = text.replace("dt_min = 1e-10", "dt_min = 2e-3")
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["cdep", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "cdep.json").read_text())
        assert report["envelope_ok"] is True
        assert report["fitted_C"] < 0.0


    def test_truncated_pair_is_regularized_as_a_run_start(self, tmp_path):
        # sup|u0| ~ 0.9 lies past the Newton guard 1 - 1/5 - guard_eps, so the
        # pair steps only if it is regularized as `sixch run` regularizes u0
        text = NOISE_CONFIG.replace("bc = neumann", "bc = periodic")
        text = text.replace("mean = 0.2\namplitude = 0.05", "mean = 0.1\namplitude = 0.8")
        text = text.replace("eta = 1.0", "eta = 1.0\ntruncation = 5")
        text = text.replace("dt0 = 1e-4", "scheme = newton\ndt0 = 1e-3")
        text = text.replace("dt_min = 1e-10", "dt_min = 1e-3")
        text = text.replace("dt_max = 1e-2", "dt_max = 1e-3")
        text = text.replace("t_end = 0.05", "t_end = 0.01")
        text += "\n[cdep]\nt_end = 0.01\nmode = 1\namplitude = 1e-6\n"
        path = write_config(tmp_path, text)
        for command in ("run", "cdep"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out)]) == 0, command
        assert len(json.loads((tmp_path / "cdep" / "cdep.json").read_text())["times"]) == 11


class TestShippedConfigs:
    def test_all_parse(self):
        from pathlib import Path
        configs = sorted(Path(__file__).parent.parent.glob("configs/*.ini"))
        assert len(configs) >= 4
        for path in configs:
            cfg = parse_config(path)
            assert cfg.grid.dim == 1

    def test_benchmark_short_run(self, tmp_path):
        from pathlib import Path
        text = (Path(__file__).parent.parent / "configs" / "benchmark1d.ini").read_text()
        text = text.replace("max_steps = 10000", "max_steps = 50")
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 50
        assert summary["mass_drift"] <= 1e-12


class TestSweepCommand:
    def test_grid_of_runs(self, tmp_path):
        text = NOISE_CONFIG.replace("t_end = 0.05", "t_end = 0.01")
        text += "\n[sweep]\nlambdas = 0 3\netas = 1\ntruncations = 0 10\n"
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--threads", "2"]) == 0
        subdirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert len(subdirs) == 4
        for sub in subdirs:
            assert (out / sub / "ledger.csv").exists()

    def test_each_run_writes_the_directory_parsed_for_it(self, tmp_path):
        text = NOISE_CONFIG.replace("t_end = 0.05", "t_end = 0.01")
        path = write_config(tmp_path, text + "\n[sweep]\nlambdas = 0 3\netas = 1 2\n")
        cfg = parse_config(path)
        runs = cfg.extras["sweep"]["runs"]
        names = [name for name, _ in runs]
        assert names == ["lam0_eta1_n0", "lam0_eta2_n0", "lam3_eta1_n0", "lam3_eta2_n0"]
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == names
        u0 = generate(cfg.initial, cfg.grid)
        for name, nl in runs:  # the initial energy shows whose run a directory holds
            with open(out / name / "ledger.csv") as fh:
                first = next(csv.DictReader(fh))
            assert float(first["E_total"]) == energy(u0, nl).total


# config edits that each ended in a traceback, or failed only after the
# output directory was made, instead of exit 1; a string is appended to
# NOISE_CONFIG, a function rewrites it
MALFORMED = {
    "dispersion_steps_1": ("dispersion", "[dispersion]\nsteps = 1\n", []),
    "dispersion_steps_0": ("dispersion", "[dispersion]\nsteps = 0\n", []),
    "dispersion_k_0": ("dispersion", "[dispersion]\nk_indices = 0\n", []),
    "dispersion_pairs_1": ("dispersion", "[dispersion]\npairs = 1\n", []),
    "dispersion_samples_2": ("dispersion", "[dispersion]\nsamples = 2\n", []),
    "cdep_amplitude_abc": ("cdep", "[cdep]\namplitude = abc\n", []),
    "cdep_mode_x": ("cdep", "[cdep]\nmode = x\n", []),
    "cdep_t_end_negative": ("cdep", "[cdep]\nt_end = -1\n", []),
    "cdep_t_end_nan": ("cdep", "[cdep]\nt_end = nan\n", []),
    "sweep_lambdas_x": ("sweep", "[sweep]\nlambdas = x\n", []),
    "sweep_truncation_2": ("sweep", "[sweep]\ntruncations = 2\n", []),
    # a Newton guard, 1 - 1/n - guard_eps, below the regularized start's bound 1 - 2/n
    "potential_truncation_5_guard_eps": ("run", lambda text: text.replace(
        "eta = 1.0", "eta = 1.0\ntruncation = 5").replace(
        "[solver]", "[solver]\nguard_eps = 0.25"), []),
    "sweep_truncation_40_guard_eps": ("sweep", lambda text: text.replace(
        "[solver]", "[solver]\nguard_eps = 0.03") + "\n[sweep]\ntruncations = 40\n", []),
    "sweep_threads_0": ("sweep", "", ["--threads", "0"]),
    # argparse's usage errors, which exited 2, a solver failure's code
    "run_threads_abc": ("run", "", ["--threads", "abc"]),
    "command_unknown": ("simulate", "", []),
    "duplicate_section": ("run", "[grid]\nbc = periodic\n", []),
    "duplicate_key": ("run", "[cdep]\nmode = 1\nmode = 2\n", []),
    "key_before_header": ("run", lambda text: "dim = 1\n" + text, []),
    "line_without_equals": ("run", "[cdep]\nmode\n", []),
    "initial_seed_negative": ("run", lambda text: text.replace("seed = 7", "seed = -3"), []),
    "seed_option_negative": ("init", "", ["--seed", "-1"]),
    "grid_length_nan": ("init", lambda text: text.replace("lengths = 12.566370614359172",
                                                           "lengths = nan"), []),
    "grid_length_inf": ("init", lambda text: text.replace("lengths = 12.566370614359172",
                                                           "lengths = inf"), []),
    "initial_amplitude_nan": ("init", lambda text: text.replace("amplitude = 0.05",
                                                                "amplitude = nan"), []),
    # [initial] specs the grid cannot realize
    "initial_mode_unresolvable": ("init", lambda text: text.replace(
        "kind = noise", "kind = mode\nmode = 64"), []),
    "initial_amplitude_past_margin": ("run", lambda text: text.replace(
        "amplitude = 0.05", "amplitude = 0.8"), []),
    "initial_noise_cutoff_0": ("init", lambda text: text.replace("cutoff = 10", "cutoff = 0"),
                               []),
    "initial_tanh_width_0": ("init", lambda text: text.replace(
        "kind = noise", "kind = tanh\nwidth = 0"), []),
    "dispersion_amplitude_0": ("dispersion", "[dispersion]\namplitude = 0\n", []),
    "dispersion_amplitude_1.5": ("dispersion", "[dispersion]\namplitude = 1.5\n", []),
    "dispersion_amplitude_nan": ("dispersion", "[dispersion]\namplitude = nan\n", []),
    # mode 1 is neutral at lambda = 2, eta = 0 on the default length 2 pi
    "dispersion_mode_neutral": ("dispersion", "[dispersion]\npairs = 2:0\nk_indices = 1\n", []),
    "dispersion_mode_past_float_range": ("dispersion",
                                         f"[dispersion]\nk_indices = {10**200}\n", []),
    # a step limit below 1 still took one step
    "run_max_steps_0": ("run", lambda text: text.replace("t_end = 0.05",
                                                         "t_end = 0.05\nmax_steps = 0"), []),
    "run_max_steps_negative": ("run", lambda text: text.replace(
        "t_end = 0.05", "t_end = 0.05\nmax_steps = -3"), []),
    "sweep_max_steps_0": ("sweep", "[sweep]\nmax_steps = 0\n", []),
    "sweep_max_steps_negative": ("sweep", "[sweep]\nmax_steps = -3\n", []),
    "run_snapshot_every_negative": ("run", lambda text: text.replace(
        "t_end = 0.05", "t_end = 0.05\nsnapshot_every = -1"), []),
    # sweep runs whose output directories coincide
    "sweep_lambdas_repeated": ("sweep", "[sweep]\nlambdas = 3 3\n", []),
    "sweep_lambdas_one_directory": ("sweep", "[sweep]\nlambdas = 3.0000001 3.0000002\n", []),
    # [solver] values that ran (a NaN growth factor pinned dt at dt_max, a NaN
    # newton_tol went unread under IMEX) or failed only in the first step
    "solver_s1_nan": ("run", lambda text: text.replace("[solver]", "[solver]\ns1 = nan"), []),
    "solver_s1_negative": ("run", lambda text: text.replace("[solver]", "[solver]\ns1 = -1e6"),
                           []),
    "solver_s2_inf": ("run", lambda text: text.replace("[solver]", "[solver]\ns2 = inf"), []),
    "solver_growth_factor_nan": ("run", lambda text: text.replace(
        "[solver]", "[solver]\ngrowth_factor = nan"), []),
    "solver_energy_tol_nan": ("run", lambda text: text.replace(
        "[solver]", "[solver]\nenergy_tol = nan"), []),
    "solver_newton_tol_nan": ("run", lambda text: text.replace(
        "[solver]", "[solver]\nnewton_tol = nan"), []),
    # an infinite newton_tol took the initial state as every Newton step's
    # solution; an infinite energy_tol switched the dissipation test off
    "solver_newton_tol_inf": ("run", lambda text: text.replace(
        "[solver]", "[solver]\nnewton_tol = inf"), []),
    "solver_energy_tol_inf": ("run", lambda text: text.replace(
        "[solver]", "[solver]\nenergy_tol = inf"), []),
    # the cdep fit window is t >= 5*dt0, not a key
    "cdep_fit_skip": ("cdep", "[cdep]\nfit_skip = 0.1\n", []),
    # values each parser rejects, untested before
    "grid_dim_2_one_count": ("run", lambda text: text.replace(
        "counts = 64", "dim = 2\ncounts = 64"), []),
    "grid_bc_dirichlet": ("run", lambda text: text.replace("bc = neumann", "bc = dirichlet"),
                          []),
    "initial_kind_bump": ("init", lambda text: text.replace("kind = noise", "kind = bump"), []),
    "initial_constant_mean_past_margin": ("init", lambda text: text.replace(
        "kind = noise", "kind = constant").replace("mean = 0.2", "mean = 0.9999999"), []),
    "sweep_lambdas_empty": ("sweep", "[sweep]\nlambdas =\n", []),
    "solver_scheme_rk4": ("run", lambda text: text.replace(
        "[solver]", "[solver]\nscheme = rk4"), []),
    "solver_guard_eps_0.5": ("run", lambda text: text.replace(
        "[solver]", "[solver]\nguard_eps = 0.5"), []),
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_config_error_exit_one(self, tmp_path, capsys, case):
        command, extra, argv = MALFORMED[case]
        text = extra(NOISE_CONFIG) if callable(extra) else NOISE_CONFIG + "\n" + extra
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1, err
        assert not out.exists()  # rejected before any work

    @pytest.mark.parametrize("case, bad", [("key_before_header", "dim = 1"),
                                           ("line_without_equals", "mode")])
    def test_parse_error_names_the_file_line_and_text(self, tmp_path, capsys, case, bad):
        command, extra, _ = MALFORMED[case]
        text = extra(NOISE_CONFIG) if callable(extra) else NOISE_CONFIG + "\n" + extra
        path = write_config(tmp_path, text)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        line, shown = text.splitlines().index(bad) + 1, repr(bad + "\n")
        assert repr(str(path)) in err and f"[line {line:2d}]: {shown}" in err, err

    def test_run_without_config_exit_one(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --config is required")
        assert not out.exists()

    def test_out_naming_a_file_exit_one(self, tmp_path, capsys):
        # it ended in a FileExistsError traceback
        (tmp_path / "a_file").write_text("kept")
        path = write_config(tmp_path, NOISE_CONFIG)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "a_file")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1, err
        assert (tmp_path / "a_file").read_text() == "kept"

    def test_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: sixch")

    # each made `init` and `run` exit 2 on a non-finite field, after making
    # the output directory; position = 24 made an artefact instead: the
    # interface lies 18 widths past the last sample, where tanh varies by
    # rounding alone (ptp 2.2e-16), and `generate` stretched that to a ramp
    @pytest.mark.parametrize("command", ["init", "run"])
    @pytest.mark.parametrize("edit", ["position = nan", "position = inf", "position = 1e9",
                                      "position = 24", "width = inf"])
    def test_tanh_profile_finite_and_varying(self, tmp_path, capsys, command, edit):
        text = NOISE_CONFIG.replace("kind = noise", f"kind = tanh\n{edit}")
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    def test_pool_no_larger_than_the_job_count(self, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # cmd_sweep imports the pool class when it makes a pool
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        text = NOISE_CONFIG.replace("t_end = 0.05", "t_end = 0.01")
        path = write_config(tmp_path, text + "\n[sweep]\nlambdas = 0 3\n")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--threads", "100000"]) == 0
        assert sizes == [2]

    def test_dispersion_amplitude_passed_through(self, tmp_path, monkeypatch):
        seen = []

        def fake_experiment(p, **opts):
            seen.append(opts["amplitude"])
            return []

        monkeypatch.setattr("sixch.diagnostics.dispersion_experiment", fake_experiment)
        path = write_config(tmp_path, NOISE_CONFIG + "\n[dispersion]\namplitude = 0.3\n")
        assert main(["dispersion", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert seen == [0.3]


NAN, INF = float("nan"), float("inf")
# the out-of-range values each field of an invocation may take
FAULTS = {"counts": (-2, 0, 3), "lengths": (0.0, -1.0, NAN, INF),
          "mean": (NAN, -1.0, 1.0, 1.5), "amplitude": (NAN, -0.1, 2.0),
          "mode": (-1, 0, 41), "cutoff": (-1, 0), "position": (NAN, INF, -INF, 1e9),
          "width": (0.0, -1.0, NAN, INF), "seed": (-3, -1), "--seed": (-3, -1)}
RUN_FAULTS = {"t_end": (0.0, -1.0, NAN, INF), "max_steps": (-3, 0)}


def _init_invocation(draw, fault, max_count):
    """A small [grid] + [potential] + [initial] config and its argv; the
    field named `fault` (if any) is drawn from FAULTS, the others are
    admissible."""

    def value(name, good):
        return draw(st.sampled_from(FAULTS[name]) if name == fault else good)

    dim = draw(st.integers(1, 2))
    axis = draw(st.integers(0, dim - 1))  # the axis a grid fault goes to
    counts = [value("counts", st.integers(4, max_count)) if ax == axis
              else draw(st.integers(4, max_count)) for ax in range(dim)]
    lengths = [value("lengths", st.floats(0.5, 20.0)) if ax == axis
               else draw(st.floats(0.5, 20.0)) for ax in range(dim)]
    interface = (f"{fault} = {draw(st.sampled_from(FAULTS[fault]))!r}\n"
                 if fault in ("position", "width") else "")  # else the default interface
    text = (f"[grid]\ndim = {dim}\ncounts = {' '.join(map(str, counts))}\n"
            f"lengths = {' '.join(map(repr, lengths))}\n"
            f"bc = {draw(st.sampled_from(['neumann', 'periodic']))}\n"
            "[potential]\nlambda = 3.0\neta = 1.0\n"
            f"[initial]\nkind = {draw(st.sampled_from(['constant', 'mode', 'noise', 'tanh']))}\n"
            f"mean = {value('mean', st.floats(-0.5, 0.5))!r}\n"
            f"amplitude = {value('amplitude', st.floats(0.0, 0.4))!r}\n"
            f"mode = {value('mode', st.integers(1, 3))}\n"
            f"cutoff = {value('cutoff', st.integers(1, 20))}\n"
            f"seed = {value('seed', st.integers(0, 50))}\n" + interface)
    seed = value("--seed", st.none() | st.integers(0, 50))
    return text, [] if seed is None else ["--seed", str(seed)]


@st.composite
def init_invocations(draw, max_count=40, faults=True):
    """An `_init_invocation`; half the time (never if not `faults`) one
    field is drawn from FAULTS."""
    fault = draw(st.none() | st.sampled_from(list(FAULTS))) if faults else None
    return _init_invocation(draw, fault, max_count)


@st.composite
def run_invocations(draw, faults=True):
    """An `_init_invocation` on at most 16 samples per axis, with a [run]
    section of at most 3 steps; half the time (never if not `faults`) one
    field of the whole invocation is drawn from FAULTS or RUN_FAULTS."""
    fault = draw(st.none() | st.sampled_from([*FAULTS, *RUN_FAULTS])) if faults else None
    text, argv = _init_invocation(draw, fault, 16)
    t_end = draw(st.sampled_from(RUN_FAULTS["t_end"]) if fault == "t_end"
                 else st.floats(1e-4, 5e-3))
    max_steps = draw(st.sampled_from(RUN_FAULTS["max_steps"]) if fault == "max_steps"
                     else st.integers(1, 3))
    return text + f"[run]\nt_end = {t_end!r}\nmax_steps = {max_steps}\n", argv


DISPERSION_FAULTS = {"k_indices": ("0", "-1", "", "x"), "steps": (0, 1), "samples": (2, 3),
                     "amplitude": (0.0, 1.5, NAN), "length": (0.0, -1.0, NAN, INF),
                     "pairs": ("1", "a:b", "nan:0")}


@st.composite
def dispersion_invocations(draw):
    """An admissible `init_invocations` config with a [dispersion] section of
    at most 16 samples and 3 steps; half the time one [dispersion] field is
    drawn from DISPERSION_FAULTS, and a last pair may make one drawn mode
    neutral."""
    text, argv = draw(init_invocations(max_count=16, faults=False))
    fault = draw(st.none() | st.sampled_from(list(DISPERSION_FAULTS)))

    def value(name, good):
        return draw(st.sampled_from(DISPERSION_FAULTS[name]) if name == fault else good)

    k_indices = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    length = value("length", st.just(2.0 * np.pi) | st.floats(0.5, 20.0))
    pairs = draw(st.lists(st.tuples(st.floats(-5.0, 10.0), st.floats(-5.0, 5.0)),
                          min_size=1, max_size=2))
    if draw(st.booleans()) and 0.0 < length < INF:
        # sigma(k) = -k^2 (k^2 + 1 - lambda)(k^2 + 1 - lambda + eta) vanishes
        # exactly at lambda = k^2 + 1, or at eta = lambda - (k^2 + 1)
        k2 = dispersion_wavenumber(draw(st.sampled_from(k_indices)), length) ** 2
        x = draw(st.floats(-5.0, 10.0))
        pairs.append(draw(st.sampled_from([(k2 + 1.0, x), (x, x - (k2 + 1.0))])))
    pairs_text = value("pairs", st.just(", ".join(f"{lam!r}:{eta!r}" for lam, eta in pairs)))
    return text + ("[dispersion]\n"
                   f"k_indices = {value('k_indices', st.just(' '.join(map(str, k_indices))))}\n"
                   f"length = {length!r}\npairs = {pairs_text}\n"
                   f"samples = {value('samples', st.integers(4, 16))}\n"
                   f"steps = {value('steps', st.integers(2, 3))}\n"
                   f"amplitude = {value('amplitude', st.floats(1e-8, 0.5))!r}\n"), argv


SWEEP_FAULTS = {"lambdas": ("x", "3 3", "nan"), "etas": ("inf", "1 1.0000001"),
                "truncations": ("2", "-1", "x"), "t_end": (0.0, NAN, INF),
                "max_steps": (0, -3), "--threads": (0, -1)}


@st.composite
def sweep_invocations(draw):
    """An admissible `run_invocations` config with a [sweep] section of at most
    two values per axis and runs of at most 3 steps; half the time one
    [sweep] field (or --threads) is drawn from SWEEP_FAULTS."""
    text, argv = draw(run_invocations(faults=False))
    fault = draw(st.none() | st.sampled_from(list(SWEEP_FAULTS)))

    def value(name, good):
        return draw(st.sampled_from(SWEEP_FAULTS[name]) if name == fault else good)

    def axis(name, values):
        return value(name, st.lists(values, min_size=1, max_size=2, unique=True).map(
            lambda xs: " ".join(map(repr, xs))))

    threads = value("--threads", st.just(1))
    return text + ("[sweep]\n"
                   f"lambdas = {axis('lambdas', st.floats(-2.0, 6.0))}\n"
                   f"etas = {axis('etas', st.floats(-2.0, 2.0))}\n"
                   f"truncations = {axis('truncations', st.sampled_from([0, 3, 10, 40]))}\n"
                   f"t_end = {value('t_end', st.floats(1e-4, 5e-3))!r}\n"
                   f"max_steps = {value('max_steps', st.integers(1, 3))}\n"), \
        [*argv, "--threads", str(threads)]


class TestBadInputProperty:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(init_invocations())
    def test_init_exits_with_a_code_never_a_traceback(self, invocation):
        text, argv = invocation
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ini"
            path.write_text(text)
            assert main(["init", "--config", str(path), "--out", str(Path(tmp) / "out"),
                         *argv]) in (0, 1)

    @pytest.mark.parametrize("command", ["run", "cdep"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(invocation=run_invocations())
    def test_run_and_cdep_exit_with_a_code_never_a_traceback(self, command, invocation):
        text, argv = invocation
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ini"
            path.write_text(text)
            assert main([command, "--config", str(path), "--out", str(Path(tmp) / "out"),
                         *argv]) in (0, 1, 2)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(invocation=dispersion_invocations())
    def test_dispersion_exits_with_a_code_never_a_traceback(self, invocation):
        text, argv = invocation
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ini"
            path.write_text(text)
            assert main(["dispersion", "--config", str(path), "--out", str(Path(tmp) / "out"),
                         *argv]) in (0, 1, 2)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(invocation=sweep_invocations())
    def test_sweep_exits_with_a_code_never_a_traceback(self, invocation):
        text, argv = invocation
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ini"
            path.write_text(text)
            assert main(["sweep", "--config", str(path), "--out", str(Path(tmp) / "out"),
                         *argv]) in (0, 1, 2)


def test_cli_set_up_loads_no_scipy_module_f2py_or_process_pool():
    # scipy serves the engine through pocketfft's binding alone, loaded from
    # its file: a run's set-up loads no scipy module (scipy.fft, scipy.special,
    # scipy.sparse, scipy.linalg), none of the numpy.f2py that scipy.fft's
    # array-API layer pulls in, and sweep's process pool only when a sweep
    # makes one
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import sixch.cli; "
              "sixch.cli.parse_config(sys.argv[2]); "
              "print([m for m in sys.modules if m == 'scipy' or m.startswith("
              "('scipy.', 'numpy.f2py', 'concurrent.futures.process'))])")
    src = Path(sixch.__file__).resolve().parent.parent
    config = src.parent / "configs" / "benchmark1d.ini"
    out = subprocess.run([sys.executable, "-c", script, str(src), str(config)],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"
