import json
from pathlib import Path

import numpy as np
import pytest

from sixch import grid as gr
from sixch.diagnostics import (CSV_COLUMNS, RunLedger, cdep_experiment,
                               dispersion_experiment, energy_identity_residual,
                               separation_report, truncation_convergence)
from sixch.errors import MeanMismatch, RangeError, ShapeError, StepFloorError
from sixch.grid import Grid, ScalarField, constant_field
from sixch.initdata import InitialSpec, generate
from sixch.model import State
from sixch.potential import PotentialParams
from sixch.stepper import SolverConfig, advance

P0 = PotentialParams(0.0, 0.0)
SPINODAL = PotentialParams(3.0, 1.0)
BETA_HALF = 0.5493061443340548


def spinodal_ledger(t_end=0.2, n=128, seed=7, dt0=1e-4, dt_max=5e-3, fixed_dt=None):
    grid = Grid((4 * np.pi,), (n,), gr.NEUMANN)
    u0 = generate(InitialSpec(kind="noise", mean_m=0.2, amplitude=0.05,
                              seed=seed, cutoff=10), grid)
    if fixed_dt is not None:
        cfg = SolverConfig(dt0=fixed_dt, dt_min=fixed_dt, dt_max=fixed_dt)
    else:
        cfg = SolverConfig(dt0=dt0, dt_min=1e-10, dt_max=dt_max)
    ledger = RunLedger()
    advance(u0, t_end, SPINODAL, cfg, ledger=ledger)
    return ledger


class TestRecord:
    def test_zero_state_row(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        ledger = RunLedger()
        row = ledger.record(State(constant_field(grid, 0.0), P0), 0.0, 0.0)
        assert row.mass == 0.0
        assert row.E_total == 0.0
        assert row.grad_mu_sq == 0.0
        assert row.delta_sep == 1.0
        assert row.rejections == 0

    def test_half_constant_row(self):
        grid = Grid((1.0,), (64,), gr.NEUMANN)
        ledger = RunLedger()
        row = ledger.record(State(constant_field(grid, 0.5), P0), 0.0, 0.0)
        assert row.mass == pytest.approx(0.5, abs=1e-15)
        assert row.E_willmore == pytest.approx(0.5 * BETA_HALF**2, rel=1e-13)
        assert row.delta_sep == pytest.approx(0.5, abs=1e-15)

    def test_row_is_its_csv_row(self, tmp_path):
        # a row holds Python floats in CSV_COLUMNS order, rejections an int,
        # and the CSV line is that tuple as written
        ledger = spinodal_ledger(t_end=0.01)
        row = ledger.rows[-1]
        assert row._fields == tuple(CSV_COLUMNS)
        assert all(type(v) is float for v in row[:-1]) and type(row.rejections) is int
        assert tuple(row) == tuple(ledger.column(name)[-1] for name in CSV_COLUMNS)
        path = tmp_path / "ledger.csv"
        ledger.write_csv(path)
        assert path.read_text().splitlines()[-1] == ",".join(map(repr, row))

    def test_column_names_only_csv_columns(self):
        # a tuple's own attributes (index, count) are no columns
        ledger = spinodal_ledger(t_end=0.01)
        for name in ("index", "count", "energy"):
            with pytest.raises(ValueError):
                ledger.column(name)

    def test_consecutive_rows_dissipate(self):
        ledger = spinodal_ledger(t_end=0.05)
        e = ledger.column("E_total")
        assert np.all(np.diff(e) <= 1e-10)

    def test_monotone_time_enforced(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        ledger = RunLedger()
        ledger.record(State(constant_field(grid, 0.0), P0), 0.0, 0.0)
        with pytest.raises(RangeError):
            ledger.record(State(constant_field(grid, 0.0), P0), 0.0, 0.0)

    def test_batched_state_rejected(self):
        # a row is one field's: a batch would give mixed scalars and (k,) columns
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        pair = ScalarField.stack([constant_field(grid, 0.1), constant_field(grid, 0.3)])
        ledger = RunLedger()
        with pytest.raises(ShapeError):
            ledger.record(State(pair, P0), 0.0, 0.0)
        assert ledger.rows == []

    def test_delta_sep_lipschitz_in_state(self):
        ledger = spinodal_ledger(t_end=0.05)
        # |delta(t+dt) - delta(t)| <= ||u+ - u||_inf; extrema move at most
        # as fast as the field, checked via consecutive extrema columns
        mins, maxs = ledger.column("min_u"), ledger.column("max_u")
        deltas = ledger.column("delta_sep")
        for i in range(len(deltas) - 1):
            state_move = max(abs(mins[i + 1] - mins[i]), abs(maxs[i + 1] - maxs[i]))
            assert abs(deltas[i + 1] - deltas[i]) <= state_move + 1e-14

    def test_csv_format(self, tmp_path):
        ledger = spinodal_ledger(t_end=0.01)
        path = tmp_path / "ledger.csv"
        ledger.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(ledger.rows) + 1
        # byte-identical on rewrite
        path2 = tmp_path / "ledger2.csv"
        ledger.write_csv(path2)
        assert path.read_bytes() == path2.read_bytes()


class TestEnergyIdentity:
    def test_constant_run_is_exact_zero(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        u0 = constant_field(grid, 0.3)
        ledger = RunLedger()
        advance(u0, 1.0, SPINODAL, SolverConfig(dt0=0.05, dt_min=1e-9, dt_max=0.05),
                ledger=ledger)
        assert energy_identity_residual(ledger, 0.0, 1.0) == 0.0

    def test_first_order_in_dt(self):
        residuals = []
        for dt in (2e-4, 1e-4):
            ledger = spinodal_ledger(t_end=0.1, fixed_dt=dt)
            residuals.append(energy_identity_residual(ledger, 0.02, 0.1))
        ratio = residuals[0] / residuals[1]
        assert 1.5 <= ratio <= 2.6, residuals

    def test_range_errors(self):
        ledger = spinodal_ledger(t_end=0.01)
        with pytest.raises(RangeError):
            energy_identity_residual(ledger, 0.0, 5.0)
        with pytest.raises(RangeError):
            energy_identity_residual(ledger, 0.01, 0.005)


class TestCdep:
    def _base(self, n=128):
        grid = Grid((2 * np.pi,), (n,), gr.PERIODIC)
        u01 = generate(InitialSpec(kind="noise", mean_m=0.1, amplitude=0.02,
                                   seed=11, cutoff=4), grid)
        bump = generate(InitialSpec(kind="mode", mean_m=0.0, amplitude=1e-6, mode=1), grid)
        return u01, u01 + bump

    def test_identical_inputs_flagged(self):
        u01, _ = self._base()
        cfg = SolverConfig(dt0=1e-4, dt_min=1e-8, dt_max=1e-3)
        report = cdep_experiment(u01, u01.copy(), P0, cfg, t_end=0.01)
        assert report.identical_inputs
        assert report.envelope_ok
        assert np.all(report.dual_distance == 0.0)

    def test_mean_mismatch_raises(self):
        u01, _ = self._base()
        shifted = ScalarField(u01.grid, u01.values + 1e-6)
        with pytest.raises(MeanMismatch):
            cdep_experiment(u01, shifted, P0, SolverConfig(), t_end=0.01)

    def test_contractive_envelope(self):
        u01, u02 = self._base()
        cfg = SolverConfig(dt0=2e-3, dt_min=2e-3, dt_max=2e-3)
        report = cdep_experiment(u01, u02, P0, cfg, t_end=1.0)
        assert report.rejections == 0  # a fixed dt the pair can take
        assert report.dual_distance[0] > 0.0
        assert report.envelope_ok
        assert report.fitted_C < 0.0
        assert np.isfinite(report.fitted_C)

    def test_fit_stable_under_dt_halving(self):
        u01, u02 = self._base()
        cs = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(dt0=dt, dt_min=dt, dt_max=dt)
            cs.append(cdep_experiment(u01, u02, P0, cfg, t_end=1.0).fitted_C)
        assert abs(cs[0] - cs[1]) <= 0.05 * abs(cs[1]), cs

    def test_rejection_floor_raises(self):
        # one Newton iteration converges at no retry (the state and config
        # of test_stepper's rejection-floor test), so the paired run must
        # stop with the controller's StepFloorError once dt_min is reached
        grid = Grid((4 * np.pi,), (64,), gr.NEUMANN)
        u01 = generate(InitialSpec(kind="noise", mean_m=0.0, amplitude=0.6,
                                   seed=19, cutoff=12), grid)
        bump = generate(InitialSpec(kind="mode", mean_m=0.0, amplitude=1e-3, mode=1), grid)
        cfg = SolverConfig(scheme="newton", dt0=1e-3, dt_min=1e-4, dt_max=1e-3,
                           newton_max_iters=1, energy_tol=0.0)
        with pytest.raises(StepFloorError):
            cdep_experiment(u01, u01 + bump, SPINODAL, cfg, t_end=1.0)


class TestCdepBatch:
    def test_pair_evaluated_once_per_step(self, monkeypatch):
        # the pair is one batched State: one pointwise pass per state, not per row
        from sixch.potential import Nonlinearity

        calls = []
        pointwise = Nonlinearity.pointwise

        def counted(self, r, jacobian=False):
            calls.append(np.shape(r))
            return pointwise(self, r, jacobian=jacobian)

        monkeypatch.setattr(Nonlinearity, "pointwise", counted)
        u01, u02 = TestCdep()._base(n=32)
        dt = 2e-3
        report = cdep_experiment(u01, u02, P0, SolverConfig(dt0=dt, dt_min=dt, dt_max=dt),
                                 t_end=20 * dt)
        n = len(report.times) - 1
        assert n == 20
        assert calls == [(2, 32)] * (n + 1)


class TestCdepDualDistance:
    """The pair distance is read from the states' coefficients, mass mode left out."""

    def _pair(self, amplitude):
        grid = Grid((2 * np.pi,), (128,), gr.PERIODIC)
        u01 = generate(InitialSpec(kind="noise", mean_m=0.1, amplitude=0.02,
                                   seed=11, cutoff=4), grid)
        bump = generate(InitialSpec(kind="mode", mean_m=0.0, amplitude=amplitude,
                                    mode=1), grid)
        return u01, u01 + bump

    @pytest.mark.parametrize("seed", [12, 14])
    def test_tiny_perturbation_completes(self, seed, tmp_path):
        # configs/cdep.ini's 1e-6 pair at a fixed step of 1.6e-4: on these
        # seeds the roundoff mean of u1 - u2 exceeds the zero-mean tolerance
        # of inv_A_zero_mean before t = 0.1
        import configparser

        from sixch.cli import main

        cp = configparser.ConfigParser()
        cp.read(Path(__file__).resolve().parent.parent / "configs" / "cdep.ini")
        cp["solver"].update({"dt0": "1.6e-4", "dt_min": "1.6e-4", "dt_max": "1.6e-4"})
        cp["cdep"].update({"amplitude": "1e-6", "t_end": "0.1"})
        config = tmp_path / "cdep.ini"
        with open(config, "w") as fh:
            cp.write(fh)
        out = tmp_path / "out"
        assert main(["cdep", "--config", str(config), "--seed", str(seed),
                     "--out", str(out)]) == 0
        report = json.loads((out / "cdep.json").read_text())
        assert report["times"][-1] == pytest.approx(0.1)
        assert all(d > 0.0 for d in report["dual_distance"])

    def test_matches_v0_dual_norm(self):
        u01, u02 = self._pair(1e-3)
        dt = 2e-3
        cfg = SolverConfig(dt0=dt, dt_min=dt, dt_max=dt)
        report = cdep_experiment(u01, u02, P0, cfg, t_end=0.02)
        u1 = advance(u01, 0.02, P0, cfg)
        u2 = advance(u02, 0.02, P0, cfg)
        for got, (a, b) in ((report.dual_distance[0], (u01, u02)),
                            (report.dual_distance[-1], (u1, u2))):
            ref = gr.v0_dual_norm(a - b)
            assert abs(got - ref) <= 1e-12 * ref


class TestTruncationConvergence:
    def test_constant_state_closed_form(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        m = 0.4
        u0 = constant_field(grid, m)
        cfg = SolverConfig(dt0=1e-3, dt_min=1e-9, dt_max=1e-2)
        rows = truncation_convergence(u0, SPINODAL, cfg, [10, 20], t_end=0.05)
        # constants evolve trivially; distance is the mean-scaling gap
        for row in rows:
            expected = abs(2.0 / row.n - 2.0 / row.n_double) * m * np.sqrt(grid.volume)
            assert row.distance == pytest.approx(expected, rel=1e-10)
        assert rows[1].distance < rows[0].distance

    def test_levels_validation(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        with pytest.raises(ValueError):
            truncation_convergence(constant_field(grid, 0.0), P0, SolverConfig(),
                                   [20, 10], t_end=0.1)


class TestSeparationReport:
    def test_constant_run(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        ledger = RunLedger()
        advance(constant_field(grid, 0.2), 0.5, P0,
                SolverConfig(dt0=0.05, dt_min=1e-9, dt_max=0.1), ledger=ledger)
        report = separation_report(ledger, 0.1)
        assert report.delta_min == pytest.approx(0.8, abs=1e-14)
        assert report.attained
        assert report.theoretical_guarantee

    def test_three_d_flagged_as_unguaranteed(self):
        grid = Grid((1.0, 1.0, 1.0), (8, 8, 8), gr.NEUMANN)
        ledger = RunLedger()
        ledger.record(State(constant_field(grid, 0.0), P0), 0.0, 0.0)
        ledger.record(State(constant_field(grid, 0.0), P0), 0.1, 0.1)
        report = separation_report(ledger, 0.0)
        assert report.attained
        assert not report.theoretical_guarantee

    def test_out_of_range(self):
        ledger = spinodal_ledger(t_end=0.01)
        with pytest.raises(RangeError):
            separation_report(ledger, 1.0)


class TestDispersionExperiment:
    def test_rates_match_closed_form(self):
        rows = dispersion_experiment(P0, [1, 2, 3, 4], steps=40)
        for row in rows:
            assert row.rel_error <= 0.01, (row.k_index, row.rel_error)

    def test_neutral_mode_rejected(self):
        with pytest.raises(ValueError):
            dispersion_experiment(PotentialParams(2.0, 0.0), [1])
