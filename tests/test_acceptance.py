"""Acceptance suite: every criterion at its stated tolerance.

The shared 1D benchmark is lam = 3, eta = 1 on (0, 8*pi) with N = 512
Neumann samples, started from 0.05-amplitude band-limited noise at mean
0.2 (seed 7).  A summary table with one pass/fail line per criterion is
printed at the end of the pytest run.
"""

import time

import numpy as np
import pytest

from sixch import grid as gr
from sixch import model
from sixch.diagnostics import (RunLedger, cdep_experiment, dispersion_experiment,
                               energy_identity_residual, separation_report,
                               truncation_convergence)
from sixch.grid import Grid, ScalarField
from sixch.initdata import InitialSpec, generate, regularize_initial
from sixch.model import MuFormulation
from sixch.potential import PotentialParams, TruncationLevel
from sixch.stepper import SolverConfig, advance

BENCH_P = PotentialParams(3.0, 1.0)
BENCH_LENGTH = 8.0 * np.pi


def bench_grid(n=512):
    return Grid((BENCH_LENGTH,), (n,), gr.NEUMANN)


def bench_initial(grid):
    return generate(InitialSpec(kind="noise", mean_m=0.2, amplitude=0.05,
                                seed=7, cutoff=20), grid)


def bench_cfg(**kw):
    kw.setdefault("dt0", 1e-4)
    kw.setdefault("dt_min", 1e-12)
    kw.setdefault("dt_max", 5e-2)
    kw.setdefault("energy_tol", 1e-10)
    kw.setdefault("growth_factor", 1.05)
    return SolverConfig(**kw)


@pytest.fixture(scope="module")
def bench_10k():
    """The 10^4-step adaptive benchmark run shared by criteria 1 and 2."""
    grid = bench_grid()
    u0 = bench_initial(grid)
    ledger = RunLedger()
    start = time.perf_counter()
    advance(u0, 1e9, BENCH_P, bench_cfg(), ledger=ledger, max_steps=10_000)
    wall = time.perf_counter() - start
    return ledger, wall


def test_criterion_1_mass_conservation(bench_10k, criterion):
    with criterion("1. mass conservation, 10^4 adaptive steps") as rec:
        ledger, wall = bench_10k
        mass = ledger.column("mass")
        drift = float(np.max(np.abs(mass - mass[0])))
        ok = drift <= 1e-12 and len(ledger.rows) == 10_001 and wall < 10.0
        rec(ok, f"|mean drift| = {drift:.3e} (tol 1e-12), wall = {wall:.1f}s (< 10s)")


def test_criterion_2_energy_law(bench_10k, criterion):
    with criterion("2. discrete energy law + first-order identity residual") as rec:
        start = time.perf_counter()
        ledger, _ = bench_10k
        e = ledger.column("E_total")
        monotone = bool(np.all(np.diff(e) <= 1e-10))

        grid = bench_grid()
        u0 = bench_initial(grid)
        dts = [4e-4, 2e-4, 1e-4, 5e-5]
        residuals = []
        for dt in dts:
            led = RunLedger()
            advance(u0, 0.5, BENCH_P,
                    SolverConfig(dt0=dt, dt_min=dt, dt_max=dt, energy_tol=1e-3),
                    ledger=led)
            residuals.append(energy_identity_residual(led, 0.1, 0.5))
        slope = float(np.polyfit(np.log(dts), np.log(residuals), 1)[0])
        wall = time.perf_counter() - start
        ok = monotone and 0.8 <= slope <= 1.2 and wall < 60.0
        rec(ok, f"nonincreasing within 1e-10: {monotone}; residual slope = {slope:.3f} "
                f"(1.0 +- 0.2); wall = {wall:.1f}s (< 60s)")


def test_criterion_3_dispersion(criterion):
    with criterion("3. dispersion relation, k = 1..8, three parameter sets") as rec:
        start = time.perf_counter()
        worst = 0.0
        for lam, eta in ((0.0, 0.0), (3.0, 0.0), (0.0, -1.0)):
            rows = dispersion_experiment(PotentialParams(lam, eta), range(1, 9), steps=60)
            worst = max(worst, max(r.rel_error for r in rows))
        wall = time.perf_counter() - start
        ok = worst <= 0.01 and wall < 30.0
        rec(ok, f"worst relative rate error = {worst:.2%} (tol 1%), wall = {wall:.1f}s (< 30s)")


def test_criterion_4_formulation_equivalence(criterion):
    with criterion("4. mu-formulation oracle equivalence under refinement") as rec:
        p = PotentialParams(1.0, -0.5)
        gaps, ok = {}, True
        for n in (256, 512):
            grid = Grid((1.0,), (n,), gr.PERIODIC)
            x = grid.axis_coords(0)
            u = ScalarField(grid, 0.8 * np.tanh(np.sin(2 * np.pi * x) / 0.12))
            mus = [model.mu(u, p, f) for f in MuFormulation]
            sup = max(gr.lp_norm(m, np.inf) for m in mus)
            gaps[n] = max(gr.lp_norm(a - b, np.inf) for a in mus for b in mus)
            ok &= gaps[n] <= 1e-6 * (1.0 + sup)
        ok = ok and gaps[512] < gaps[256]
        rec(ok, f"max pairwise gap: {gaps[256]:.2e} (N=256) -> {gaps[512]:.2e} (N=512)")


def test_criterion_5_gradient_consistency(criterion):
    with criterion("5. <mu, v> matches central-difference energy derivative") as rec:
        grid = Grid((1.0,), (128,), gr.PERIODIC)
        x = grid.axis_coords(0)
        u = ScalarField(grid, 0.45 * np.cos(2 * np.pi * x) + 0.25 * np.sin(4 * np.pi * x))
        p = PotentialParams(2.0, 1.0)
        mu_u = model.mu(u, p, MuFormulation.CASCADE)
        rng = np.random.default_rng(101)
        h, worst = 1e-6, 0.0
        for _ in range(10):
            vvals = rng.standard_normal(grid.shape)
            v = ScalarField(grid, vvals / (10.0 * np.max(np.abs(vvals))))
            fd = (model.energy(u + h * v, p).total
                  - model.energy(u + (-h) * v, p).total) / (2 * h)
            pairing = gr.inner(mu_u, v)
            worst = max(worst, abs(fd - pairing) / max(abs(pairing), 1e-300))
        rec(worst <= 1e-4, f"worst relative mismatch = {worst:.2e} (tol 1e-4)")


def test_criterion_6_gateaux_derivative(criterion):
    with criterion("6. Gateaux derivative of the arcsin functional") as rec:
        grid = Grid((1.0,), (256,), gr.PERIODIC)
        rng = np.random.default_rng(202)
        coeffs = np.zeros(grid.shape, dtype=complex)
        coeffs[1:9] = rng.standard_normal(8)
        base = gr.transform_backward(coeffs, grid)
        u = ScalarField(grid, 0.7 * base / np.max(np.abs(base)))
        phliv = rng.standard_normal(grid.shape)
        phi = ScalarField(grid, phliv / (5.0 * np.max(np.abs(phliv))))
        h = 1e-5
        fd = (model.arcsin_functional(u + h * phi)
              - model.arcsin_functional(u + (-h) * phi)) / (2 * h)
        val = model.arcsin_gateaux(u, phi)
        err = abs(fd - val) / (1.0 + abs(val))
        rec(err <= 1e-6, f"relative FD mismatch = {err:.2e} (tol 1e-6)")


def test_criterion_7_strict_separation(criterion):
    with criterion("7. strict separation in 1D, stable under refinement") as rec:
        def delta_min(n, dt0, dt_max):
            grid = bench_grid(n)
            u0 = bench_initial(grid)
            led = RunLedger()
            advance(u0, 1.0, BENCH_P, bench_cfg(dt0=dt0, dt_max=dt_max), ledger=led)
            report = separation_report(led, 0.1)
            return report.delta_min, report.attained

        base, att0 = delta_min(512, 1e-4, 5e-3)
        dt_ref, att1 = delta_min(512, 5e-5, 2.5e-3)
        n_ref, att2 = delta_min(1024, 1e-4, 5e-3)
        dev = max(abs(dt_ref - base), abs(n_ref - base)) / base
        ok = att0 and att1 and att2 and base > 0.0 and dev <= 0.20
        rec(ok, f"delta = {base:.4f} for t >= 0.1; refinement deviation {dev:.2%} (tol 20%)")


def test_criterion_8_continuous_dependence(criterion):
    with criterion("8. continuous dependence envelope in the dual norm") as rec:
        grid = Grid((2 * np.pi,), (128,), gr.PERIODIC)
        u01 = generate(InitialSpec(kind="noise", mean_m=0.1, amplitude=0.02,
                                   seed=11, cutoff=4), grid)
        bump = generate(InitialSpec(kind="mode", mean_m=0.0, amplitude=1e-6, mode=1), grid)
        u02 = u01 + bump
        reports = []
        for dt in (2e-3, 1e-3):
            cfg = SolverConfig(dt0=dt, dt_min=dt, dt_max=dt)
            reports.append(cdep_experiment(u01, u02, PotentialParams(0.0, 0.0),
                                           cfg, t_end=1.0))
        drift = abs(reports[0].fitted_C - reports[1].fitted_C) / abs(reports[1].fitted_C)
        ok = all(r.envelope_ok for r in reports) and drift <= 0.05
        rec(ok, f"envelope_ok = {all(r.envelope_ok for r in reports)}, "
                f"C = {reports[0].fitted_C:.4f}, dt-halving drift {drift:.2%} (tol 5%)")


def test_criterion_9_initial_data_pipeline(criterion):
    with criterion("9. initial-data regularization pipeline") as rec:
        grid = bench_grid(256)
        u0 = generate(InitialSpec(kind="noise", mean_m=0.3, amplitude=0.4,
                                  seed=9, cutoff=15), grid)
        mean_errs, overshoots, dists = [], [], []
        for n in (10, 20, 40, 80):
            un = regularize_initial(u0, TruncationLevel(n))
            mean_errs.append(abs(gr.mean(un) - (1 - 2.0 / n) * gr.mean(u0)))
            overshoots.append(gr.lp_norm(un, np.inf) - (1 - 2.0 / n))
            dists.append(gr.lp_norm(un - u0, 2))
        ok = (max(mean_errs) <= 1e-13
              and max(overshoots) <= 1e-8
              and all(b < a for a, b in zip(dists, dists[1:])))
        rec(ok, f"mean-scaling error {max(mean_errs):.1e} (tol 1e-13); "
                f"overshoot {max(overshoots):.1e} (tol 1e-8); "
                f"||u0n - u0|| = {', '.join(f'{d:.3f}' for d in dists)} decreasing")


def test_criterion_10_truncation_convergence(criterion):
    with criterion("10. truncated-scheme convergence in the level n") as rec:
        grid = bench_grid()
        u0 = bench_initial(grid)
        rows = truncation_convergence(u0, BENCH_P, bench_cfg(dt_max=5e-3),
                                      [10, 20, 40], t_end=0.5)
        decreasing = all(b.distance < a.distance for a, b in zip(rows, rows[1:]))
        rec(decreasing, "||u_n - u_2n||(t=0.5) = "
            + ", ".join(f"{r.distance:.4e} (n={r.n})" for r in rows))


def test_criterion_11_long_time_dissipativity(criterion):
    with criterion("11. long-time dissipativity proxy at t = 50") as rec:
        start = time.perf_counter()
        grid = Grid((2.6,), (32,), gr.NEUMANN)  # single unstable Neumann mode
        u0 = generate(InitialSpec(kind="noise", mean_m=0.2, amplitude=0.1,
                                  seed=7, cutoff=4), grid)
        ledger = RunLedger()
        advance(u0, 50.0, BENCH_P, bench_cfg(), ledger=ledger)
        wall = time.perf_counter() - start
        t = ledger.times
        e = ledger.column("E_total")
        plateau = abs(e[-1] - e[np.searchsorted(t, 45.0)])
        flux = ledger.rows[-1].grad_mu_sq
        bounded = all(np.all(np.isfinite(ledger.column(c))) and np.max(ledger.column(c)) < 1e3
                      for c in ("beta_l2", "grad_beta_l2", "betabp_l1", "M_int", "N_int"))
        sep = ledger.rows[-1].delta_sep
        ok = flux < 1e-8 and plateau < 1e-6 and bounded and sep > 0.0 and wall < 300.0
        rec(ok, f"final ||grad mu||^2 = {flux:.2e} (tol 1e-8); |E(50)-E(45)| = {plateau:.1e}; "
                f"diagnostics bounded: {bounded}; delta = {sep:.4f}; wall = {wall:.1f}s (< 5min)")
