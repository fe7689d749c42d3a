"""Self-contained invariant suite behind `sixch verify`.

Runs every numerically checkable structural property of the engine with
safe solver defaults and fixed seeds, independent of whatever (possibly
hostile) solver settings a user config carries.  The suite returns a
(name, passed, why) triple per check, where `why` names the exception a
failing check raised ("" when it returned); the CLI renders the table and
maps failures to exit code 3.
"""

from __future__ import annotations

import numpy as np

from . import grid as gr
from . import model
from .grid import Grid, ScalarField
from .initdata import InitialSpec, generate
from .potential import (Nonlinearity, PotentialParams, TruncationLevel, eval_a, eval_beta,
                        eval_f, eval_g)
from .stepper import SolverConfig, advance


def run_invariant_suite() -> list[tuple[str, bool, str]]:
    checks = [
        ("potential oddness and parity", _check_parity),
        ("potential derivative consistency", _check_derivatives),
        ("beta*beta' monotone", _check_monotone_product),
        ("beta*beta' dominates g near +-1", _check_domination),
        ("extension agrees on inner interval", _check_extension),
        ("lambda-convexity beta' >= 1", _check_lambda_convexity),
        ("transform round trip", _check_roundtrip),
        ("A self-adjoint and positive", _check_self_adjoint),
        ("inverse Laplacian identities", _check_inverse_identities),
        ("Poincare-Wirtinger bound", _check_poincare),
        ("Hilbert interpolation inequality", _check_interpolation),
        ("four mu formulations agree", _check_formulations),
        ("mu matches energy gradient", _check_energy_gradient),
        ("arcsin functional Gateaux derivative", _check_gateaux),
        ("mass conserved along a run", _check_mass),
        ("energy nonincreasing along a run", _check_energy_law),
    ]
    results = []
    for name, fn in checks:
        try:
            results.append((name, bool(fn()), ""))
        except Exception as exc:
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results


def _lattice(n: int = 10_000, lim: float = 0.999) -> np.ndarray:
    return np.linspace(-lim, lim, n)


def _check_parity() -> bool:
    r = _lattice(2001)
    p = PotentialParams(1.3, -0.7)
    beta, _, _ = eval_beta(r)
    ok = np.allclose(beta + eval_beta(-r)[0], 0.0, atol=1e-12)
    ok &= np.allclose(eval_f(p, r) + eval_f(p, -r), 0.0, atol=1e-12)
    ok &= np.allclose(eval_g(p, r)[0] + eval_g(p, -r)[0], 0.0, atol=1e-11)
    from .potential import eval_F
    ok &= np.allclose(eval_F(p, r), eval_F(p, -r), rtol=1e-12, atol=1e-14)
    return bool(ok)


def _check_derivatives() -> bool:
    r = np.linspace(-0.99, 0.99, 397)
    h = 1e-6
    p = PotentialParams(0.8, 1.7)
    beta, beta1, beta2 = eval_beta(r)
    fd1 = (eval_beta(r + h)[0] - eval_beta(r - h)[0]) / (2 * h)
    fd2 = (eval_beta(r + h)[1] - eval_beta(r - h)[1]) / (2 * h)
    ok = np.max(np.abs(fd1 - beta1) / np.abs(beta1)) < 1e-5
    ok &= np.max(np.abs(fd2 - beta2) / (np.abs(beta2) + 1.0)) < 1e-5
    a, a1, a2 = eval_a(r)
    fda1 = (eval_a(r + h)[0] - eval_a(r - h)[0]) / (2 * h)
    fda2 = (eval_a(r + h)[1] - eval_a(r - h)[1]) / (2 * h)
    ok &= np.max(np.abs(fda1 - a1) / (np.abs(a1) + 1.0)) < 1e-5
    ok &= np.max(np.abs(fda2 - a2) / (np.abs(a2) + 1.0)) < 1e-5
    g, g1 = eval_g(p, r)
    fdg = (eval_g(p, r + h)[0] - eval_g(p, r - h)[0]) / (2 * h)
    ok &= np.max(np.abs(fdg - g1) / (np.abs(g1) + 1.0)) < 1e-5
    return bool(ok)


def _check_monotone_product() -> bool:
    r = _lattice(10_000, 1.0 - 1e-6)
    beta, beta1, _ = eval_beta(r)
    prod = beta * beta1
    return bool(np.all(np.diff(prod) >= -1e-12 * np.maximum(1.0, np.abs(prod[:-1]))))


def _check_domination() -> bool:
    # the ratio grows only like beta(r): check divergence, not a large floor
    p = PotentialParams(1.0, 1.0)
    ok = True
    for sign in (1.0, -1.0):
        ratios = []
        for k in (3, 6, 9, 12):
            r = sign * (1.0 - 10.0 ** (-k))
            beta, beta1, _ = eval_beta(r)
            g, _ = eval_g(p, r)
            ratios.append(abs(beta * beta1) / abs(g))
        ok &= all(b > a for a, b in zip(ratios, ratios[1:])) and ratios[-1] > 10.0
    return bool(ok)


def _check_extension() -> bool:
    p = PotentialParams(0.9, -0.4)
    lvl = TruncationLevel(10)
    nl = Nonlinearity(p, lvl)
    r = np.linspace(-lvl.knee, lvl.knee, 513)
    be, b1e, b2e = nl.beta_all(r)
    b, b1, b2 = eval_beta(r)
    ok = np.array_equal(be, b) and np.array_equal(b1e, b1) and np.array_equal(b2e, b2)
    ge, g1e = nl.g_all(r)
    g, g1 = eval_g(p, r)
    ok &= np.array_equal(ge, g) and np.array_equal(g1e, g1)
    # global: finite + beta monotone outside
    rr = np.linspace(-3.0, 3.0, 1201)
    bext = nl.beta(rr)
    ok &= np.all(np.isfinite(bext)) and np.all(np.diff(bext) > 0)
    return bool(ok)


def _check_lambda_convexity() -> bool:
    r = _lattice(4001, 1.0 - 1e-9)
    return bool(np.all(eval_beta(r)[1] >= 1.0))


def _check_roundtrip() -> bool:
    rng = np.random.default_rng(3)
    ok = True
    for bc in (gr.NEUMANN, gr.PERIODIC):
        grid = Grid((1.7, 0.9), (32, 16), bc)
        u = rng.standard_normal(grid.shape)
        v = gr.transform_backward(gr.transform_forward(u, grid), grid)
        ok &= float(np.max(np.abs(v - u))) < 1e-12
    return bool(ok)


def _check_self_adjoint() -> bool:
    rng = np.random.default_rng(5)
    grid = Grid((2.3,), (64,), gr.NEUMANN)
    u = ScalarField(grid, rng.standard_normal(grid.shape))
    v = ScalarField(grid, rng.standard_normal(grid.shape))
    lhs = gr.inner(gr.apply_A(u), v)
    rhs = gr.inner(u, gr.apply_A(v))
    ok = abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
    ok &= gr.inner(gr.apply_A(u), u) >= 0.0
    return bool(ok)


def _check_inverse_identities() -> bool:
    rng = np.random.default_rng(7)
    grid = Grid((1.0,), (64,), gr.NEUMANN)
    vals = rng.standard_normal(grid.shape)
    g = ScalarField(grid, vals - vals.mean())
    h = ScalarField(grid, np.roll(vals, 5) - vals.mean())
    hv = ScalarField(grid, h.values - gr.mean(h))
    ng = gr.inv_A_zero_mean(g)
    ok = abs(gr.inner(gr.apply_A(hv), ng) - gr.inner(g, hv)) < 1e-10
    ok &= abs(gr.inner(g, gr.inv_A_zero_mean(hv)) - gr.inner(hv, ng)) < 1e-10
    back = gr.apply_A(ng)
    ok &= float(np.max(np.abs(back.values - g.values))) < 1e-9
    return bool(ok)


def _check_poincare() -> bool:
    rng = np.random.default_rng(11)
    grid = Grid((2.0, 1.0), (32, 16), gr.NEUMANN)
    cp = max(grid.lengths) / np.pi
    for _ in range(20):
        u = ScalarField(grid, rng.standard_normal(grid.shape))
        dev = ScalarField(grid, u.values - gr.mean(u))
        if gr.lp_norm(dev, 2) > cp * gr.h1_seminorm(u) * (1 + 1e-12):
            return False
    return True


def _check_interpolation() -> bool:
    rng = np.random.default_rng(13)
    grid = Grid((1.5,), (64,), gr.NEUMANN)
    for _ in range(100):
        vals = rng.standard_normal(grid.shape)
        g = ScalarField(grid, vals - vals.mean())
        lhs = gr.lp_norm(g, 2) ** 2
        rhs = gr.v0_dual_norm(g) * gr.h1_seminorm(g)
        if lhs > rhs * (1 + 1e-10):
            return False
    return True


def _manufactured(n: int = 256) -> ScalarField:
    grid = Grid((1.0,), (n,), gr.PERIODIC)
    x = grid.axis_coords(0)
    vals = 0.45 * np.cos(2 * np.pi * x) + 0.25 * np.sin(4 * np.pi * x) + 0.1
    return ScalarField(grid, vals)


def _check_formulations() -> bool:
    u = _manufactured()
    p = PotentialParams(1.5, -0.5)
    mus = [model.mu(u, p, form) for form in model.MuFormulation]
    sup = max(gr.lp_norm(m, np.inf) for m in mus)
    worst = max(gr.lp_norm(a - b, np.inf) for a in mus for b in mus)
    return worst <= 1e-6 * (1.0 + sup)


def _check_energy_gradient() -> bool:
    rng = np.random.default_rng(17)
    u = _manufactured(128)
    p = PotentialParams(2.0, 1.0)
    mu_u = model.mu(u, p, model.MuFormulation.CASCADE)
    h = 1e-6
    for _ in range(10):
        vvals = rng.standard_normal(u.grid.shape)
        vvals /= np.max(np.abs(vvals)) * 10.0
        v = ScalarField(u.grid, vvals)
        ep = model.energy(u + h * v, p).total
        em = model.energy(u + (-h) * v, p).total
        fd = (ep - em) / (2 * h)
        pairing = gr.inner(mu_u, v)
        if abs(fd - pairing) > 1e-4 * max(abs(pairing), 1e-6):
            return False
    return True


def _check_gateaux() -> bool:
    rng = np.random.default_rng(19)
    grid = Grid((1.0,), (128,), gr.PERIODIC)
    x = grid.axis_coords(0)
    u = ScalarField(grid, 0.6 * np.cos(2 * np.pi * x) + 0.05 * np.cos(6 * np.pi * x))
    phivals = rng.standard_normal(grid.shape)
    phivals /= np.max(np.abs(phivals)) * 5.0
    phi = ScalarField(grid, phivals)
    h = 1e-5
    fd = (model.arcsin_functional(u + h * phi)
          - model.arcsin_functional(u + (-h) * phi)) / (2 * h)
    val = model.arcsin_gateaux(u, phi)
    return abs(fd - val) <= 1e-6 * (1.0 + abs(val))


def _benchmark_run():
    grid = Grid((4 * np.pi,), (128,), gr.NEUMANN)
    u0 = generate(InitialSpec(kind="noise", mean_m=0.1, amplitude=0.05,
                              seed=23, cutoff=10), grid)
    p = PotentialParams(3.0, 1.0)
    cfg = SolverConfig(scheme="imex", dt0=1e-4, dt_min=1e-9, dt_max=1e-2,
                       energy_tol=0.0, growth_factor=1.3)
    from .diagnostics import RunLedger
    ledger = RunLedger()
    advance(u0, 0.05, p, cfg, ledger=ledger)
    return ledger


def _check_mass() -> bool:
    ledger = _benchmark_run()
    mass = ledger.column("mass")
    return float(np.max(np.abs(mass - mass[0]))) <= 1e-12


def _check_energy_law() -> bool:
    ledger = _benchmark_run()
    e = ledger.column("E_total")
    return bool(np.all(np.diff(e) <= 1e-10))
