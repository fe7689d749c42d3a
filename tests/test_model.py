from itertools import permutations

import numpy as np
import pytest
from scipy.integrate import quad

from sixch import grid as gr
from sixch import model
from sixch.errors import DomainError, ShapeError
from sixch.grid import Grid, ScalarField, constant_field
from sixch.model import MuFormulation, dispersion_sigma
from sixch.potential import (Nonlinearity, PotentialParams, TruncationLevel, eval_beta,
                             eval_f, eval_g)
from sixch.stepper import SolverConfig, step_imex

P0 = PotentialParams(0.0, 0.0)
BETA_HALF = 0.5493061443340548
F_HALF = 0.13081203594113696


def band_limited(grid, seed=0, cutoff=8, amplitude=0.8):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(grid.shape, dtype=complex if grid.bc == gr.PERIODIC else float)
    box = tuple(slice(0, cutoff) for _ in grid.shape)
    coeffs[box] = rng.standard_normal(coeffs[box].shape)
    coeffs.flat[0] = 0.0
    u = gr.transform_backward(coeffs, grid)
    return ScalarField(grid, amplitude * u / np.max(np.abs(u)))


class TestOmega:
    def test_zero_state(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        om = model.omega(constant_field(grid, 0.0), P0)
        assert np.max(np.abs(om.values)) == 0.0

    def test_constant_state(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        p = PotentialParams(1.5, 0.0)
        om = model.omega(constant_field(grid, 0.3), p)
        assert np.allclose(om.values, eval_f(p, 0.3), rtol=1e-14, atol=1e-14)

    def test_two_path_cosine(self):
        # omega = 0.3 k^2 cos(kx) + beta(0.3 cos(kx)) for lambda = 0
        grid = Grid((1.0,), (256,), gr.PERIODIC)
        x = grid.axis_coords(0)
        k = 2 * np.pi
        u = ScalarField(grid, 0.3 * np.cos(k * x))
        om = model.omega(u, P0)
        expected = 0.3 * k**2 * np.cos(k * x) + eval_beta(0.3 * np.cos(k * x))[0]
        assert np.max(np.abs(om.values - expected)) <= 1e-10

    def test_domain_error(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        vals = np.zeros(32)
        vals[3] = 1.0
        with pytest.raises(DomainError):
            model.omega(ScalarField(grid, vals), P0)


class TestMu:
    def test_constant_state(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        p = PotentialParams(2.0, -1.0)
        m = 0.4
        fp = eval_beta(m)[1] - p.lam
        expected = (fp + p.eta) * eval_f(p, m)
        for form in MuFormulation:
            out = model.mu(constant_field(grid, m), p, form)
            assert np.allclose(out.values, expected, rtol=1e-12, atol=1e-12), form

    def test_zero_state(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        out = model.mu(constant_field(grid, 0.0), PotentialParams(3.0, 1.0))
        assert np.max(np.abs(out.values)) == 0.0

    def test_formulations_agree_and_refine(self):
        # the interface-like field keeps genuine spectral tail at N=256, so
        # the pairwise gap is truncation-dominated there and shrinks at 512
        p = PotentialParams(1.0, -0.5)
        gaps = {}
        for n in (256, 512):
            grid = Grid((1.0,), (n,), gr.PERIODIC)
            x = grid.axis_coords(0)
            u = ScalarField(grid, 0.8 * np.tanh(np.sin(2 * np.pi * x) / 0.12))
            mus = [model.mu(u, p, f) for f in MuFormulation]
            sup = max(gr.lp_norm(m, np.inf) for m in mus)
            gaps[n] = max(gr.lp_norm(a - b, np.inf) for a in mus for b in mus)
            assert gaps[n] <= 1e-6 * (1.0 + sup)
        assert gaps[512] < gaps[256]

    @pytest.mark.parametrize("grid", [Grid((2 * np.pi,), (64,), gr.PERIODIC),
                                      Grid((4 * np.pi, 3 * np.pi), (16, 12), gr.NEUMANN)],
                             ids=["periodic1d", "neumann2d"])
    def test_every_form_and_omega_keep_the_batch(self, grid):
        # the oracle forms and omega built their result without the batch, so
        # a 2-row stack raised ShapeError
        p = PotentialParams(3.0, 1.0)
        rows = [band_limited(grid, seed=s, cutoff=4) for s in (1, 2)]
        stack = ScalarField.stack(rows)
        for fn in [model.omega] + [lambda u, p, f=f: model.mu(u, p, f) for f in MuFormulation]:
            out = fn(stack, p)
            assert out.batch and out.values.shape == (2, *grid.shape)
            for i, u in enumerate(rows):
                assert np.array_equal(out.values[i], fn(u, p).values)

    def test_mean_of_lap_mu_vanishes(self):
        grid = Grid((1.0,), (128,), gr.NEUMANN)
        u = band_limited(grid, seed=3, cutoff=20, amplitude=0.7)
        lap_mu = gr.apply_A(model.mu(u, PotentialParams(2.0, 1.0)))
        assert abs(gr.mean(lap_mu)) <= 1e-12 * gr.lp_norm(lap_mu, np.inf)

    def test_weak_form_identity(self):
        # <mu, phi> equals the integrated-by-parts functional on 10 test fields
        grid = Grid((1.0,), (128,), gr.PERIODIC)
        p = PotentialParams(1.2, 0.7)
        u = band_limited(grid, seed=4, cutoff=10, amplitude=0.6)
        mu_u = model.mu(u, p, MuFormulation.UOM1)
        beta, beta1, beta2 = eval_beta(u.values)
        g_vals = eval_g(p, u.values)[0]
        lap_u = -gr.apply_A(u)
        gsq = gr.grad_norm_sq(u.values, grid)
        for seed in range(10):
            phi = band_limited(grid, seed=100 + seed, cutoff=12, amplitude=1.0)
            lhs = gr.inner(mu_u, phi)
            grad_dot = sum(
                gr.integral(ScalarField(grid, gr.gradient_axis(lap_u.values, grid, ax)
                                        * gr.gradient_axis(phi.values, grid, ax)))
                for ax in range(grid.dim))
            grad_beta_dot = sum(
                gr.integral(ScalarField(grid, gr.gradient_axis(beta, grid, ax)
                                        * gr.gradient_axis(phi.values, grid, ax)))
                for ax in range(grid.dim))
            rhs = (-grad_dot + 2.0 * grad_beta_dot
                   + gr.integral(ScalarField(grid, beta2 * gsq * phi.values))
                   + gr.integral(ScalarField(grid, (beta * beta1 + g_vals) * phi.values))
                   + (2 * p.lam - p.eta) * gr.inner(lap_u, phi))
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


class TestEnergy:
    def test_zero_state(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        e = model.energy(constant_field(grid, 0.0), PotentialParams(1.0, 2.0))
        assert e.willmore == e.ch_grad == e.ch_pot == e.total == 0.0

    def test_constant_closed_form(self):
        grid = Grid((1.0,), (64,), gr.NEUMANN)
        e = model.energy(constant_field(grid, 0.5), PotentialParams(0.0, 1.0))
        assert e.willmore == pytest.approx(0.5 * BETA_HALF**2, rel=1e-13)
        assert e.ch_pot == pytest.approx(F_HALF, rel=1e-13)
        assert e.total == pytest.approx(0.5 * BETA_HALF**2 + F_HALF, rel=1e-13)

    def test_breakdown_adds_up(self):
        grid = Grid((1.0,), (128,), gr.NEUMANN)
        u = band_limited(grid, seed=5, cutoff=10, amplitude=0.8)
        e = model.energy(u, PotentialParams(2.0, -0.7))
        assert e.total == pytest.approx(e.willmore + e.ch_grad + e.ch_pot, rel=1e-15)
        assert e.willmore >= 0.0

    def test_symmetry_under_flip_and_mirror(self):
        grid = Grid((1.0,), (128,), gr.NEUMANN)
        p = PotentialParams(1.5, 0.8)
        u = band_limited(grid, seed=6, cutoff=12, amplitude=0.7)
        e = model.energy(u, p).total
        assert model.energy(ScalarField(grid, -u.values), p).total == pytest.approx(e, rel=1e-12)
        assert model.energy(ScalarField(grid, u.values[::-1].copy()), p).total == \
            pytest.approx(e, rel=1e-12)

    def test_h2_coercivity_sweep(self):
        # E(u) >= 1/4||lap u||^2 + 1/2||f(u)||^2 - C with C explicit:
        # C = |eta|*(ln2 + |lam|/2)*|Omega| + 4*max(0, lam - eta/2)^2*|Omega|
        grid = Grid((1.0,), (128,), gr.NEUMANN)
        p = PotentialParams(3.0, -1.0)
        vol = grid.volume
        c_explicit = (abs(p.eta) * (np.log(2) + abs(p.lam) / 2) * vol
                      + 4.0 * max(0.0, p.lam - p.eta / 2) ** 2 * vol)
        for seed in range(100):
            u = band_limited(grid, seed=seed, cutoff=16, amplitude=0.9)
            e = model.energy(u, p).total
            lap = gr.apply_A(u)
            f_norm_sq = float(np.sum(eval_f(p, u.values) ** 2)) * grid.cell_volume
            lower = 0.25 * gr.lp_norm(lap, 2) ** 2 + 0.5 * f_norm_sq - c_explicit
            assert e >= lower - 1e-9

    def test_domain_error_above_one(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        vals = np.full(32, 0.2)
        vals[0] = 1.2
        with pytest.raises(DomainError):
            model.energy(ScalarField(grid, vals), P0)


class TestMuMean:
    def test_zero_and_constant(self):
        grid = Grid((1.0,), (64,), gr.NEUMANN)
        assert model.apriori_diagnostics(constant_field(grid, 0.0), P0).mu_mean == 0.0
        p = PotentialParams(1.0, 2.0)
        m = 0.3
        beta, beta1, _ = eval_beta(m)
        expected = beta * beta1 + eval_g(p, m)[0]
        assert (model.apriori_diagnostics(constant_field(grid, m), p).mu_mean
                == pytest.approx(expected, rel=1e-13))

    def test_matches_mean_of_every_formulation(self):
        grid = Grid((1.0,), (256,), gr.PERIODIC)
        p = PotentialParams(2.0, -0.5)
        u = band_limited(grid, seed=7, cutoff=10, amplitude=0.8)
        target = model.apriori_diagnostics(u, p).mu_mean
        # UOM1 shares the zero-order terms with the st:23a integral, so the
        # agreement is tight; the other forms route them through beta'(u)*lap(u),
        # whose k^2-amplified roundoff dominates their means.
        assert abs(target - gr.mean(model.mu(u, p, MuFormulation.UOM1))) <= 1e-9
        for form in MuFormulation:
            assert abs(target - gr.mean(model.mu(u, p, form))) <= 1e-6


class TestArcsinFunctional:
    @pytest.mark.parametrize("c", [0.0, 0.5, -0.99, 1.0, -1.0])
    def test_constants_have_zero_value(self, c):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        assert model.arcsin_functional(constant_field(grid, c)) == 0.0

    def test_against_adaptive_quadrature(self):
        # J = int (pi cos(2 pi x))^2 / (1 - 0.25 sin^2(2 pi x)) dx on (0,1)
        grid = Grid((1.0,), (256,), gr.PERIODIC)
        x = grid.axis_coords(0)
        u = ScalarField(grid, 0.5 * np.sin(2 * np.pi * x))
        oracle, err = quad(
            lambda s: (np.pi * np.cos(2 * np.pi * s)) ** 2
            / (1.0 - 0.25 * np.sin(2 * np.pi * s) ** 2), 0.0, 1.0, limit=200)
        assert err < 1e-9
        assert model.arcsin_functional(u) == pytest.approx(oracle, abs=1e-6)

    def test_agrees_with_a_half_form(self):
        grid = Grid((1.0,), (256,), gr.PERIODIC)
        u = band_limited(grid, seed=8, cutoff=6, amplitude=0.9)
        from sixch.potential import eval_a
        a_vals = eval_a(u.values)[0]
        gsq = gr.grad_norm_sq(u.values, grid)
        k_form = float(np.sum(0.5 * a_vals * gsq)) * grid.cell_volume
        assert model.arcsin_functional(u) == pytest.approx(k_form, abs=1e-8 * (1 + k_form))

    def test_domain(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        with pytest.raises(DomainError):
            model.arcsin_functional(constant_field(grid, 1.5))


class TestArcsinGateaux:
    def test_zero_state(self):
        grid = Grid((1.0,), (64,), gr.NEUMANN)
        phi = band_limited(grid, seed=9, cutoff=8, amplitude=1.0)
        assert model.arcsin_gateaux(constant_field(grid, 0.0), phi) == 0.0

    def test_sign_symmetry(self):
        grid = Grid((1.0,), (128,), gr.PERIODIC)
        u = band_limited(grid, seed=10, cutoff=6, amplitude=0.5)
        phi = band_limited(grid, seed=11, cutoff=6, amplitude=1.0)
        v1 = model.arcsin_gateaux(u, phi)
        v2 = model.arcsin_gateaux(ScalarField(u.grid, -u.values),
                                  ScalarField(phi.grid, -phi.values))
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_finite_difference_oracle(self):
        grid = Grid((1.0,), (256,), gr.PERIODIC)
        u = band_limited(grid, seed=12, cutoff=8, amplitude=0.7)
        phi = band_limited(grid, seed=13, cutoff=8, amplitude=0.2)
        h = 1e-5
        fd = (model.arcsin_functional(u + h * phi)
              - model.arcsin_functional(u + (-h) * phi)) / (2 * h)
        val = model.arcsin_gateaux(u, phi)
        assert abs(fd - val) <= 1e-6 * (1.0 + abs(val))

    def test_separation_precondition(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        phi = constant_field(grid, 1.0)
        with pytest.raises(DomainError):
            model.arcsin_gateaux(constant_field(grid, 1.0), phi)


class TestAprioriDiagnostics:
    def test_zero_state(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        d = model.apriori_diagnostics(constant_field(grid, 0.0), P0)
        assert (d.beta_l2, d.grad_beta_l2, d.beta_betaprime_l1) == (0.0, 0.0, 0.0)
        assert d.m_integral == 0.0 and d.n_integral == 0.0 and d.mu_mean == 0.0

    def test_constant_closed_forms(self):
        vol = 2.0
        grid = Grid((vol,), (64,), gr.NEUMANN)
        d = model.apriori_diagnostics(constant_field(grid, 0.5), P0)
        b_prod = BETA_HALF * (4.0 / 3.0)
        assert d.beta_l2 == pytest.approx(BETA_HALF * np.sqrt(vol), rel=1e-13)
        assert d.beta_betaprime_l1 == pytest.approx(b_prod * vol, rel=1e-13)
        assert d.m_integral == pytest.approx(vol * b_prod * np.sqrt(np.log1p(b_prod)), rel=1e-12)
        assert d.n_integral == 0.0
        assert d.mu_mean == pytest.approx(b_prod, rel=1e-13)

    def test_grad_beta_chain_rule(self):
        grid = Grid((1.0,), (256,), gr.PERIODIC)
        u = band_limited(grid, seed=14, cutoff=8, amplitude=0.7)
        d = model.apriori_diagnostics(u, P0)
        beta1 = eval_beta(u.values)[1]
        gsq = gr.grad_norm_sq(u.values, grid)
        two_path = float(np.sum(beta1**2 * gsq)) * grid.cell_volume
        assert d.grad_beta_l2**2 == pytest.approx(two_path, abs=1e-8 * (1 + two_path))

    def test_finite_and_nonnegative_on_random_state(self):
        grid = Grid((1.0,), (128,), gr.NEUMANN)
        u = band_limited(grid, seed=15, cutoff=20, amplitude=0.95)
        d = model.apriori_diagnostics(u, PotentialParams(3.0, 1.0))
        for name in ("beta_l2", "grad_beta_l2", "beta_betaprime_l1", "m_integral", "n_integral"):
            assert getattr(d, name) >= 0.0
            assert np.isfinite(getattr(d, name))


class TestDispersion:
    def test_mass_mode_neutral(self):
        assert dispersion_sigma(0.0, PotentialParams(5.0, -3.0)) == 0.0

    def test_reference_values(self):
        assert dispersion_sigma(1.0, P0) == pytest.approx(-4.0, rel=1e-15)
        assert dispersion_sigma(1.0, PotentialParams(3.0, 0.0)) == pytest.approx(-1.0, rel=1e-15)

    def test_symbolic_rederivation(self):
        # independent oracle: linearize the cascade about u = 0 with sympy
        sympy = pytest.importorskip("sympy")
        x, k, lam, eta, eps, r = sympy.symbols("x k lam eta eps r", real=True, positive=False)
        u = eps * sympy.cos(k * x)
        beta = sympy.log((1 + r) / (1 - r)) / 2
        f = beta - lam * r
        fp = sympy.diff(f, r)
        om = -sympy.diff(u, x, 2) + f.subs(r, u)
        mu_sym = -sympy.diff(om, x, 2) + fp.subs(r, u) * om + eta * om
        rhs = sympy.diff(mu_sym, x, 2)  # du/dt = lap(mu)
        lin = (rhs.subs(eps, 0) + eps * sympy.diff(rhs, eps).subs(eps, 0)).expand()
        sigma_sym = sympy.simplify(lin / (eps * sympy.cos(k * x)))
        k2 = k**2
        closed = -k2 * (k2 + 1 - lam) * (k2 + 1 - lam + eta)
        assert sympy.simplify(sigma_sym - closed) == 0

    def test_sixth_order_damping_stabilizes_spinodal_tail(self):
        # eta = 0 makes the symbol a perfect square: spinodal lam alone never
        # destabilizes; lam = 3, eta = 1 opens the band 1 < k^2 < 2
        assert dispersion_sigma(1.2, PotentialParams(3.0, 0.0)) < 0.0
        p = PotentialParams(3.0, 1.0)
        assert dispersion_sigma(1.2, p) > 0.0
        assert dispersion_sigma(1.0, p) == 0.0
        assert dispersion_sigma(2.0, p) < 0.0


class TestTruncatedEvaluation:
    def test_mu_defined_beyond_one_in_truncated_mode(self):
        grid = Grid((1.0,), (64,), gr.NEUMANN)
        nl = Nonlinearity(PotentialParams(1.0, 1.0), TruncationLevel(8))
        vals = np.full(64, 1.05)
        vals[0] = -1.2
        out = model.mu(ScalarField(grid, vals), nl)
        assert np.all(np.isfinite(out.values))

    def test_truncated_matches_exact_inside(self):
        grid = Grid((1.0,), (128,), gr.PERIODIC)
        p = PotentialParams(2.0, -1.0)
        nl = Nonlinearity(p, TruncationLevel(10))
        u = band_limited(grid, seed=16, cutoff=8, amplitude=0.5)  # well inside knee
        exact = model.mu(u, p)
        trunc = model.mu(u, nl)
        assert np.max(np.abs(exact.values - trunc.values)) == 0.0


class TestOnePointwisePass:
    @pytest.mark.parametrize("level", [None, TruncationLevel(10)], ids=["exact", "extended"])
    def test_state_checks_and_evaluates_once(self, monkeypatch, level):
        from sixch import potential

        calls = {"check": 0, "eval_beta": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("_check_open", "_check_closed"):
            monkeypatch.setattr(potential, name, counted("check", getattr(potential, name)))
        monkeypatch.setattr(potential, "eval_beta", counted("eval_beta", potential.eval_beta))
        grid = Grid((1.0,), (64,), gr.PERIODIC)
        u = band_limited(grid, seed=3, amplitude=0.97)  # past the knee 0.95 of n = 10
        model.State(u, Nonlinearity(PotentialParams(1.0, 0.5), level)).mu_hat
        assert calls == {"check": 1, "eval_beta": 1}


def uom1_values(u, nl):
    """The UOM1 mu of u by the values path: lap^2 u, lap(beta) and A u
    transformed back to values and summed with the pointwise terms, the
    reference for the coefficient-space assembly of `State.mu_hat`."""
    grid = u.grid
    ev = grid.eigenvalues
    pw = nl.pointwise(u.values)
    u_hat = gr.transform_forward(u.values, grid)
    a_u = gr.transform_backward(ev * u_hat, grid)
    lap_beta = -gr.transform_backward(gr.transform_forward(pw.beta, grid) * ev, grid)
    lap2_u = gr.transform_backward(ev**2 * u_hat, grid)
    gsq = gr.grad_norm_sq(u.values, grid)
    common = pw.beta * pw.beta1 + (2.0 * nl.params.lam - nl.params.eta) * -a_u + pw.g
    return lap2_u - 2.0 * lap_beta + pw.beta2 * gsq + common


class TestBatchedState:
    """A State of a (k, ...) batch equals the k single States bitwise, for k = 2
    and for a batch of one."""

    CASES = [(Grid((2 * np.pi,), (128,), gr.PERIODIC), None),
             (Grid((2 * np.pi,), (128,), gr.PERIODIC), TruncationLevel(10)),
             (Grid((4 * np.pi,), (96,), gr.NEUMANN), None),
             (Grid((4 * np.pi,), (96,), gr.NEUMANN), TruncationLevel(10)),
             (Grid((4 * np.pi,) * 3, (8,) * 3, gr.NEUMANN), None),
             (Grid((4 * np.pi,) * 3, (8,) * 3, gr.NEUMANN), TruncationLevel(10))]

    IDS = [f"{g.bc}{g.dim}d-{'extended' if lvl else 'exact'}" for g, lvl in CASES]

    @pytest.mark.parametrize("grid, level", CASES, ids=IDS)
    def test_rows_equal_single_states(self, grid, level):
        self.check_rows(grid, level, seeds=(1, 2))

    @pytest.mark.parametrize("grid, level", CASES, ids=IDS)
    def test_one_row_equals_the_single_state(self, grid, level):
        self.check_rows(grid, level, seeds=(1,))

    @staticmethod
    def check_rows(grid, level, seeds):
        nl = Nonlinearity(PotentialParams(3.0, 1.0), level)
        # past the knee 0.95 of n = 10 in extended mode
        amp = 0.97 if level else 0.8
        rows = [band_limited(grid, seed=s, cutoff=4, amplitude=amp) for s in seeds]
        batch = model.State(ScalarField.stack(rows), nl)
        assert batch.energy.total.shape == (len(seeds),)
        batch_mu = gr.transform_backward(batch.mu_hat, grid)
        for i, u in enumerate(rows):
            single = model.State(u, nl)
            mu = gr.transform_backward(single.mu_hat, grid)
            assert not single.u.batch and isinstance(single.energy.total, float)
            for name in ("willmore", "ch_grad", "ch_pot", "total"):
                assert getattr(batch.energy, name)[i] == getattr(single.energy, name), name
            for name in single.apriori.__dataclass_fields__:
                assert getattr(batch.apriori, name)[i] == getattr(single.apriori, name), name
            assert batch.grad_mu_sq[i] == single.grad_mu_sq
            assert np.array_equal(batch.u_hat[i], single.u_hat)
            assert np.array_equal(batch.mu_hat[i], single.mu_hat)
            assert np.array_equal(batch_mu[i], mu)
            reference = uom1_values(u, nl)
            assert np.max(np.abs(mu - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_one_row_outside_the_domain_raises(self):
        grid = Grid((1.0,), (32,), gr.PERIODIC)
        inside = constant_field(grid, 0.5)
        outside = constant_field(grid, 1.0)
        with pytest.raises(DomainError):
            model.State(ScalarField.stack([inside, outside]), P0)


class TestParsevalWillmore:
    """The Willmore term 1/2 ||omega||^2 is summed from omega's coefficients
    (ev - lam) u_hat + beta_hat, by Parseval, with no transform back to values."""

    @pytest.mark.parametrize("grid", [
        Grid((4 * np.pi,), (96,), gr.NEUMANN),
        Grid((4 * np.pi, 3 * np.pi), (32, 24), gr.PERIODIC),
        Grid((4 * np.pi,) * 3, (16,) * 3, gr.NEUMANN),
    ], ids=["neumann1d", "periodic2d", "neumann3d"])
    def test_willmore_matches_the_values_path(self, grid):
        nl = Nonlinearity(PotentialParams(3.0, 1.0))
        rows = [band_limited(grid, seed=s, cutoff=4, amplitude=0.8) for s in (1, 2)]
        batch = model.State(ScalarField.stack(rows), nl)
        for i, u in enumerate(rows):
            single = model.State(u, nl)
            reference = 0.5 * np.sum(model.omega(u, nl).values ** 2) * grid.cell_volume
            assert abs(single.energy.willmore - reference) <= 1e-12 * reference
            assert batch.energy.willmore[i] == single.energy.willmore


class TestCoefficientSpaceMu:
    """mu_hat is assembled in coefficient space from u_hat, the beta_hat of
    the State's construction and one forward transform of the nonlinear sum,
    checked for finiteness where it is made."""

    # States the grids resolve, so the forms differ by truncation error only.
    # On the 8^3 grid of TestBatchedState, and past the knee (where the third
    # derivative of beta jumps), that error is 1e-2 of sup|mu| and more.
    @pytest.mark.parametrize("grid, amplitude", [
        (Grid((2 * np.pi,), (128,), gr.PERIODIC), 0.8),
        (Grid((4 * np.pi,), (96,), gr.NEUMANN), 0.8),
        (Grid((4 * np.pi,) * 3, (32,) * 3, gr.NEUMANN), 0.5),
    ], ids=["periodic1d", "neumann1d", "neumann3d"])
    def test_assembly_and_values_path_agree_with_the_oracle_forms(self, grid, amplitude):
        p = PotentialParams(3.0, 1.0)
        u = band_limited(grid, seed=1, cutoff=4, amplitude=amplitude)
        oracles = [model.mu(u, p, form).values for form in (MuFormulation.UOM2,
                                                             MuFormulation.CASCADE)]
        for mu in (model.mu(u, p).values, uom1_values(u, Nonlinearity(p))):
            sup = max(np.max(np.abs(m)) for m in (mu, *oracles))
            for oracle in oracles:
                assert np.max(np.abs(mu - oracle)) <= 1e-6 * (1.0 + sup)

    @pytest.fixture
    def transform_calls(self, monkeypatch):
        """The scipy.fft calls made from here on, by name."""
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("dct", "dst", "fftn", "ifftn"):
            monkeypatch.setattr(gr, name, counted(getattr(gr, name)))
        return calls

    @pytest.mark.parametrize("bc", [gr.NEUMANN, gr.PERIODIC])
    def test_state_and_completion_make_five_transform_calls_in_1d(self, transform_calls, bc):
        u = band_limited(Grid((1.0,), (64,), bc), seed=5)
        transform_calls.clear()  # the ones that made u
        model.State(u, PotentialParams(3.0, 1.0)).mu_hat
        # u_hat and beta_hat; the gradient (two calls); the nonlinear sum
        assert len(transform_calls) == 5, transform_calls

    @pytest.mark.parametrize("bc", [gr.NEUMANN, gr.PERIODIC])
    def test_imex_step_and_completion_make_five_transform_calls_in_1d(self, transform_calls,
                                                                       bc):
        prev = model.State(band_limited(Grid((1.0,), (64,), bc), seed=5),
                           PotentialParams(3.0, 1.0))
        prev.mu_hat  # assembled before the count, as an accepted state's is
        transform_calls.clear()
        step_imex(prev, 1e-6, SolverConfig()).state.mu_hat
        # the candidate's values from the solved coefficients, which it keeps
        # as u_hat; beta_hat; the gradient (two calls); the nonlinear sum
        assert len(transform_calls) == 5, transform_calls

    @pytest.mark.parametrize("bc", [gr.NEUMANN, gr.PERIODIC])
    def test_a_second_read_makes_no_transform(self, transform_calls, bc):
        state = model.State(band_limited(Grid((1.0,), (64,), bc), seed=5),
                            PotentialParams(3.0, 1.0))
        mu_hat, grad_mu_sq, made = state.mu_hat, state.grad_mu_sq, len(transform_calls)
        assert state.mu_hat is mu_hat and state.grad_mu_sq == grad_mu_sq
        assert len(transform_calls) == made  # no scipy.fft call

    def test_non_finite_mu_hat_raises_when_read(self):
        grid = Grid((1.0,), (32,), gr.PERIODIC)
        vals = np.full(32, 0.5)
        vals[3] = 1e160  # the continuation's d^2 overflows
        nl = Nonlinearity(PotentialParams(1.0, 1.0), TruncationLevel(10))
        with np.errstate(all="ignore"):
            state = model.State(ScalarField(grid, vals), nl)
            with pytest.raises(ShapeError):
                state.mu_hat
            with pytest.raises(ShapeError):  # a failed assembly leaves it unassembled
                state.mu_hat


class TestEvaluationOnRead:
    """mu_hat, ||grad mu||^2 and the a-priori scalars are made when first read, in
    any order, with the bits of a ledger row, which reads apriori, then grad_mu_sq."""

    @pytest.mark.parametrize("jacobian", [False, True], ids=["state", "iterate"])
    @pytest.mark.parametrize("order", list(permutations(("mu_hat", "grad_mu_sq", "apriori"))),
                             ids="-".join)
    def test_any_order_gives_the_ledgers_bits(self, order, jacobian):
        from sixch.diagnostics import RunLedger

        u = band_limited(Grid((4 * np.pi,), (96,), gr.NEUMANN), seed=2, cutoff=6)
        nl = Nonlinearity(PotentialParams(3.0, 1.0))
        row = RunLedger().record(model.State(u, nl, jacobian=jacobian), 0.0, 0.0)
        state = model.State(u, nl, jacobian=jacobian)
        got = {name: getattr(state, name) for name in order}
        a = got["apriori"]
        assert float(got["grad_mu_sq"]) == row.grad_mu_sq
        assert tuple(map(float, (a.beta_l2, a.grad_beta_l2, a.beta_betaprime_l1, a.m_integral,
                                 a.n_integral, a.mu_mean))) == (
            row.beta_l2, row.grad_beta_l2, row.betabp_l1, row.M_int, row.N_int, row.mu_mean)
        assert np.array_equal(got["mu_hat"], model.State(u, nl).mu_hat)


class TestStateDerivative:
    """`State.dmu_hat` is the Frechet derivative of mu_hat, Dmu(u) w, row by
    row, and `State.frozen` its coefficients' grid means."""

    CASES = [(Grid((8 * np.pi,), (64,), gr.NEUMANN), None, 0.8),
             (Grid((4 * np.pi, 3 * np.pi), (32, 24), gr.PERIODIC), None, 0.8),
             # past the knee 0.9 of n = 5
             (Grid((8 * np.pi,), (64,), gr.NEUMANN), TruncationLevel(5), 0.97)]
    IDS = ["neumann1d", "periodic2d", "neumann1d-level5"]

    @pytest.mark.parametrize("grid, level, amplitude", CASES, ids=IDS)
    def test_dmu_is_the_central_difference_of_mu(self, grid, level, amplitude):
        nl = Nonlinearity(PotentialParams(3.0, 1.0), level)
        u = band_limited(grid, seed=1, cutoff=4, amplitude=amplitude).values
        w = band_limited(grid, seed=11, cutoff=4, amplitude=1.0).values
        if level is not None:
            assert np.abs(u).max() > level.knee
        h = 1e-5
        mu_p, mu_m = (model.State(ScalarField(grid, u + s * h * w), nl).mu_hat
                      for s in (1.0, -1.0))
        fd = (mu_p - mu_m) * (0.5 / h)
        dmu = model.State(ScalarField(grid, u), nl).dmu_hat(gr.transform_forward(w, grid))
        assert np.linalg.norm(dmu - fd) <= 1e-6 * np.linalg.norm(dmu)

    @pytest.mark.parametrize("grid, level, amplitude", CASES, ids=IDS)
    def test_rows_equal_single_states(self, grid, level, amplitude):
        # a Newton iterate (jacobian=True) keeps the coefficients, any other
        # State makes them when first read: both give the same Dmu
        nl = Nonlinearity(PotentialParams(3.0, 1.0), level)
        rows = [band_limited(grid, seed=s, cutoff=4, amplitude=amplitude) for s in (1, 2)]
        w_hat = gr.transform_forward(band_limited(grid, seed=11, cutoff=4).values, grid)
        batch = model.State(ScalarField.stack(rows), nl, jacobian=True)
        for i, u in enumerate(rows):
            for single in (model.State(u, nl), model.State(u, nl, jacobian=True)):
                assert np.array_equal(batch.dmu_hat(w_hat, (i,)), single.dmu_hat(w_hat))
                assert batch.frozen((i,)) == single.frozen()
