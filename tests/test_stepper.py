import numpy as np
import pytest

from sixch import grid as gr
from sixch import model
from sixch.diagnostics import RunLedger
from sixch.errors import GuardViolation, NewtonDivergence, StepFloorError
from sixch.grid import Grid, ScalarField, constant_field
from sixch.initdata import InitialSpec, generate, regularize_initial
from sixch.model import State, dispersion_sigma
from sixch.potential import Nonlinearity, PotentialParams, TruncationLevel
from sixch.stepper import (_FROZEN_FLOOR, _INNER_M, LinearOperator, SolverConfig,
                           _frozen_symbol, _stabilization, advance, lgmres,
                           step_imex, step_implicit)

P0 = PotentialParams(0.0, 0.0)
SPINODAL = PotentialParams(3.0, 1.0)


def noise_state(grid, seed=7, mean=0.2, amplitude=0.05, cutoff=10):
    return generate(InitialSpec(kind="noise", mean_m=mean, amplitude=amplitude,
                                seed=seed, cutoff=cutoff), grid)


def bare_cfg(dt, **kw):
    kw.setdefault("dt0", dt)
    kw.setdefault("dt_min", min(dt, kw["dt0"]) * 1e-6)
    kw.setdefault("dt_max", dt)
    return SolverConfig(**kw)


@pytest.fixture
def operators(monkeypatch):
    """The LinearOperators a Newton step builds: its Jacobians, one per Newton iteration."""
    from sixch import stepper

    ops = []

    def recording(*args, **kwargs):
        ops.append(LinearOperator(*args, **kwargs))
        return ops[-1]

    monkeypatch.setattr(stepper, "LinearOperator", recording)
    return ops


@pytest.fixture
def krylov(monkeypatch):
    """The Jacobian matvecs of each Krylov solve a Newton step makes, one entry per call."""
    from sixch import stepper

    calls = []
    solve = stepper.lgmres

    def counting(A, b, **kwargs):
        calls.append(0)

        def matvec(w):
            calls[-1] += 1
            return A.matvec(w)

        return solve(LinearOperator(A.shape, matvec=matvec, dtype=A.dtype), b, **kwargs)

    monkeypatch.setattr(stepper, "lgmres", counting)
    return calls


@pytest.fixture
def preconditioners(monkeypatch):
    """The M each Krylov solve a Newton step makes divides by, one entry per call."""
    from sixch import stepper

    divisors = []
    solve = stepper.lgmres

    def recording(A, b, M, **kwargs):
        divisors.append(M)
        return solve(A, b, M=M, **kwargs)

    monkeypatch.setattr(stepper, "lgmres", recording)
    return divisors


class TestFixedPoints:
    @pytest.mark.parametrize("stepper", [step_imex, step_implicit])
    def test_constants_are_bit_exact_equilibria(self, stepper):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        u = constant_field(grid, 0.3)
        cfg = bare_cfg(0.05)
        out = stepper(State(u, SPINODAL), 0.05, cfg)
        assert np.array_equal(out.state.u.values, u.values)
        assert out.inner_iters <= 1

    def test_constant_advance_identical_with_clean_ledger(self):
        grid = Grid((2.0,), (32,), gr.NEUMANN)
        u = constant_field(grid, -0.4)
        cfg = SolverConfig(dt0=0.01, dt_min=1e-8, dt_max=0.5)
        ledger = RunLedger()
        out = advance(u, 1.0, SPINODAL, cfg, ledger=ledger)
        assert np.array_equal(out.values, u.values)
        assert all(r.rejections == 0 for r in ledger.rows)
        assert np.all(np.diff(ledger.times) > 0)
        assert ledger.rows[-1].t == pytest.approx(1.0, abs=1e-12)


class TestMassConservation:
    @pytest.mark.parametrize("stepper", [step_imex, step_implicit])
    def test_single_step_mean_exact(self, stepper):
        grid = Grid((1.0,), (64,), gr.NEUMANN)
        u = noise_state(grid, seed=3, mean=0.1)
        cfg = bare_cfg(1e-4, newton_tol=1e-6)
        out = stepper(State(u, SPINODAL), 1e-4, cfg)
        assert abs(gr.mean(out.state.u) - gr.mean(u)) <= 1e-14

    # IMEX pins the mass mode; Newton conserves the mass through its solve
    @pytest.mark.parametrize("scheme, t_end", [("imex", 0.2), ("newton", 0.02)],
                             ids=["imex", "newton"])
    def test_mass_constant_along_run(self, scheme, t_end):
        grid = Grid((4 * np.pi,), (128,), gr.NEUMANN)
        u0 = noise_state(grid, seed=5)
        cfg = SolverConfig(scheme=scheme, dt0=1e-4, dt_min=1e-10, dt_max=1e-2)
        ledger = RunLedger()
        advance(u0, t_end, SPINODAL, cfg, ledger=ledger)
        mass = ledger.column("mass")
        assert np.max(np.abs(mass - mass[0])) <= 1e-12

    @pytest.mark.parametrize("grid", [Grid((8 * np.pi,), (64,), gr.NEUMANN),
                                      Grid((4 * np.pi, 3 * np.pi), (32, 24), gr.PERIODIC)],
                             ids=["neumann1d", "periodic2d"])
    def test_imex_candidate_keeps_the_mass_coefficient(self, grid):
        # the candidate's u_hat is the solve's, mass mode pinned: not a
        # transform of its values, which would move the mass by roundoff
        mass = (0,) * grid.dim
        state = State(noise_state(grid, seed=5), SPINODAL)
        for _ in range(10):
            candidate = step_imex(state, 1e-3, bare_cfg(1e-3)).state
            assert candidate.u_hat[mass] == state.u_hat[mass]
            state = candidate


class TestLinearRegime:
    def test_single_mode_decay_matches_sigma(self):
        # spec example: 1e-6 cos(kx), lam = eta = 0, 100 steps at dt = 1e-4
        grid = Grid((2 * np.pi,), (64,), gr.PERIODIC)
        x = grid.axis_coords(0)
        k = 2.0
        state = State(ScalarField(grid, 1e-6 * np.cos(k * x)), P0)
        cfg = bare_cfg(1e-4, s1=0.0, s2=0.0)
        proj = np.cos(k * x) / np.sum(np.cos(k * x) ** 2)
        amps = []
        for _ in range(100):
            amps.append(float(np.sum(state.u.values * proj)))
            state = step_imex(state, 1e-4, cfg).state
        slope = np.polyfit(1e-4 * np.arange(100), np.log(np.abs(amps)), 1)[0]
        sigma = dispersion_sigma(k, P0)
        assert sigma == -k**2 * (k**2 + 1) ** 2
        assert abs(slope - sigma) <= 0.01 * abs(sigma)


class TestSchemeAgreement:
    def test_imex_newton_difference_is_second_order(self):
        # small amplitude keeps the stiff high modes out of the asymptotics
        grid = Grid((2 * np.pi,), (48,), gr.PERIODIC)
        x = grid.axis_coords(0)
        prev = State(ScalarField(grid, 0.1 * np.cos(x) + 0.025 * np.cos(2 * x)),
                     PotentialParams(1.0, 0.5))
        diffs = []
        for dt in (4e-5, 2e-5, 1e-5):
            cfg = bare_cfg(dt, newton_tol=1e-11, newton_max_iters=50)
            a = step_imex(prev, dt, cfg).state.u
            b = step_implicit(prev, dt, cfg).state.u
            diffs.append(gr.lp_norm(a - b, 2))
        slopes = [np.log2(diffs[i] / diffs[i + 1]) for i in range(2)]
        for s in slopes:
            assert 1.7 <= s <= 2.3, (diffs, slopes)

    @pytest.mark.parametrize("scheme", ["imex", "newton"])
    def test_first_order_in_time_at_fixed_dt(self, scheme):
        # bench1d's physics on 64 points: halving a fixed dt halves the
        # change, so successive differences shrink by 2; no reference needed
        grid = Grid((8 * np.pi,), (64,), gr.NEUMANN)
        u0 = noise_state(grid, cutoff=6)
        finals = [advance(u0, 0.02, SPINODAL, SolverConfig(scheme=scheme, dt0=dt, dt_min=dt,
                                                           dt_max=dt))
                  for dt in (1e-3, 5e-4, 2.5e-4, 1.25e-4)]
        diffs = [gr.lp_norm(a - b, 2) for a, b in zip(finals, finals[1:])]
        ratios = [diffs[i] / diffs[i + 1] for i in range(2)]
        for r in ratios:
            assert 1.8 <= r <= 2.3, (diffs, ratios)


class TestFieldConstructions:
    """A ScalarField is built, and so checked, only where a value enters a
    State: the IMEX candidate's u and each Newton iterate.  mu leaves a completed
    State as mu_hat, which completion checks itself, so it builds none."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        counts = []
        init = ScalarField.__init__

        def counting(self, *args, **kwargs):
            counts.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ScalarField, "__init__", counting)
        return counts

    @pytest.fixture
    def prev(self):
        grid = Grid((8 * np.pi,), (512,), gr.NEUMANN)
        return State(noise_state(grid, cutoff=20), SPINODAL).complete()

    def test_imex_step_and_completion_build_one_each(self, prev, constructions):
        out = step_imex(prev, 1e-4, SolverConfig(dt0=1e-4))
        assert len(constructions) == 1  # the candidate's u
        out.state.complete()
        assert len(constructions) == 1  # completion builds none

    def test_newton_step_builds_one_per_iterate(self, prev, constructions):
        cfg = SolverConfig(scheme="newton", dt0=1e-4, dt_min=1e-12, dt_max=5e-2)
        out = step_implicit(prev, 1e-4, cfg)
        assert out.inner_iters >= 2
        # each iterate; the candidate is the last of them
        assert len(constructions) == out.inner_iters


class TestNewtonEvaluations:
    def test_each_iterate_evaluated_once(self, monkeypatch):
        # the newton1d benchmark problem: each iterate is one State with one
        # pointwise pass, and u, not built as an iterate, makes one pass for
        # its Jacobian terms
        grid = Grid((8 * np.pi,), (512,), gr.NEUMANN)
        cfg = SolverConfig(scheme="newton", dt0=1e-4, dt_min=1e-12, dt_max=5e-2,
                           growth_factor=1.05)
        prev = State(noise_state(grid, cutoff=20), SPINODAL).complete()
        counts = {"State": 0, "pointwise": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(State, "__init__", counting("State", State.__init__))
        monkeypatch.setattr(Nonlinearity, "pointwise",
                            counting("pointwise", Nonlinearity.pointwise))
        out = step_implicit(prev, 1e-4, cfg)
        assert out.inner_iters >= 2
        assert counts == {"State": out.inner_iters, "pointwise": out.inner_iters + 1}

    @pytest.mark.parametrize("grid, cutoff", [
        (Grid((8 * np.pi,), (512,), gr.NEUMANN), 20),
        (Grid((4 * np.pi, 3 * np.pi), (32, 24), gr.PERIODIC), 6),
    ], ids=["neumann1d", "periodic2d"])
    def test_candidate_coefficients_are_the_transform_of_its_values(self, grid, cutoff):
        # the next step's first residual G(u) reads the candidate's mu_hat, built
        # from its u_hat, which must therefore be the transform of its values;
        # it is: the candidate is the last iterate State, which transformed its
        # values, or prev itself where G(u) converged at once
        cfg = SolverConfig(scheme="newton", dt0=1e-4, dt_min=1e-12, dt_max=5e-2)
        prev = State(noise_state(grid, cutoff=cutoff), SPINODAL).complete()
        out = step_implicit(prev, 1e-4, cfg)
        assert out.inner_iters >= 1
        assert np.array_equal(out.state.u_hat, gr.transform_forward(out.state.u.values, grid))

    def test_candidate_is_the_last_iterate(self, monkeypatch):
        # the candidate is the State of the iterate Newton converged to,
        # completed by its residual; where G(u) converges at once it is prev
        grid = Grid((8 * np.pi,), (512,), gr.NEUMANN)
        cfg = SolverConfig(scheme="newton", dt0=1e-4, dt_min=1e-12, dt_max=5e-2)
        prev = State(noise_state(grid, cutoff=20), SPINODAL).complete()
        constant = State(constant_field(grid, 0.2), SPINODAL)
        built = []
        init = State.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(State, "__init__", recording)
        out = step_implicit(prev, 1e-4, cfg)
        assert out.inner_iters >= 2 and len(built) == out.inner_iters
        assert out.state is built[-1] and out.state.mu_hat is not None
        built.clear()
        out = step_implicit(constant, 1e-4, cfg)
        assert out.state is constant and out.inner_iters == 1 and not built

    def test_next_step_reads_the_candidates_terms(self, monkeypatch):
        # a step from a Newton candidate makes no pointwise pass and no
        # gradient at u: the candidate's completion kept them.  A step from
        # a State built otherwise makes them once, and a retry from it (as
        # after a rejection) reuses them
        grid = Grid((8 * np.pi,), (512,), gr.NEUMANN)
        cfg = SolverConfig(scheme="newton", dt0=1e-4, dt_min=1e-12, dt_max=5e-2)
        candidate = step_implicit(State(noise_state(grid, cutoff=20), SPINODAL), 1e-4,
                                  cfg).state
        prev = State(noise_state(grid, seed=8, cutoff=20), SPINODAL).complete()
        at_u = []

        def recording(name, fn, u):
            def wrapper(*args, **kwargs):
                at_u.extend(name for a in args if isinstance(a, np.ndarray)
                            and np.array_equal(a, u))
                return fn(*args, **kwargs)
            return wrapper

        def watch(u):
            monkeypatch.setattr(Nonlinearity, "pointwise",
                                recording("pointwise", Nonlinearity.pointwise, u))
            monkeypatch.setattr(gr, "gradients", recording("gradients", gr.gradients, u))

        watch(candidate.u.values)
        assert step_implicit(candidate, 1e-4, cfg).inner_iters >= 1
        assert at_u == []
        monkeypatch.undo()
        watch(prev.u.values)
        assert step_implicit(prev, 2e-4, cfg).inner_iters >= 1
        assert sorted(at_u) == ["gradients", "pointwise"]
        assert step_implicit(prev, 1e-4, cfg).inner_iters >= 1
        assert sorted(at_u) == ["gradients", "pointwise"]

    def test_no_jacobian_at_the_converged_iterate(self, operators, preconditioners,
                                                   monkeypatch):
        # G(u) comes from the completed prev's mu_hat, a Jacobian is built
        # per Newton iteration only, and its matvec on coefficients makes 4
        # r2r transforms in 1D: one backward, w's gradient and one stacked
        # forward call; the preconditioner divides and makes none
        grid = Grid((8 * np.pi,), (512,), gr.NEUMANN)
        cfg = SolverConfig(scheme="newton", dt0=1e-4, dt_min=1e-12, dt_max=5e-2)
        prev = State(noise_state(grid, cutoff=20), SPINODAL).complete()
        out = step_implicit(prev, 1e-4, cfg)
        assert out.inner_iters >= 2
        assert len(operators) == len(preconditioners) == out.inner_iters
        w_hat = gr.transform_forward(np.linspace(-1.0, 1.0, 512), grid)
        r2r = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                r2r.append(fn)
                return fn(*args, **kwargs)
            return wrapper

        for name in ("dct", "dst"):
            monkeypatch.setattr(gr, name, counted(getattr(gr, name)))
        w_hat / preconditioners[0]  # M is an array: applying it is one division
        assert len(r2r) == 0
        operators[0].matvec(w_hat)
        assert len(r2r) == 4

    @pytest.mark.parametrize("grid, cutoff", [
        (Grid((8 * np.pi,), (64,), gr.NEUMANN), 10),
        (Grid((4 * np.pi, 3 * np.pi), (32, 24), gr.PERIODIC), 6),
    ], ids=["neumann1d", "periodic2d"])
    def test_jacobian_is_the_derivative_of_the_residual(self, grid, cutoff, operators):
        # the first Jacobian, at v = u, applied to w's coefficients, against
        # the transform of the central difference of G(v) = v - u + dt A mu(v)
        # built from model.mu; the grids are coarse, since dt A^3 / h
        # amplifies the roundoff of mu in the difference
        dt, h = 1e-4, 1e-6
        cfg = SolverConfig(scheme="newton", dt0=dt, dt_min=1e-12, dt_max=5e-2)
        prev = State(noise_state(grid, cutoff=cutoff), SPINODAL).complete()
        assert step_implicit(prev, dt, cfg).inner_iters >= 1
        w = noise_state(grid, seed=11, mean=0.0, amplitude=0.5, cutoff=cutoff).values
        w_hat = gr.transform_forward(w, grid)
        jw = operators[0].matvec(w_hat.ravel()).reshape(grid.shape)
        mu_p, mu_m = (model.mu(ScalarField(grid, prev.u.values + s * h * w), prev.nl)
                      for s in (1.0, -1.0))
        fd = gr.transform_forward(w + dt * gr.apply_A((mu_p - mu_m) * (0.5 / h)).values, grid)
        assert np.linalg.norm(jw - fd) <= 1e-4 * np.linalg.norm(jw - w_hat)


class TestNewtonDamping:
    """An update that would take an iterate past the separation guard
    |v| <= bound is damped to theta = 0.95 min(room/|delta|) over the
    entries it pushes past the bound, room being each one's distance to it;
    an update that pushes an entry already at the bound cannot be damped."""

    @staticmethod
    def replace_updates(monkeypatch, update):
        """Make each Krylov solve return update(x) for its solution x; the updates, in order."""
        from sixch import stepper

        updates, solve = [], stepper.lgmres

        def replaced(A, b, **kwargs):
            x, info = solve(A, b, **kwargs)
            updates.append(update(x))
            return updates[-1], info

        monkeypatch.setattr(stepper, "lgmres", replaced)
        return updates

    def test_overshooting_update_is_damped_to_the_guard(self, monkeypatch):
        grid = Grid((8 * np.pi,), (128,), gr.NEUMANN)
        prev = State(noise_state(grid, mean=0.0, amplitude=0.6, seed=19, cutoff=12),
                     SPINODAL).complete()
        cfg = SolverConfig(scheme="newton", newton_max_iters=1)
        bound = 1.0 - cfg.guard_eps
        updates = self.replace_updates(monkeypatch, lambda x: 1e5 * x)
        iterates, init = [], ScalarField.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            iterates.append(self.values.copy())

        monkeypatch.setattr(ScalarField, "__init__", recording)
        with pytest.raises(NewtonDivergence):  # one iteration, then its residual is read
            step_implicit(prev, 1e-4, cfg)
        u = prev.u.values
        delta = gr.transform_backward(updates[0].reshape(grid.shape), grid)
        pushing = np.abs(u + delta) > bound
        assert pushing.any()
        theta = 0.95 * float(np.min((bound - np.abs(u[pushing])) / np.abs(delta[pushing])))
        assert 1e-8 < theta < 1.0
        v = iterates[-1]  # the iterate the update gave
        assert np.abs(v).max() <= bound
        assert np.array_equal(v, u + theta * delta)

    def test_update_pushing_an_entry_at_the_bound_raises(self, monkeypatch):
        grid = Grid((8 * np.pi,), (128,), gr.NEUMANN)
        cfg = SolverConfig(scheme="newton")
        bound = 1.0 - cfg.guard_eps
        u = noise_state(grid, mean=0.0, amplitude=0.6, seed=19, cutoff=12).values.copy()
        peak = np.argmax(np.abs(u))
        u[peak] = np.copysign(bound, u[peak])
        prev = State(ScalarField(grid, u), SPINODAL).complete()
        # the update u itself pushes every entry outward, the one at the bound too
        updates = self.replace_updates(monkeypatch, lambda x: gr.transform_forward(u, grid))
        with pytest.raises(GuardViolation, match="damping"):
            step_implicit(prev, 1e-4, cfg)
        delta = gr.transform_backward(updates[0].reshape(grid.shape), grid)
        assert np.sign(delta[peak]) == np.sign(u[peak])


class TestFrozenSymbolPreconditioner:
    """Newton's preconditioner: the Jacobian's symbol with the coefficients of
    the step's start state frozen at their means, each entry within
    `_FROZEN_FLOOR` of 0 moved out to that distance with its sign kept."""

    @staticmethod
    def divides_by(M, diag, grid):
        """M applied to a vector of random coefficients divides them by diag, bit for bit."""
        c = np.random.default_rng(5).standard_normal(grid.shape)
        return np.array_equal((c.ravel() / M).reshape(grid.shape), c / diag)

    def test_symbol_is_the_jacobian_at_a_constant_state(self):
        # at a constant state grad u = 0 and every coefficient of Dmu is a
        # constant, so each cosine mode is an eigenvector of J = 1 + dt A Dmu
        grid = Grid((8 * np.pi,), (64,), gr.NEUMANN)
        c, dt, h = 0.3, 0.1, 1e-6
        state = State(constant_field(grid, c), SPINODAL)
        nl = state.nl
        diag = _frozen_symbol(grid, dt, *state.frozen())
        x = grid.axis_coords(0)
        for k in (1, 3, 8, 20):
            w = np.cos(k * np.pi * x / grid.lengths[0])
            mu_p, mu_m = (model.mu(ScalarField(grid, c + s * h * w), nl).values
                          for s in (1.0, -1.0))
            dmu_k = np.dot((mu_p - mu_m) * (0.5 / h), w) / np.dot(w, w)
            assert diag[k] == pytest.approx(1.0 + dt * grid.eigenvalues[k] * dmu_k, rel=1e-6)

    def test_floor_only_where_the_symbol_reaches_zero(self, operators, krylov, preconditioners,
                                                       monkeypatch):
        # 2 lam - eta = 9 makes c2 < 0 on this near-mixed state, so the frozen
        # symbol is positive at dt = 0.05, negative in places at dt = 0.2, and
        # has an entry at 0 at the dt that sends its most negative mode there
        from sixch import stepper

        grid = Grid((8 * np.pi,), (64,), gr.NEUMANN)
        prev = State(noise_state(grid, mean=0.0, amplitude=0.05, seed=7, cutoff=10),
                     PotentialParams(3.0, -3.0)).complete()
        cfg = SolverConfig(scheme="newton", dt0=1e-3, dt_min=1e-9, dt_max=1.0)
        symbols = []  # the (unfloored, floored) symbol of each call

        def recording(*args):
            with monkeypatch.context() as unfloored:
                unfloored.setattr(stepper, "_FROZEN_FLOOR", 0.0)
                frozen = _frozen_symbol(*args)
            symbols.append((frozen, _frozen_symbol(*args)))
            return symbols[-1][1]

        monkeypatch.setattr(stepper, "_frozen_symbol", recording)

        def preconditioned_step(dt):
            symbols.clear()
            operators.clear()
            preconditioners.clear()
            krylov.clear()
            out = step_implicit(prev, dt, cfg)
            assert len(symbols) == 1 and len(operators) == out.inner_iters
            assert all(M is preconditioners[0] for M in preconditioners)  # one M per step
            frozen, floored = symbols[0]
            # every entry at least _FROZEN_FLOOR in size with its sign kept,
            # and an entry already that far from 0 as it is
            assert np.abs(floored).min() >= _FROZEN_FLOOR
            assert np.array_equal(np.signbit(floored), np.signbit(frozen))
            far = np.abs(frozen) >= _FROZEN_FLOOR
            assert np.array_equal(floored[far], frozen[far])
            return out, frozen, floored, preconditioners[0]

        out, frozen, floored, M = preconditioned_step(0.05)
        assert frozen.min() > 0.5 and self.divides_by(M, frozen, grid)
        assert out.inner_iters <= 3

        out, frozen, floored, M = preconditioned_step(0.2)
        assert frozen.min() < -0.5 and np.abs(frozen).min() > 0.05
        assert self.divides_by(M, frozen, grid)  # GMRES needs no definite M
        assert out.inner_iters <= 3

        dt_zero = 0.2 / (1.0 - frozen.min())  # 1 + dt*q = 0 for the most negative q
        out, frozen, floored, M = preconditioned_step(dt_zero)
        near = np.abs(frozen) <= _FROZEN_FLOOR
        assert np.count_nonzero(near) == 1 and np.abs(frozen).min() < 1e-12
        expected = frozen.copy()
        expected[near] = np.copysign(_FROZEN_FLOOR, frozen[near])  # out to the floor, sign kept
        assert np.array_equal(floored, expected) and self.divides_by(M, expected, grid)
        assert out.inner_iters <= cfg.newton_max_iters
        assert sum(krylov) <= 150, krylov
        assert out.state.energy.total < prev.energy.total

    def test_krylov_matvecs_per_newton_iteration(self, krylov):
        # the newton1d benchmark problem, 60 accepted steps: about 2 Jacobian
        # matvecs per Krylov solve (one per Newton iteration) with the frozen
        # symbol, since the solve makes no matvec at x = 0 and none to
        # recheck its residual
        grid = Grid((8 * np.pi,), (512,), gr.NEUMANN)
        cfg = SolverConfig(scheme="newton", dt0=1e-4, dt_min=1e-12, dt_max=5e-2,
                           growth_factor=1.05)
        advance(noise_state(grid, seed=7, cutoff=20), 1e9, SPINODAL, cfg, max_steps=60)
        assert len(krylov) >= 60
        assert sum(krylov) / len(krylov) <= 2.5, (len(krylov), sum(krylov))


def counted_operator(mat):
    """x -> mat @ x as a LinearOperator, and the list each application appends to."""
    calls = []

    def matvec(x):
        calls.append(None)
        return mat @ x

    return LinearOperator(mat.shape, matvec, mat.dtype), calls


def scipy_divisor(diag):
    """x -> x / diag as scipy's LinearOperator: the M that scipy's lgmres reads."""
    from scipy.sparse.linalg import LinearOperator as ScipyOperator

    return ScipyOperator((diag.size, diag.size), matvec=lambda x: x / diag, dtype=diag.dtype)


def preconditioned_residual(A, b, x, diag):
    return np.linalg.norm((b - A @ x) / diag) / np.linalg.norm(b / diag)


class TestKrylov:
    """`lgmres`, Newton's Krylov solve: left-preconditioned GMRES from x = 0
    that stops at ||M(b - A x)|| <= rtol*||M b||."""

    def test_real_system_meets_rtol(self):
        rng = np.random.default_rng(1)
        n = 80
        diag = np.linspace(1.0, 30.0, n)
        A = np.diag(diag) + 0.3 * rng.standard_normal((n, n))  # not symmetric
        b = rng.standard_normal(n)
        x, info = lgmres(counted_operator(A)[0], b, M=diag, rtol=1e-8)
        assert info == 0 and x.dtype == np.float64
        assert preconditioned_residual(A, b, x, diag) <= 1e-8
        exact = np.linalg.solve(A, b)
        assert np.linalg.norm(x - exact) <= 1e-6 * np.linalg.norm(exact)

    def test_complex_system_keeps_vectors_hermitian(self):
        # a real operator on values, seen in Fourier coefficients as a periodic
        # grid's Jacobian is: A_hat = F A F^-1, a real even symbol as M
        rng = np.random.default_rng(2)
        n = 64
        k = np.fft.fftfreq(n, 1.0 / n)
        symbol = 1.0 + 0.01 * k**2
        F = np.fft.fft(np.eye(n), axis=0)
        real_op = np.fft.ifft(symbol[:, None] * F, axis=0).real + 0.2 * rng.standard_normal((n, n))
        A_hat = F @ real_op @ np.linalg.inv(F)
        b_hat = np.fft.fft(rng.standard_normal(n))
        x_hat, info = lgmres(counted_operator(A_hat)[0], b_hat, M=symbol, rtol=1e-8)
        assert info == 0 and x_hat.dtype == np.complex128
        assert preconditioned_residual(A_hat, b_hat, x_hat, symbol) <= 1e-8
        exact = np.linalg.solve(A_hat, b_hat)
        assert np.linalg.norm(x_hat - exact) <= 1e-6 * np.linalg.norm(exact)
        x = np.fft.ifft(x_hat)
        assert np.abs(x.imag).max() <= 1e-12 * np.abs(x.real).max()

    def test_zero_right_hand_side_makes_no_matvec(self):
        A, calls = counted_operator(np.eye(5))
        x, info = lgmres(A, np.zeros(5), M=np.ones(5), rtol=1e-4)
        assert info == 0 and not calls
        assert np.array_equal(x, np.zeros(5))

    def test_identity_converges_on_breakdown_after_one_matvec(self):
        b = np.random.default_rng(3).standard_normal(20)
        A, calls = counted_operator(np.eye(20))
        x, info = lgmres(A, b, M=np.ones(20), rtol=1e-12)
        assert info == 0 and len(calls) == 1
        np.testing.assert_allclose(x, b, rtol=1e-14, atol=0.0)

    def test_no_convergence_returns_the_minimal_residual_iterate(self):
        # condition number 1e4: 30 unpreconditioned steps cut the residual
        # only by about 20; scipy's lgmres with one cycle of the same 30 steps
        # and no augmentation minimizes over the same Krylov space
        from scipy.sparse.linalg import lgmres as scipy_lgmres

        n = 300
        A = np.diag(np.linspace(1.0, 1e4, n))
        b = np.ones(n)
        one = np.ones(n)
        x, info = lgmres(counted_operator(A)[0], b, M=one, rtol=1e-10)
        assert info == _INNER_M
        assert 1e-10 < preconditioned_residual(A, b, x, one) < 0.1
        ref, _ = scipy_lgmres(counted_operator(A)[0], b, M=scipy_divisor(one), rtol=1e-10,
                              atol=0.0, maxiter=1, inner_m=_INNER_M, outer_k=0)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_singular_operator_returns_zero_without_raising(self):
        # J M = 0: breakdown at the first step with a zero pivot, which the
        # back-substitution skips rather than dividing by it
        A, calls = counted_operator(np.zeros((8, 8)))
        x, info = lgmres(A, np.ones(8), M=np.ones(8), rtol=1e-4)
        assert info == 1 and len(calls) == 1
        assert np.array_equal(x, np.zeros(8))

    @pytest.mark.parametrize("rtol", [1e-4, 1e-8])
    def test_agrees_with_scipy_lgmres(self, rtol):
        # diagonal plus rank 3, preconditioned by a perturbed diagonal; at
        # rtol = 1e-4 scipy restarts after its true-residual check, so the two
        # solutions agree to within rtol, not bit for bit
        from scipy.sparse.linalg import lgmres as scipy_lgmres

        rng = np.random.default_rng(3)
        n = 120
        diag = np.linspace(1.0, 50.0, n)
        A = np.diag(diag) + 0.5 * rng.standard_normal((n, 3)) @ rng.standard_normal((3, n))
        M = diag * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, n))
        b = rng.standard_normal(n)
        x, info = lgmres(counted_operator(A)[0], b, M=M, rtol=rtol)
        ref, ref_info = scipy_lgmres(counted_operator(A)[0], b, M=scipy_divisor(M), rtol=rtol,
                                     atol=0.0)
        assert info == 0 and ref_info == 0
        assert np.linalg.norm(x - ref) <= rtol * np.linalg.norm(ref)


class TestEnergyDissipation:
    def test_energy_decreases_every_accepted_step(self):
        grid = Grid((4 * np.pi,), (128,), gr.NEUMANN)
        u0 = noise_state(grid, seed=11, mean=0.0)
        cfg = SolverConfig(dt0=1e-4, dt_min=1e-10, dt_max=5e-3,
                           energy_tol=0.0, growth_factor=1.3)
        ledger = RunLedger()
        advance(u0, 0.3, SPINODAL, cfg, ledger=ledger)
        e = ledger.column("E_total")
        assert np.all(np.diff(e) <= 0.0)

    def test_newton_energy_decrease_on_spinodal_state(self):
        grid = Grid((4 * np.pi,), (64,), gr.NEUMANN)
        u0 = noise_state(grid, seed=13, mean=0.0, cutoff=8)
        cfg = SolverConfig(scheme="newton", dt0=1e-3, dt_min=1e-9, dt_max=1e-2,
                           energy_tol=0.0, newton_tol=1e-10, newton_max_iters=60)
        ledger = RunLedger()
        advance(u0, 0.02, SPINODAL, cfg, ledger=ledger)
        e = ledger.column("E_total")
        assert len(e) > 3
        assert np.all(np.diff(e) <= 0.0)


class TestAdaptivity:
    def test_dt_grows_toward_dt_max_near_equilibrium(self):
        grid = Grid((1.0,), (64,), gr.NEUMANN)
        u0 = noise_state(grid, seed=17, mean=0.1, amplitude=1e-4)
        cfg = SolverConfig(dt0=1e-5, dt_min=1e-12, dt_max=1e-2, growth_factor=1.5)
        ledger = RunLedger()
        advance(u0, 0.5, P0, cfg, ledger=ledger)
        dts = ledger.column("dt")[1:]
        assert dts[-1] == pytest.approx(1e-2, rel=1e-9) or np.max(dts) > 100 * dts[0]

    def test_rejection_floor_raises(self):
        # one Newton iteration converges at no dt down to dt_min, so every
        # retry is rejected (NewtonDivergence) and the controller must
        # escalate to StepFloorError once dt_min is reached
        grid = Grid((4 * np.pi,), (64,), gr.NEUMANN)
        u0 = noise_state(grid, seed=19, mean=0.0, amplitude=0.6, cutoff=12)
        cfg = SolverConfig(scheme="newton", dt0=1e-3, dt_min=1e-4, dt_max=1e-3,
                           newton_max_iters=1, energy_tol=0.0)
        with pytest.raises(StepFloorError):
            advance(u0, 1.0, SPINODAL, cfg)

    def test_final_time_hit_exactly(self):
        grid = Grid((1.0,), (32,), gr.NEUMANN)
        u0 = constant_field(grid, 0.2)
        ledger = RunLedger()
        advance(u0, 0.0173, P0, SolverConfig(dt0=1e-3, dt_min=1e-9, dt_max=1e-3),
                ledger=ledger)
        assert ledger.rows[-1].t == pytest.approx(0.0173, abs=1e-15)


class TestTruncatedMode:
    def test_newton_guard_keeps_clamp_interval(self):
        lvl = TruncationLevel(6)
        grid = Grid((4 * np.pi,), (64,), gr.NEUMANN)
        u0 = regularize_initial(noise_state(grid, seed=23, mean=0.3, amplitude=0.3,
                                            cutoff=6), lvl)
        cfg = SolverConfig(scheme="newton", dt0=5e-4, dt_min=1e-10, dt_max=5e-3,
                           guard_eps=0.01, newton_tol=1e-9, newton_max_iters=60)
        ledger = RunLedger()
        advance(u0, 5e-3, Nonlinearity(SPINODAL, lvl), cfg, ledger=ledger)
        for row in ledger.rows:
            assert max(abs(row.min_u), abs(row.max_u)) <= lvl.clamp_bound + 1e-12

    def test_imex_runs_with_extended_evaluators(self):
        lvl = TruncationLevel(10)
        grid = Grid((4 * np.pi,), (64,), gr.NEUMANN)
        u0 = regularize_initial(noise_state(grid, seed=29), lvl)
        cfg = SolverConfig(dt0=1e-4, dt_min=1e-10, dt_max=1e-3)
        out = advance(u0, 0.05, Nonlinearity(SPINODAL, lvl), cfg)
        assert np.all(np.isfinite(out.values))

    # the level of the Nonlinearity a step is given sets s1 (20.51 by the
    # clamp-bound rule, not the exact mode's 10.53 at sup |u| = 0.5) and the
    # Newton guard (0.95 - guard_eps, not 1 - guard_eps)
    def test_level_sets_the_stabilization(self):
        b = TruncationLevel(20).clamp_bound
        u = constant_field(Grid((1.0,), (8,), gr.NEUMANN), 0.5)
        nl = Nonlinearity(SPINODAL, TruncationLevel(20))
        assert _stabilization(State(u, nl), SolverConfig())[0] == 2.0 / ((1.0 - b) * (1.0 + b))

    def test_level_sets_the_newton_guard(self):
        lvl = TruncationLevel(20)
        cfg = SolverConfig(scheme="newton")
        u = constant_field(Grid((1.0,), (8,), gr.NEUMANN), lvl.clamp_bound - 0.5 * cfg.guard_eps)
        assert lvl.clamp_bound - cfg.guard_eps < u.values[0] < 1.0 - cfg.guard_eps
        with pytest.raises(GuardViolation):
            step_implicit(State(u, Nonlinearity(SPINODAL, lvl)), 1e-3, cfg)


    @pytest.mark.parametrize("stepper", [step_imex, step_implicit])
    def test_candidate_carries_the_nonlinearity_of_the_state(self, stepper):
        lvl = TruncationLevel(5)
        nl = Nonlinearity(SPINODAL, lvl)
        grid = Grid((4 * np.pi,), (64,), gr.NEUMANN)
        prev = State(regularize_initial(noise_state(grid, seed=23), lvl), nl)
        cfg = bare_cfg(1e-4, scheme="newton" if stepper is step_implicit else "imex")
        assert stepper(prev, 1e-4, cfg).state.nl is nl


class TestStabilizationDefaults:
    def test_rule(self):
        p = PotentialParams(2.0, -1.0)
        u = constant_field(Grid((1.0,), (8,), gr.NEUMANN), 0.2)
        s1, s2 = _stabilization(State(u, Nonlinearity(p, TruncationLevel(10))), SolverConfig())
        b = 0.9
        assert s1 == pytest.approx(2.0 / (1 - b**2), rel=1e-12)
        assert s2 == abs(2 * p.lam - p.eta)

    # exact mode: b is the midpoint of sup|u| and 1, clipped to [0.9, 1 - 1e-6]
    @pytest.mark.parametrize("sup, b", [(0.5, 0.9), (0.95, 0.975), (1.0 - 1e-9, 1.0 - 1e-6)],
                             ids=["floor", "midpoint", "cap"])
    def test_exact_rule(self, sup, b):
        grid = Grid((1.0,), (8,), gr.NEUMANN)
        for u in (constant_field(grid, sup), constant_field(grid, -sup)):
            s1, s2 = _stabilization(State(u, SPINODAL), SolverConfig())
            assert s1.shape == (1,)  # broadcasts over the grid axis
            assert s1 == pytest.approx(2.0 / ((1 - b) * (1 + b)), rel=1e-12)
            assert s2 == abs(2 * SPINODAL.lam - SPINODAL.eta)

    def test_exact_rule_per_row(self):
        grid = Grid((1.0, 2.0), (8, 6), gr.PERIODIC)
        rows = ScalarField.stack([constant_field(grid, 0.5), constant_field(grid, -0.95)])
        s1, _ = _stabilization(State(rows, SPINODAL), SolverConfig())
        assert s1.shape == (2, 1, 1)
        assert s1[0] == pytest.approx(2.0 / (0.1 * 1.9), rel=1e-12)
        assert s1[1] == pytest.approx(2.0 / (0.025 * 1.975), rel=1e-12)

    def test_config_overrides(self):
        cfg = SolverConfig(s1=7.0, s2=0.5)
        u = constant_field(Grid((1.0,), (8,), gr.NEUMANN), 0.2)
        assert _stabilization(State(u, SPINODAL), cfg)[0:2] == (7.0, 0.5)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt0=1e-3, dt_min=1e-2, dt_max=1.0)
        with pytest.raises(ValueError):
            SolverConfig(growth_factor=0.9)
        for bad in ({"growth_factor": np.nan}, {"energy_tol": np.nan}, {"newton_tol": np.nan},
                    {"energy_tol": np.inf}, {"newton_tol": np.inf},
                    {"s1": np.nan}, {"s2": np.nan}, {"s1": -1.0}, {"s2": np.inf}):
            with pytest.raises(ValueError):
                SolverConfig(**bad)


class TestBatchedSteps:
    """Both steps on a (k, ...) batch equal the per-row steps bitwise, for k = 3
    and for a batch of one."""

    @pytest.mark.parametrize("stepper", [step_imex, step_implicit])
    @pytest.mark.parametrize("bc", [gr.NEUMANN, gr.PERIODIC])
    def test_rows_step_as_alone(self, stepper, bc):
        grid = Grid((4 * np.pi,), (64,), bc)
        # rows of different sup norms, so s1 differs from row to row
        rows = [noise_state(grid, seed=3, amplitude=0.05),
                noise_state(grid, seed=4, amplitude=0.75),
                constant_field(grid, 0.2)]  # a fixed point
        cfg = bare_cfg(1e-4, scheme="newton" if stepper is step_implicit else "imex")
        batch = stepper(State(ScalarField.stack(rows), SPINODAL), 1e-4, cfg)
        alone = [stepper(State(u, SPINODAL), 1e-4, cfg) for u in rows]
        assert batch.inner_iters == max(r.inner_iters for r in alone)
        for i, r in enumerate(alone):
            assert np.array_equal(batch.state.u.values[i], r.state.u.values)
            assert batch.state.energy.total[i] == r.state.energy.total
        assert np.array_equal(batch.state.u.values[2], rows[2].values)

    def test_newton_rows_converge_on_their_own(self):
        # a constant row meets its tolerance at G(u) and is not moved, while
        # the noise row iterates: the constant comes back as it went in, and
        # the noise row as its step alone
        grid = Grid((8 * np.pi,), (128,), gr.NEUMANN)
        rows = [constant_field(grid, 0.2), noise_state(grid, seed=7, cutoff=20)]
        cfg = SolverConfig(scheme="newton", dt0=1e-4, dt_min=1e-12, dt_max=5e-2)
        batch = step_implicit(State(ScalarField.stack(rows), SPINODAL), 1e-4, cfg)
        alone = step_implicit(State(rows[1], SPINODAL), 1e-4, cfg)
        assert alone.inner_iters >= 2 and batch.inner_iters == alone.inner_iters
        assert np.array_equal(batch.state.u.values[0], rows[0].values)
        assert np.array_equal(batch.state.u.values[1], alone.state.u.values)
        assert batch.state.energy.total[1] == alone.state.energy.total

    @pytest.mark.parametrize("stepper", [step_imex, step_implicit])
    @pytest.mark.parametrize("bc", [gr.NEUMANN, gr.PERIODIC])
    def test_one_row_steps_as_alone(self, stepper, bc):
        grid = Grid((4 * np.pi,), (64,), bc)
        u = noise_state(grid, seed=4, amplitude=0.75)
        cfg = bare_cfg(1e-4, scheme="newton" if stepper is step_implicit else "imex")
        batch = stepper(State(ScalarField.stack([u]), SPINODAL), 1e-4, cfg)
        alone = stepper(State(u, SPINODAL), 1e-4, cfg)
        assert batch.inner_iters == alone.inner_iters
        assert np.array_equal(batch.state.u.values[0], alone.state.u.values)
        assert batch.state.energy.total[0] == alone.state.energy.total
