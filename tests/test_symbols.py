"""The spectral symbols are built once and equal, bit for bit, the inline
formulas they replace; the kernels and steps that read them give the bits
of those formulas.

Grid-only symbols are `Grid` cached properties; omega's and mu's symbols
are made once per (grid, lam, eta) by `model._linear_symbols`; an IMEX
step's operator rides on the State it makes and is reused while grid, dt,
s1 and s2 stay the same.  Each test here compares arrays with
`np.array_equal`, never within a tolerance.
"""

from itertools import islice

import numpy as np
import pytest

from sixch import grid as gr
from sixch import model, stepper
from sixch.diagnostics import cdep_experiment
from sixch.errors import DomainError
from sixch.grid import Grid, ScalarField
from sixch.model import State
from sixch.potential import Nonlinearity, PotentialParams, TruncationLevel
from sixch.stepper import SolverConfig, step_imex, step_implicit

GRIDS = [Grid((8 * np.pi,), (64,), gr.NEUMANN),
         Grid((2 * np.pi,), (48,), gr.PERIODIC),
         Grid((4 * np.pi, 3 * np.pi), (16, 12), gr.NEUMANN),
         Grid((4 * np.pi, 3 * np.pi), (16, 12), gr.PERIODIC),
         Grid((4 * np.pi, 2 * np.pi, 3 * np.pi), (8, 6, 10), gr.NEUMANN),
         Grid((4 * np.pi, 2 * np.pi, 3 * np.pi), (8, 6, 10), gr.PERIODIC)]
IDS = [f"{g.bc}{g.dim}d" for g in GRIDS]
PARAMS = PotentialParams(3.0, 1.0)


def smooth(grid, seed, amplitude=0.6, rows=None):
    """A band-limited field (or a batch of `rows` of them) with |u| <= amplitude."""
    rng = np.random.default_rng(seed)
    lead = () if rows is None else (rows,)
    coeffs = np.zeros(lead + grid.shape)
    coeffs[(...,) + tuple(slice(0, 4) for _ in grid.shape)] = rng.standard_normal(
        lead + (4,) * grid.dim)
    vals = gr.transform_backward(coeffs, grid)
    vals *= amplitude / np.abs(vals).max()
    return ScalarField(grid, vals, batch=rows is not None)


def old_gradient_axis(values, grid, axis):
    """The spectral partial derivative as it was written before its symbols were cached."""
    n = grid.counts[axis]
    ax = axis - grid.dim
    rest = (slice(None),) * (grid.dim - 1 - axis)
    k = grid.wavenumbers[axis].reshape((n,) + (1,) * len(rest))
    if grid.bc == gr.PERIODIC:
        coeffs = gr.fftn(values, axes=(ax,))
        return np.real(gr.ifftn(1j * k * coeffs, axes=(ax,)))
    y = gr.dct(values, type=2, axis=ax)
    c = y / n
    c[(Ellipsis, 0) + rest] = 0.0
    b = -k * c
    z = np.zeros_like(b)
    z[(Ellipsis, slice(0, n - 1)) + rest] = b[(Ellipsis, slice(1, n)) + rest]
    return gr.dst(z, type=3, axis=ax) / 2.0


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
class TestCachedSymbols:
    def test_grid_symbols_are_the_inline_formulas(self, grid):
        ev = grid.eigenvalues
        assert np.array_equal(grid.eigenvalues_doubled, 2.0 * ev)
        live, ev_live = grid.positive_modes
        assert np.array_equal(live, ev > 0.0) and np.array_equal(ev_live, ev[ev > 0.0])
        for axis, symbol in enumerate(grid.gradient_symbols):
            n = grid.counts[axis]
            k = grid.wavenumbers[axis].reshape((n,) + (1,) * (grid.dim - 1 - axis))
            want = 1j * k if grid.bc == gr.PERIODIC else -k
            assert symbol.shape == want.shape and np.array_equal(symbol, want)
        assert grid.gradient_symbols is grid.gradient_symbols  # built once

    @pytest.mark.parametrize("lam, eta", [(3.0, 1.0), (0.0, 0.0), (-0.5, -2.0)])
    def test_linear_symbols_are_the_inline_formulas_and_shared(self, grid, lam, eta):
        ev = grid.eigenvalues
        omega, mu = model._linear_symbols(grid, lam, eta)
        assert np.array_equal(omega, ev - lam)
        assert np.array_equal(mu, grid.eigenvalues_sq - (2.0 * lam - eta) * ev)
        # once per (grid, lam, eta): an equal grid shares them, and no one can write them
        again = model._linear_symbols(Grid(grid.lengths, grid.counts, grid.bc), lam, eta)
        assert again[0] is omega and again[1] is mu
        for symbol in (omega, mu):
            with pytest.raises(ValueError):
                symbol[...] = 0.0

    @pytest.mark.parametrize("rows", [None, 3], ids=["field", "batch"])
    def test_gradient_is_the_old_kernel(self, grid, rows):
        u = smooth(grid, seed=4, rows=rows)
        for axis in range(grid.dim):
            assert np.array_equal(gr.gradient_axis(u.values, grid, axis),
                                  old_gradient_axis(u.values, grid, axis))

    @pytest.mark.parametrize("rows", [None, 3], ids=["field", "batch"])
    def test_state_reads_the_inline_formulas(self, grid, rows):
        # the energy, mu's assembly and the dual norm, as they were written inline
        u = smooth(grid, seed=5, rows=rows)
        state = State(u, PARAMS)
        ev, w, lam, eta = grid.eigenvalues, grid.cell_volume, PARAMS.lam, PARAMS.eta
        lead = u.values.shape[:-grid.dim]

        def flat(x):  # each row's sum, as the State sums it
            return x.reshape(*lead, -1).sum(axis=-1)

        u_hat = gr.transform_forward(u.values, grid)
        pw = state.nl.pointwise(u.values)
        beta_hat = gr.transform_forward(pw.beta, grid)
        om_hat = (ev - lam) * u_hat + beta_hat
        willmore = 0.5 * flat(np.abs(om_hat) ** 2) * w
        ch_grad = 0.5 * eta * flat(ev * np.abs(u_hat) ** 2) * w
        ch_pot = eta * flat(pw.F) * w
        e = state.energy
        for got, want in [(e.willmore, willmore), (e.ch_grad, ch_grad), (e.ch_pot, ch_pot),
                          (e.total, willmore + ch_grad + ch_pot)]:
            assert np.array_equal(got, want)
        gsq = sum(g**2 for g in (old_gradient_axis(u.values, grid, ax)
                                 for ax in range(grid.dim)))
        n_hat = gr.transform_forward(pw.beta2 * gsq + pw.beta * pw.beta1 + pw.g, grid)
        mu_hat = (grid.eigenvalues_sq - (2.0 * lam - eta) * ev) * u_hat
        mu_hat += 2.0 * ev * beta_hat
        mu_hat += n_hat
        assert np.array_equal(state.mu_hat, mu_hat)
        diff = u_hat if rows is None else u_hat[0] - u_hat[1]
        live = ev > 0.0
        assert gr.dual_norm_coeffs(diff, grid) == float(
            np.sqrt(np.sum(np.abs(diff[live]) ** 2 / ev[live]) * w))

    @pytest.mark.parametrize("rows", [None, 3], ids=["field", "batch"])
    def test_imex_step_is_the_inline_formula(self, grid, rows):
        prev = State(smooth(grid, seed=6, rows=rows), PARAMS)
        cfg = SolverConfig(dt_max=1e-3)
        ev, ev2, ev3 = grid.eigenvalues, grid.eigenvalues_sq, grid.eigenvalues_cubed
        for dt in (1e-3, 1e-3, 5e-4):  # built, reused, rebuilt
            s1, s2 = stepper._stabilization(prev, cfg)
            u_hat = prev.u_hat
            r_hat = prev.mu_hat - ev2 * u_hat
            stab = s1 * ev2 + s2 * ev
            want = ((1.0 + dt * stab) * u_hat - dt * ev * r_hat) / (1.0 + dt * (ev3 + stab))
            want[(Ellipsis,) + (0,) * grid.dim] = u_hat[(Ellipsis,) + (0,) * grid.dim]
            prev = step_imex(prev, dt, cfg).state
            assert np.array_equal(prev.u_hat, want)
            assert np.array_equal(prev.u.values, gr.transform_backward(want, grid))


def test_imex_operator_is_read_only():
    grid = GRIDS[0]
    op = stepper._imex_operator(grid, 1e-3, np.asarray([2.0]), 1.0)
    for symbol in (op.explicit, op.dt_a, op.implicit):
        with pytest.raises(ValueError):
            symbol[...] = 0.0


@pytest.fixture
def builds(monkeypatch):
    """The dt of each IMEX operator built from here on."""
    made, build = [], stepper._imex_operator

    def counted(grid, dt, s1, s2):
        made.append(dt)
        return build(grid, dt, s1, s2)

    monkeypatch.setattr(stepper, "_imex_operator", counted)
    return made


def test_a_fixed_step_cdep_run_builds_one_operator_per_dt(builds):
    grid = Grid((2 * np.pi,), (128,), gr.PERIODIC)
    u01 = ScalarField(grid, 0.1 + 0.02 * np.cos(grid.axis_coords(0)))
    u02 = u01 + ScalarField(grid, 1e-3 * np.cos(3 * grid.axis_coords(0)))
    dt = 2e-3
    report = cdep_experiment(u01, u02, PotentialParams(0.0, 0.0),
                             SolverConfig(dt0=dt, dt_min=dt, dt_max=dt), t_end=0.2)
    assert len(report.times) == 101 and report.rejections == 0
    # one operator for the 99 steps of dt; the last step, which roundoff in t
    # shortens to land on t_end, builds its own
    assert len(builds) == 2 and builds[0] == dt and 0.0 < dt - builds[1] < 1e-15


def test_a_rejection_rebuilds_the_operator(builds, monkeypatch):
    # the third attempt is rejected: its retry at dt/2 and each step that grows
    # dt back to dt_max build an operator; steps at an unchanged dt reuse it
    dt, attempts = 1e-3, []

    def rejecting(prev, dt_try, cfg):
        attempts.append(dt_try)
        if len(attempts) == 3:
            raise DomainError("a rejected attempt")
        return step_imex(prev, dt_try, cfg)

    monkeypatch.setitem(stepper._STEPPERS, stepper.IMEX, rejecting)
    cfg = SolverConfig(dt0=dt, dt_min=1e-6, dt_max=dt, growth_factor=1.2)
    start = State(smooth(GRIDS[0], seed=3, amplitude=0.3), PotentialParams(0.0, 0.0))
    states = [s for _, _, _, s in islice(stepper._march(start, 1.0, cfg), 10)]
    assert attempts[:4] == [dt, dt, dt, 0.5 * dt]
    assert builds == [dt] + sorted(set(attempts[3:]))
    assert builds[-1] == dt and attempts[-2:] == [dt, dt]
    assert states[-1].imex_op is states[-2].imex_op  # reused at an unchanged dt


def test_a_changed_s1_rebuilds_the_operator(builds):
    prev = State(smooth(GRIDS[1], seed=2, amplitude=0.3), PotentialParams(0.0, 0.0))
    one = step_imex(prev, 1e-3, SolverConfig(dt_max=1e-3)).state
    assert step_imex(one, 1e-3, SolverConfig(dt_max=1e-3)).state.imex_op is one.imex_op
    assert len(builds) == 1
    step_imex(one, 1e-3, SolverConfig(s1=7.0, dt_max=1e-3))
    assert len(builds) == 2


def test_the_candidate_keeps_the_operator_only_at_dt_max(builds):
    # below dt_max the controller grows dt after the step, so nothing would reuse it
    prev = State(smooth(GRIDS[0], seed=2, amplitude=0.3), PotentialParams(0.0, 0.0))
    assert step_imex(prev, 1e-3, SolverConfig(dt_max=2e-3)).state.imex_op is None
    kept = step_imex(prev, 2e-3, SolverConfig(dt_max=2e-3)).state.imex_op
    assert kept is not None and kept.key[1] == 2e-3 and builds == [1e-3, 2e-3]


@pytest.mark.parametrize("level", [None, TruncationLevel(10)], ids=["exact", "level10"])
def test_newton_iterates_sum_no_energy(monkeypatch, level):
    # only the candidate's breakdown is read (by the step controller); the
    # iterates before it never sum theirs
    built, init = [], State.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    prev = State(smooth(GRIDS[0], seed=8, amplitude=0.8), Nonlinearity(PARAMS, level))
    monkeypatch.setattr(State, "__init__", recording)
    out = step_implicit(prev, 1e-2, SolverConfig(scheme="newton"))
    assert len(built) == out.inner_iters >= 2 and out.state is built[-1]
    assert all(s._energy is None for s in built)
    monkeypatch.undo()
    assert np.array_equal(out.state.energy.total, State(out.state.u, prev.nl).energy.total)


@pytest.mark.parametrize("first", ["apriori", "mu_hat", "energy"])
def test_the_energy_has_its_bits_in_any_read_order(first):
    # apriori releases beta_hat, so it sums the energy first when nothing has
    u = smooth(GRIDS[2], seed=9)
    want = State(u, PARAMS).energy
    state = State(u, PARAMS)
    getattr(state, first)
    state.apriori
    assert state.energy == want
