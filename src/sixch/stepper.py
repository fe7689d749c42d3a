"""Time integration of the conserved flow du/dt = lap(mu).

Two first-order integrators are provided:

* ``imex`` — per spectral mode, with a = eigenvalue of A and
  R(u) = mu(u) - lap^2 u (every term of the UOM1 form except the
  bilaplacian), the update solves

      (1 + dt*(a^3 + s1*a^2 + s2*a)) u_hat_new
          = (1 + dt*(s1*a^2 + s2*a)) u_hat - dt*a*R_hat(u).

  The stabilization constants s1, s2 majorize the frozen coefficients of
  the -2*lap(beta(u)) and (2*lam-eta)*lap(u) terms; the mass mode a = 0 is
  copied over exactly.

* ``newton`` — damped inexact Newton on G(v) = v - u + dt*A*mu(v), with
  the analytic Frechet derivative of mu as Jacobian action, Krylov inner
  solves preconditioned by the Jacobian's frozen-coefficient symbol at the
  step's start state u (`_frozen_symbol`),

      1 + dt*(a^3 + c2*a^2 + c1*a),   c2 = 2*mean beta'(u) - (2*lam - eta),

  c1 the mean of Dmu(u)'s zero-order coefficient (`State.frozen`), which
  is the Jacobian itself at a constant state.  It can cross 0 where c2 < 0
  (a spinodal state at a large dt): an entry within ``_FROZEN_FLOOR`` of 0
  is moved out to that distance, its sign kept.  s1 and s2 are the IMEX
  scheme's alone.  Newton runs in coefficients:
  G_hat(v) = v_hat - u_hat + dt*a*mu_hat(v) has the norm of G (Parseval),
  which ``newton_tol`` bounds relative to ||u||; `lgmres` solves
  J w_hat = -G_hat, preconditioned by one division by M, the floored
  symbol, and the update is damped on values, after one backward
  transform, so that iterates stay strictly inside the admissible set
  (the separation guard).  Each iterate is a `model.State` whose assembly
  keeps the coefficients of Dmu, so it is evaluated once, for G and J alike:
  G reads its mu_hat and J w_hat = w_hat + dt*a*`State.dmu_hat`(w_hat),
  4 r2r calls in 1D; the stepper only composes G, J and M.  G(u) is
  dt*a*mu_hat of the previous state, and J is built only at an iterate
  that has not converged.  Periodic grids take the same path in complex
  arithmetic: J and the real M keep vectors Hermitian.

  `lgmres` is left-preconditioned GMRES in numpy, one cycle of at most
  30 Arnoldi steps from w_hat = 0, stopped at ||(b - J w_hat)/M|| <=
  1e-4*||b/M||: the Krylov space and stopping test of scipy's lgmres's
  first cycle, without its matvec at 0, its true-residual matvec and its
  restart, so a Newton iteration makes about 2 Jacobian matvecs, and
  Newton's own residual G decides.  It keeps the name `lgmres`, under
  which the benchmark's tracer counts its matvecs.

A step takes a `model.State` and reads its nonlinearity, `State.nl`,
whose level is the one setting of the truncated mode: it fixes the
evaluators, the default s1 and the Newton guard bound, and the candidate
carries the same `nl`, so the energy test compares one functional.
`advance` and the experiments build the first State from a field and a
`PotentialParams` or `Nonlinearity`; nothing below them takes either.

Both steps share one set-up, the dt check.  They read the u_hat and
mu_hat of the State they step from (reading mu_hat assembles it, if
nothing has) and the symbols of A, A^2 and A^3 its grid holds, and
return a candidate `State`.
The IMEX candidate keeps the coefficients it solved for, mass mode pinned.
The IMEX step's own symbols, its operator, are built once per (grid, dt,
s1, s2): a candidate made at dt_max keeps them for the next step, so a
fixed-step run builds them once.  Newton takes dt*a once per step.
The Newton candidate is its last iterate, Jacobian terms kept (prev itself
if G(u) converged), so the next step's G(u), J and M read what it computed.
One field (leading shape ()) and a batch (`ScalarField.stack`, (k,))
take one path: IMEX steps the rows in the same array operations, with s1
from each row's sup norm, and Newton iterates the rows in lockstep, each
moved by its own Krylov solve and damping until it converges, since
`lgmres` solves one system; each row equals its step alone, bit for bit.
Neither scheme is provably energy stable for this energy, so one adaptive
step controller, `_march`, enforces dissipation a posteriori.  It steps
one State, so k trajectories batched into one State go in lockstep with
one shared dt: a trial step is rejected and retried with half the step
size when any row's energy rises by more than ``energy_tol`` or any row
leaves the admissible set, and a rejection at dt_min raises
StepFloorError.  `advance` runs it on one trajectory, the diagnostics'
`cdep_experiment` on a pair and `dispersion_experiment` on each mode at
one fixed dt, each from one start State that `_march` yields first.  An
accepted IMEX candidate's mu_hat is assembled once, when first read (by
the ledger row or by the next step), so the state it supersedes is
already released.  Admissible constant states are exact
fixed points of both schemes.  A single controller run is sequential
and owns its workspace; independent runs may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import grid as gr
from .errors import DomainError, GuardViolation, NewtonDivergence, StepFloorError
from .grid import ScalarField
from .model import State

IMEX = "imex"
NEWTON = "newton"

_FAST_ITERS = 4  # inner iterations counted as "fast" for step growth
# `_frozen_symbol` moves an entry within this of 0 (the symbol can cross 0
# where c2 < 0) out to it, sign kept, so that M, the floored symbol that
# Newton's Krylov solves divide by, amplifies no mode more than 1000 times.
# A negative entry away from 0 is kept, since GMRES needs no definite
# preconditioner; about 2 Jacobian matvecs then meet `lgmres`'s rtol per
# Newton iteration.
_FROZEN_FLOOR = 1e-3
_INNER_M = 30  # most Arnoldi steps of one Krylov solve (scipy lgmres's inner_m)


class LinearOperator(NamedTuple):
    """A square operator as `lgmres` reads it: its shape, x -> A x, and dtype."""

    shape: tuple
    matvec: Callable
    dtype: np.dtype


def lgmres(A, b, M, rtol):
    """Left-preconditioned GMRES from x = 0 to ||(b - A x)/M|| <= rtol*||b/M||.

    The Krylov space and stopping test of the first cycle of scipy's lgmres,
    without its matvec at x = 0, its true-residual matvec or a restart: at
    most `_INNER_M` Arnoldi steps (modified Gram-Schmidt), Givens rotations
    for the residual at each step and one back-substitution for x.  A step
    whose new direction is h <= eps*||w|| (breakdown) ends the solve.  Of A
    only A.matvec, A.shape and A.dtype are read; M is an array of b's shape
    that each preconditioned vector is divided by.  Complex vectors take the
    same path.  Returns (x, info): info is 0 if the test is met, else the steps
    taken, and x the minimal-residual iterate.
    """
    n, dtype = A.shape[0], A.dtype
    r = b / M
    beta = np.linalg.norm(r)
    if beta == 0.0:
        return np.zeros(n, dtype), 0
    eps = np.finfo(dtype).eps
    V = np.empty((_INNER_M + 1, n), dtype)  # the Krylov basis, one row each
    R = np.zeros((_INNER_M, _INNER_M), dtype)  # the Hessenberg matrix, rotated
    rotations, g = [], [beta]  # g: the rotated beta*e_1
    V[0] = r / beta
    for j in range(_INNER_M):
        w = V[j + 1]
        np.divide(A.matvec(V[j]), M, out=w)
        w_norm = np.linalg.norm(w)
        col = []  # column j of the Hessenberg matrix, by modified Gram-Schmidt
        for v in V[: j + 1]:
            col.append(np.vdot(v, w))
            w -= col[-1] * v
        h = np.linalg.norm(w)
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = (c * col[i] + s * col[i + 1],
                                  c * col[i + 1] - s.conjugate() * col[i])
        a = col[j]  # the rotation [[c, s], [-conj(s), c]] takes (a, h) to (col[j], 0)
        if a == 0:
            c, s, col[j] = 0.0, 1.0, h
        else:
            d = math.hypot(abs(a), h)
            c, s, col[j] = abs(a) / d, a / abs(a) * (h / d), a / abs(a) * d
        rotations.append((c, s))
        R[: j + 1, j] = col
        g.append(-s.conjugate() * g[j])
        g[j] = c * g[j]
        converged = abs(g[j + 1]) <= rtol * beta
        if converged or not h > eps * w_norm:
            break
        w /= h
    k = j + 1 if R[j, j] != 0 else j  # a zero pivot (J M singular): column j adds nothing
    y = np.zeros(k, dtype)
    for i in reversed(range(k)):
        y[i] = (g[i] - R[i, i + 1:k] @ y[i + 1:]) / R[i, i]
    return y @ V[:k], 0 if converged else j + 1


@dataclass(frozen=True)
class SolverConfig:
    scheme: str = IMEX
    dt0: float = 1e-3
    dt_min: float = 1e-9
    dt_max: float = 1e-1
    s1: Optional[float] = None  # IMEX only; None -> stabilization defaults
    s2: Optional[float] = None  # IMEX only
    energy_tol: float = 1e-10
    growth_factor: float = 1.2
    newton_tol: float = 1e-9
    newton_max_iters: int = 25
    guard_eps: float = 1e-3

    def __post_init__(self):
        if not (0 < self.dt_min <= self.dt0 <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt0 <= dt_max")
        if self.scheme not in _STEPPERS:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not self.growth_factor > 1.0:  # NaN too
            raise ValueError("growth_factor must exceed 1")
        if not 0.0 < self.guard_eps < 0.5:
            raise ValueError("guard_eps must lie in (0, 0.5)")
        if not (0.0 <= self.energy_tol < math.inf and 0.0 < self.newton_tol < math.inf
                and self.newton_max_iters >= 1):  # NaN and inf too: inf accepts any step
            raise ValueError("invalid tolerance settings")
        if any(s is not None and not 0.0 <= s < math.inf for s in (self.s1, self.s2)):
            raise ValueError("s1 and s2 must be finite and >= 0")


@dataclass(frozen=True)
class StepResult:
    state: State  # the candidate, evaluated (and assembled, if Newton's)
    inner_iters: int


def _frozen_symbol(grid: gr.Grid, dt: float, c2: float, c1: float) -> np.ndarray:
    """1 + dt*(a^3 + c2*a^2 + c1*a), the symbol of J = 1 + dt*A*Dmu(v) with v's
    coefficients frozen at their grid means (`State.frozen`), the Jacobian itself at
    a constant v.  An entry within `_FROZEN_FLOOR` of 0 is moved out to it, sign kept.
    """
    symbol = 1.0 + dt * (grid.eigenvalues_cubed + c2 * grid.eigenvalues_sq + c1 * grid.eigenvalues)
    return np.copysign(np.maximum(np.abs(symbol), _FROZEN_FLOOR), symbol)


def _setup(prev: State, dt: float) -> gr.Grid:
    """The frame of both steps: checks dt and returns prev's grid."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return prev.u.grid


def _guard_bound(state: State, cfg: SolverConfig) -> float:
    """Newton's separation guard |v| <= bound; GuardViolation if the state breaks it."""
    bound = (1.0 if state.nl.level is None else state.nl.level.clamp_bound) - cfg.guard_eps
    if np.abs(state.u.values).max() > bound:
        raise GuardViolation("initial state already violates the separation guard")
    return bound


def _stabilization(prev: State, cfg: SolverConfig):
    """IMEX's s1 and s2, majorizing the explicit frozen coefficients of prev.nl.

    s1 = max of 2*beta'(r) = 2/(1-r^2) over |r| <= b and s2 = |2*lam - eta|,
    unless cfg sets them.  In truncated mode, nl.level = n, b = 1 - 1/n is an
    exact bound.  In exact mode the open interval is unbounded, so b is the
    midpoint of each row's sup norm and 1 (states drift toward the binodal,
    never quite reaching it), clipped to [0.9, 1 - 1e-6], and the
    energy-rejection backstop covers the rest.  s1 has one entry per row and
    a 1 per grid axis to broadcast over them; s2 is shared.
    """
    nl, grid = prev.nl, prev.u.grid
    s1 = cfg.s1
    if s1 is None:
        if nl.level is not None:
            b = nl.level.clamp_bound
        else:
            vals = prev.u.values
            sup = np.abs(vals).reshape(*vals.shape[:-grid.dim], -1).max(axis=-1)
            b = np.maximum(np.minimum(0.5 * (1.0 + sup), 1.0 - 1e-6), 0.9)
        s1 = 2.0 / ((1.0 - b) * (1.0 + b))
    s2 = abs(2.0 * nl.params.lam - nl.params.eta) if cfg.s2 is None else cfg.s2
    return np.asarray(s1)[(...,) + (None,) * grid.dim], s2


class _ImexOperator(NamedTuple):
    """The symbols of one IMEX step, read-only, and the key of the (grid, dt, s1,
    s2) they are built for: 1 + dt*(s1*a^2 + s2*a), dt*a and 1 + dt*(a^3 + s1*a^2 + s2*a)."""

    key: tuple
    explicit: np.ndarray
    dt_a: np.ndarray
    implicit: np.ndarray

    def solve(self, u_hat: np.ndarray, r_hat: np.ndarray) -> np.ndarray:
        """(explicit*u_hat - dt*a*r_hat) / implicit, in place, in the formula's order."""
        new_hat = self.explicit * u_hat
        new_hat -= self.dt_a * r_hat
        new_hat /= self.implicit
        return new_hat


def _imex_key(grid: gr.Grid, dt: float, s1: np.ndarray, s2: float) -> tuple:
    """What an IMEX operator is built from, s1 (one entry per row) by its bits."""
    return grid, dt, s1.shape, s1.tobytes(), s2


def _imex_operator(grid: gr.Grid, dt: float, s1: np.ndarray, s2: float) -> _ImexOperator:
    """The operator of an IMEX step of dt with the stabilization s1, s2 on grid."""
    ev, ev2 = grid.eigenvalues, grid.eigenvalues_sq
    stab = s1 * ev2 + s2 * ev
    symbols = 1.0 + dt * stab, dt * ev, 1.0 + dt * (grid.eigenvalues_cubed + stab)
    for symbol in symbols:
        symbol.flags.writeable = False
    return _ImexOperator(_imex_key(grid, dt, s1, s2), *symbols)


def step_imex(prev: State, dt: float, cfg: SolverConfig) -> StepResult:
    """One stabilized IMEX step from the State prev (one field or a batch).

    The step's operator is prev's ``imex_op`` when it was built for the same
    grid, dt, s1 and s2, else built (`_imex_operator`).  The candidate keeps
    it only when dt is cfg.dt_max: each accepted IMEX step grows dt, so
    dt_max is the one step size the step controller repeats.
    """
    grid = _setup(prev, dt)
    s1, s2 = _stabilization(prev, cfg)
    op = prev.imex_op
    if op is None or op.key != _imex_key(grid, dt, s1, s2):
        op = _imex_operator(grid, dt, s1, s2)
    u_hat = prev.u_hat
    # R_hat = mu_hat - a^2 u_hat isolates everything but the bilaplacian.
    new_hat = op.solve(u_hat, prev.mu_hat - grid.eigenvalues_sq * u_hat)
    if dt != cfg.dt_max:
        op = None  # not kept: released before the candidate's evaluation allocates
    mass = (Ellipsis,) + (0,) * grid.dim
    new_hat[mass] = u_hat[mass]
    u_new = gr.transform_backward(new_hat, grid)
    # a spectral fixed point (e.g. a constant) keeps its values bit-identical, row by row
    fixed = (new_hat == u_hat).all(axis=tuple(range(-grid.dim, 0)))
    if fixed.any():
        u_new[fixed] = prev.u.values[fixed]
    candidate = State(ScalarField(grid, u_new, prev.u.batch), prev.nl, new_hat)
    candidate.imex_op = op
    return StepResult(candidate, 1)


def step_implicit(prev: State, dt: float, cfg: SolverConfig) -> StepResult:
    """One damped Newton--Krylov step from the State prev (one field or a batch).

    The iterates are States whose rows go in lockstep, each moved by its own
    Krylov solve until it converges; the candidate is the last (prev if G(u)
    converged), with the most inner iterations any row took.
    """
    grid = _setup(prev, dt)
    nl, bound = prev.nl, _guard_bound(prev, cfg)
    dt_ev = dt * grid.eigenvalues

    n_dof, dtype = math.prod(grid.shape), prev.u_hat.dtype

    def jac_vec(v: State, row, w_hat: np.ndarray) -> np.ndarray:
        """J w_hat = w_hat + dt*ev*(Dmu(v) w)_hat, the analytic Frechet derivative of G at v."""
        w_hat = w_hat.reshape(grid.shape)
        return (w_hat + dt_ev * v.dmu_hat(w_hat, row)).ravel()

    scale = np.sqrt(grid.cell_volume)  # Parseval: ||G|| from its coefficients
    moving = list(np.ndindex(prev.u.values.shape[:-grid.dim]))  # [()] for one field
    tol = {row: cfg.newton_tol * (float(np.linalg.norm(prev.u.values[row])) * scale)
           for row in moving}
    state, g_hat, iters = prev, dt_ev * prev.mu_hat, 0  # G(u) from prev's mu_hat
    while True:
        res = {row: float(np.linalg.norm(g_hat[row])) * scale for row in moving}
        moving = [row for row in moving if res[row] > tol[row]]
        if not moving:
            return StepResult(state, max(iters, 1))
        if iters >= cfg.newton_max_iters:
            raise NewtonDivergence(f"no convergence in {cfg.newton_max_iters} iterations "
                                   f"(residual {res[moving[0]]:.3e})")
        iters += 1
        if state is prev:  # at u (linearized only if not converged): one M per row and step
            M = {row: _frozen_symbol(grid, dt, *prev.frozen(row)).ravel() for row in moving}
        v = state.u.values.copy()
        for row in moving:
            J = LinearOperator((n_dof, n_dof), matvec=partial(jac_vec, state, row), dtype=dtype)
            delta_hat, _ = lgmres(J, -g_hat[row].ravel(), M=M[row], rtol=1e-4)
            delta = gr.transform_backward(delta_hat.reshape(grid.shape), grid)

            # damp the update so the iterate keeps the separation guard; |v| <= bound
            # already (the entry guard, the clip), so only a nonzero entry of delta pushes
            theta = 1.0
            pushing = np.abs(v[row] + delta) > bound
            if pushing.any():
                room = bound - np.abs(v[row][pushing])
                theta = min(1.0, 0.95 * float(np.min(room / np.abs(delta[pushing]))))
            if theta < 1e-8:
                raise GuardViolation("damping cannot keep the Newton iterate admissible")
            v[row] = np.clip(v[row] + theta * delta, -bound, bound)
        state = State(ScalarField(grid, v, prev.u.batch), nl, jacobian=True)
        g_hat = state.u_hat - prev.u_hat + dt_ev * state.mu_hat


_STEPPERS: dict[str, Callable] = {IMEX: step_imex, NEWTON: step_implicit}


def _march(state: State, t_end: float, cfg: SolverConfig):
    """Step a State to t_end; the rows of a batch go in lockstep with one dt.

    A trial step is rejected, and dt halved, when any row's energy rises
    by more than ``energy_tol`` or the step leaves the admissible set
    (DomainError / guard errors in exact mode).  Rejection at dt_min raises
    StepFloorError.  A Newton run whose start state breaks the separation
    guard raises GuardViolation before the first attempt: no dt mends it.
    dt grows by ``growth_factor`` up to dt_max after an accepted step
    whose inner solves were all fast.  ``(0.0, 0.0, 0, state)`` is yielded
    first, the start as given, before any attempt and before Newton's guard
    check, and ``(t, dt, rejections, state)`` after each accepted step, with
    the rejections since the previous accepted state.  An accepted IMEX
    State's mu_hat is assembled by the next step, or earlier by a consumer
    that reads it (as the ledger does), so the state it supersedes, which
    nothing holds any more, is released before the assembly allocates.
    """
    yield 0.0, 0.0, 0, state
    step_fn = _STEPPERS[cfg.scheme]  # looked up per run, so a swapped-in wrapper takes effect
    if cfg.scheme == NEWTON:  # its iterates are clipped to the guard: only the start can break it
        _guard_bound(state, cfg)
    t = 0.0
    dt = min(cfg.dt0, t_end)
    rejections = 0
    while t < t_end - 1e-14 * t_end:
        dt_try = min(dt, t_end - t)
        try:
            result = step_fn(state, dt_try, cfg)
            ok = (result.state.energy.total <= state.energy.total + cfg.energy_tol).all()
        except (DomainError, GuardViolation, NewtonDivergence):
            ok = False
        if not ok:
            if dt_try <= cfg.dt_min * (1.0 + 1e-12):
                raise StepFloorError(
                    f"step rejected at dt_min={cfg.dt_min:g} (t={t:.6g}); "
                    "energy dissipation or admissibility cannot be maintained")
            dt = max(cfg.dt_min, 0.5 * dt_try)
            rejections += 1
            continue

        state = result.state
        t += dt_try
        yield t, dt_try, rejections, state
        rejections = 0
        if result.inner_iters <= _FAST_ITERS:
            dt = min(cfg.dt_max, dt_try * cfg.growth_factor)
        else:
            dt = dt_try


def advance(u0: ScalarField, t_end: float, p, cfg: SolverConfig,
            ledger=None, max_steps: Optional[int] = None) -> ScalarField:
    """March from u0 to t_end (or max_steps accepted steps) adaptively.

    p, PotentialParams or a Nonlinearity, is the nonlinearity of the State
    built from u0, which every step and ledger row then reads.

    The step controller `_march` steps the one trajectory, so an energy
    rise or a loss of admissibility halves dt, and a rejection at dt_min
    raises StepFloorError.  If a ledger is given, one row is recorded per
    state `_march` yields, the initial one first, with the rejections that
    preceded it.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if max_steps is not None and max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    for steps, (t, dt, rejections, state) in enumerate(_march(State(u0, p), t_end, cfg)):
        if ledger is not None:
            ledger.record(state, t, dt, rejections=rejections)
        if max_steps is not None and steps >= max_steps:
            break
    return state.u
