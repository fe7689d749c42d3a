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
      c1 = mean(beta'''(u)|grad u|^2 + beta'(u)^2 + beta(u)*beta''(u) + g'(u)),

  which is the Jacobian itself at a constant state.  It can cross 0 where
  c2 < 0 (a spinodal state at a large dt): an entry within
  ``_FROZEN_FLOOR`` of 0 is moved out to that distance, its sign kept.
  s1 and s2 are the IMEX scheme's alone.  Newton runs in coefficients:
  G_hat(v) = v_hat - u_hat + dt*a*mu_hat(v) has the norm of G (Parseval),
  which ``newton_tol`` bounds relative to ||u||; `lgmres` solves
  J w_hat = -G_hat, preconditioned by one division by M, the floored
  symbol, and the update is damped on values, after one backward
  transform, so that iterates stay strictly inside the admissible set
  (the separation guard).  Each iterate is evaluated once, for G and J
  alike: mu(v) and Dmu(v)w share the assembly that completes a
  `model.State`, `model._assemble`, of v_hat or w_hat and one forward
  transform of [v, beta, n] or of beta' w and the zero-order terms, so a
  matvec makes 4 r2r calls in 1D (w's backward transform and gradient,
  one forward).  G(u) is dt*a*mu_hat of the previous state, and J is
  built only at an iterate that has not converged.  Periodic grids take
  the same path in complex arithmetic: J and the real M keep vectors
  Hermitian.

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

Both steps share one set-up: they complete the State they step from (a
no-op if it is completed already) and read its u_hat and mu_hat, and the
grid's cached symbols of A, A^2 and A^3, and return a candidate `State`.
The IMEX candidate keeps the coefficients it solved for, mass mode pinned.
The Newton candidate is the iterate it converged to, with the coefficients
its last residual transformed (prev's own if G(u) converged): they equal
a transform of its values bit for bit, so the next step's G(u) matches them.
One field (leading shape ()) and a batch (`ScalarField.stack`, (k,))
take one path: IMEX steps the rows in the same array operations, with s1
from each row's sup norm, and Newton loops over the rows, since `lgmres`
solves one system; each row equals its step alone, bit for bit.
Neither scheme is provably energy stable for this energy, so one adaptive
step controller, `_march`, enforces dissipation a posteriori.  It steps
one State, so k trajectories batched into one State go in lockstep with
one shared dt: a trial step is rejected and retried with half the step
size when any row's energy rises by more than ``energy_tol`` or any row
leaves the admissible set, and a rejection at dt_min raises
StepFloorError.  `advance` runs it on one trajectory and
`diagnostics.cdep_experiment` on a pair.  An accepted candidate is
completed once, when first needed (by the ledger row or by the next
step), so the state it supersedes is already released.  Admissible
constant states are exact fixed points of both schemes.  A single
controller run is sequential and owns its workspace; independent runs
may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import grid as gr
from .errors import DomainError, GuardViolation, NewtonDivergence, StepFloorError
from .grid import ScalarField
from .model import State, _assemble, _nonlinear
from .potential import Nonlinearity

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
        if self.scheme not in (IMEX, NEWTON):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.growth_factor <= 1.0:
            raise ValueError("growth_factor must exceed 1")
        if not 0.0 < self.guard_eps < 0.5:
            raise ValueError("guard_eps must lie in (0, 0.5)")
        if self.energy_tol < 0 or self.newton_tol <= 0 or self.newton_max_iters < 1:
            raise ValueError("invalid tolerance settings")


@dataclass(frozen=True)
class StepResult:
    state: State  # the candidate, evaluated but not completed
    inner_iters: int


def _zero_order(pw, gsq):
    """beta'''|grad v|^2 + beta'^2 + beta*beta'' + g', the zero-order coefficient of Dmu(v)."""
    return pw.beta3 * gsq + pw.beta1**2 + pw.beta * pw.beta2 + pw.g1


def _frozen_symbol(nl: Nonlinearity, sym, dt: float, beta1: np.ndarray,
                   zero_order: np.ndarray) -> np.ndarray:
    """1 + dt*(a^3 + c2*a^2 + c1*a), the symbol of J = 1 + dt*A*Dmu(v) with v's
    coefficients frozen at their grid means: c2 = 2*mean beta'(v) - (2*lam - eta)
    and c1 = mean zero_order.  At a constant v it is the Jacobian itself.  An
    entry within `_FROZEN_FLOOR` of 0 is moved out to that distance, sign kept.
    """
    p = nl.params
    c2 = 2.0 * beta1.mean() - (2.0 * p.lam - p.eta)
    c1 = zero_order.mean()
    symbol = 1.0 + dt * (sym.cubed + c2 * sym.squared + c1 * sym.eigenvalues)
    return np.copysign(np.maximum(np.abs(symbol), _FROZEN_FLOOR), symbol)


def _setup(prev: State, dt: float):
    """The frame of both steps: checks dt, completes prev and returns A's symbol."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    prev.complete()
    return prev.u.grid.symbol()


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


def step_imex(prev: State, dt: float, cfg: SolverConfig) -> StepResult:
    """One stabilized IMEX step from the State prev (one field or a batch)."""
    sym = _setup(prev, dt)
    s1, s2 = _stabilization(prev, cfg)
    grid, ev, u_hat = prev.u.grid, sym.eigenvalues, prev.u_hat
    # R_hat = mu_hat - a^2 u_hat isolates everything but the bilaplacian.
    r_hat = prev.mu_hat - sym.squared * u_hat
    stab = s1 * sym.squared + s2 * ev
    new_hat = ((1.0 + dt * stab) * u_hat - dt * ev * r_hat) / (1.0 + dt * (sym.cubed + stab))
    mass = (Ellipsis,) + (0,) * grid.dim
    new_hat[mass] = u_hat[mass]
    u_new = gr.transform_backward(new_hat, grid)
    # a spectral fixed point (e.g. a constant) keeps its values bit-identical, row by row
    fixed = (new_hat == u_hat).all(axis=tuple(range(-grid.dim, 0)))
    if fixed.any():
        u_new[fixed] = prev.u.values[fixed]
    return StepResult(State(ScalarField(grid, u_new, prev.u.batch), prev.nl, new_hat), 1)


def step_implicit(prev: State, dt: float, cfg: SolverConfig) -> StepResult:
    """One damped Newton--Krylov step from the State prev (one field or a batch).

    Each row is solved on its own, since `lgmres` solves one system; the
    candidate's inner iterations are the most any row took.
    """
    sym = _setup(prev, dt)
    nl, grid, ev = prev.nl, prev.u.grid, sym.eigenvalues
    bound = (1.0 if nl.level is None else nl.level.clamp_bound) - cfg.guard_eps
    if np.abs(prev.u.values).max() > bound:
        raise GuardViolation("initial state already violates the separation guard")

    n_dof, dtype = math.prod(grid.shape), prev.u_hat.dtype

    def evaluate(v_vals: np.ndarray):
        """Iterate v, its pointwise pass and its gradients: what G(v) and J(v) read."""
        v = ScalarField(grid, v_vals).values  # an iterate: checked
        pw = nl.pointwise(v, jacobian=True)
        grads = gr.gradients(v, grid)
        return v, pw, grads, sum(g**2 for g in grads)  # as grad_norm_sq sums it

    def jacobian(pw, grads, zero_order) -> LinearOperator:
        """J w_hat = w_hat + dt*ev*(Dmu(v) w)_hat, the analytic Frechet derivative of G at v."""
        beta1, beta2 = pw.beta1, pw.beta2

        def jac_vec(w_hat: np.ndarray) -> np.ndarray:
            w_hat = w_hat.reshape(grid.shape)
            w = gr.transform_backward(w_hat, grid)
            grad_dot = sum(g * gw for g, gw in zip(grads, gr.gradients(w, grid)))
            # Dmu(v) w is mu's assembly of w, beta' w and the zero-order terms
            rows = np.stack([beta1 * w, 2.0 * beta2 * grad_dot + zero_order * w])
            dmu_hat = _assemble(nl, grid, w_hat, *gr.transform_forward(rows, grid))
            return (w_hat + dt * ev * dmu_hat).ravel()

        return LinearOperator((n_dof, n_dof), matvec=jac_vec, dtype=dtype)

    def newton(u_vals: np.ndarray, u_hat: np.ndarray, mu_hat: np.ndarray):
        """Damped Newton from u to G(v) = 0; the converged v, its coefficients, the iterations."""
        v_vals, v_hat = u_vals, u_hat
        g_hat, terms, M = dt * ev * mu_hat, None, None  # G(u) from the completed prev
        tol = cfg.newton_tol * (float(np.linalg.norm(u_vals)) * np.sqrt(grid.cell_volume))
        iters = 0
        while True:
            res = float(np.linalg.norm(g_hat)) * np.sqrt(grid.cell_volume)  # Parseval
            if res <= tol:
                return v_vals, v_hat, iters
            if iters >= cfg.newton_max_iters:
                raise NewtonDivergence(
                    f"no convergence in {cfg.newton_max_iters} iterations (residual {res:.3e})")
            iters += 1
            terms = terms or evaluate(v_vals)  # u's pass is made only if u is not converged
            _, pw, grads, gsq = terms
            zero_order = _zero_order(pw, gsq)
            if M is None:  # at u: one preconditioner per row and step
                M = _frozen_symbol(nl, sym, dt, pw.beta1, zero_order).ravel()
            delta_hat, _ = lgmres(jacobian(pw, grads, zero_order), -g_hat.ravel(), M=M, rtol=1e-4)
            delta = gr.transform_backward(delta_hat.reshape(grid.shape), grid)

            # damp the update so the iterate keeps the separation guard; |v| <= bound
            # already (the entry guard, the clip), so only a nonzero entry of delta pushes
            theta = 1.0
            pushing = np.abs(v_vals + delta) > bound
            if pushing.any():
                room = bound - np.abs(v_vals[pushing])
                theta = min(1.0, 0.95 * float(np.min(room / np.abs(delta[pushing]))))
            if theta < 1e-8:
                raise GuardViolation("damping cannot keep the Newton iterate admissible")
            v_vals = v_vals + theta * delta
            np.clip(v_vals, -bound, bound, out=v_vals)
            v, pw, _, gsq = terms = evaluate(v_vals)
            rows = np.stack([v, pw.beta, _nonlinear(pw, gsq)[-1]])
            v_hat, b_hat, n_hat = gr.transform_forward(rows, grid)
            g_hat = v_hat - u_hat + dt * ev * _assemble(nl, grid, v_hat, b_hat, n_hat)

    u_vals = prev.u.values
    v_vals, v_hat, iters = np.empty_like(u_vals), np.empty_like(prev.u_hat), 1
    for row in np.ndindex(u_vals.shape[:-grid.dim]):  # () for one field
        v_vals[row], v_hat[row], row_iters = newton(u_vals[row], prev.u_hat[row], prev.mu_hat[row])
        iters = max(iters, row_iters)
    return StepResult(State(ScalarField(grid, v_vals, prev.u.batch), nl, v_hat), iters)


_STEPPERS: dict[str, Callable] = {IMEX: step_imex, NEWTON: step_implicit}


def _march(state: State, t_end: float, cfg: SolverConfig):
    """Step a State to t_end; the rows of a batch go in lockstep with one dt.

    A trial step is rejected, and dt halved, when any row's energy rises
    by more than ``energy_tol`` or the step leaves the admissible set
    (DomainError / guard errors in exact mode).  Rejection at dt_min raises
    StepFloorError.  dt grows by ``growth_factor`` up to dt_max after an
    accepted step whose inner solves were all fast.  After each accepted
    step ``(t, dt, rejections, state)`` is yielded, with the rejections
    since the previous accepted step.  The accepted State is completed by
    the next step, or earlier by a consumer that reads mu (`State.complete`,
    as the ledger does), so the state it supersedes, which nothing holds
    any more, is released before the completion allocates.
    """
    step_fn = _STEPPERS[cfg.scheme]  # looked up per run, so a swapped-in wrapper takes effect
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
    accepted state, including the initial one, with the rejections that
    preceded it.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if max_steps is not None and max_steps < 1:
        raise ValueError("max_steps must be at least 1")  # the limit is read after a step
    state = State(u0, p).complete()
    if ledger is not None:
        ledger.record(state, 0.0, 0.0, rejections=0)
    steps = 0
    for t, dt, rejections, state in _march(state, t_end, cfg):
        steps += 1
        if ledger is not None:
            ledger.record(state, t, dt, rejections=rejections)
        if max_steps is not None and steps >= max_steps:
            break
    return state.u
