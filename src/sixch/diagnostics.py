"""Run ledger and the paper-level numerical experiments.

The ledger stores one row per accepted state with the energy breakdown,
mass, extrema, separation margin delta = 1 - ||u||_inf, the dissipation
rate ||grad mu||^2 and the a-priori diagnostic norms.  On top of it sit
the three experiments: the energy identity residual, the continuous
dependence envelope in the dual norm, and truncation-level convergence.
"""

from __future__ import annotations

import csv
from collections import namedtuple
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from . import grid as gr
from .errors import MeanMismatch, RangeError, ShapeError
from .grid import ScalarField
from .model import State, dispersion_sigma
from .potential import Nonlinearity, PotentialParams, TruncationLevel
from .stepper import SolverConfig, _march, advance

CSV_COLUMNS = ["t", "dt", "mass", "E_total", "E_willmore", "E_ch_grad", "E_ch_pot",
               "grad_mu_sq", "min_u", "max_u", "delta_sep", "beta_l2", "grad_beta_l2",
               "betabp_l1", "M_int", "N_int", "mu_mean", "rejections"]


# One row per accepted state: its CSV row, in CSV_COLUMNS order, of Python
# floats (whose str is their repr) and the int rejections.
LedgerRow = namedtuple("LedgerRow", CSV_COLUMNS)


class RunLedger:
    """Single-writer time series of per-state diagnostics."""

    def __init__(self):
        self.rows: list[LedgerRow] = []
        self.dim: Optional[int] = None  # the grid dimension of the first recorded state
        self.on_record = None  # optional hook(u, row, index), e.g. for snapshots

    def record(self, state: State, t: float, dt: float, rejections: int = 0) -> LedgerRow:
        """Append the row of an accepted State of one field at time t.

        The state is completed here if it is not yet; its columns are read
        as they are, with its own nonlinearity.  A row is one field's: a
        batched State raises ShapeError.
        """
        if state.u.batch:
            raise ShapeError(f"a ledger row is one field's, not a batch of {len(state.u.values)}")
        u = state.complete().u
        if self.dim is None:
            self.dim = u.grid.dim
        min_u, max_u = u.values.min(), u.values.max()
        e, a = state.energy, state.apriori
        row = LedgerRow(*map(float, (
            t, dt, gr.mean(u), e.total, e.willmore, e.ch_grad, e.ch_pot, state.grad_mu_sq,
            min_u, max_u, 1.0 - max(abs(min_u), abs(max_u)), a.beta_l2, a.grad_beta_l2,
            a.beta_betaprime_l1, a.m_integral, a.n_integral, a.mu_mean)), int(rejections))
        if self.rows and row.t <= self.rows[-1].t:
            raise RangeError("ledger times must be strictly increasing")
        self.rows.append(row)
        if self.on_record is not None:
            self.on_record(u, row, len(self.rows) - 1)
        return row

    # -- column access -----------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        idx = CSV_COLUMNS.index(name)  # not getattr: index and count are tuple methods
        return np.array([r[idx] for r in self.rows])

    @property
    def times(self) -> np.ndarray:
        return self.column("t")

    # -- serialization -------------------------------------------------------

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(self.rows)


def energy_identity_residual(ledger: RunLedger, t1: float, t2: float) -> float:
    """| E(t2) - E(t1) + sum dt * ||grad mu||^2 | over the window [t1, t2].

    The sum is the left-rectangle quadrature of the dissipation integral
    along recorded states; it vanishes identically on constant-state runs
    and is first order in dt otherwise.
    """
    if not ledger.rows:
        raise RangeError("empty ledger")
    times = ledger.times
    if t1 >= t2:
        raise RangeError("need t1 < t2")
    eps = 1e-12 * max(1.0, abs(t2))
    if t1 < times[0] - eps or t2 > times[-1] + eps:
        raise RangeError(f"window [{t1}, {t2}] outside ledger range "
                         f"[{times[0]}, {times[-1]}]")
    idx = np.where((times >= t1 - eps) & (times <= t2 + eps))[0]
    if idx.size < 2:
        raise RangeError("window contains fewer than two recorded states")
    rows = [ledger.rows[i] for i in idx]
    dissipated = sum((b.t - a.t) * a.grad_mu_sq for a, b in zip(rows[:-1], rows[1:]))
    return abs(rows[-1].E_total - rows[0].E_total + dissipated)


# ---------------------------------------------------------------------------
# continuous dependence


@dataclass(frozen=True)
class CdepReport:
    times: np.ndarray
    dual_distance: np.ndarray
    fitted_C: float
    envelope_ok: bool
    identical_inputs: bool = False
    rejections: int = 0  # paired steps rejected on the way, summed over the run


def cdep_experiment(u01: ScalarField, u02: ScalarField, p, cfg: SolverConfig,
                    t_end: float) -> CdepReport:
    """Track ||u1 - u2||_{V0'} along paired trajectories and fit the envelope.

    The pair is one batched `State` of two rows, which the step controller
    `_march` steps in lockstep with one shared dt, so each step evaluates
    both trajectories in the same array operations and distances are
    sampled at common times; a step is rejected when either trajectory's
    energy rises or leaves the admissible set, and a rejection at dt_min
    raises StepFloorError; the report counts the rejected steps.  Each
    distance is read from the difference of the two rows' coefficients
    with the mass mode left out, so the roundoff mean of u1 - u2 cannot
    trip the zero-mean precondition of the dual norm.  C is fitted by
    least squares on log d^2(t), excluding the startup window t < 5*dt0;
    envelope_ok checks d^2(t) <= d^2(0) * exp(C t) with one percent slack
    on the rate.

    p, PotentialParams or a Nonlinearity, is stepped as given: a level on
    it steps the truncated mode.
    """
    if abs(gr.mean(u01) - gr.mean(u02)) > 1e-12:
        raise MeanMismatch(
            f"means differ by {abs(gr.mean(u01) - gr.mean(u02)):.3e} (> 1e-12)")
    identical = bool(np.array_equal(u01.values, u02.values))

    def distance(pair: State) -> float:
        return gr.dual_norm_coeffs(pair.u_hat[0] - pair.u_hat[1], pair.u.grid)

    pair = State(ScalarField.stack([u01, u02]), p).complete()
    times = [0.0]
    dist = [distance(pair)]
    rejections = 0
    for t, _, rejected, pair in _march(pair, t_end, cfg):
        times.append(t)
        dist.append(distance(pair))
        rejections += rejected

    times_arr = np.array(times)
    dist_arr = np.array(dist)
    if identical:
        return CdepReport(times_arr, dist_arr, 0.0, True, True, rejections)

    window = times_arr >= 5.0 * cfg.dt0
    if np.count_nonzero(window) < 2:
        window = slice(None)
    tw = times_arr[window]
    yw = np.log(np.maximum(dist_arr[window] ** 2, 1e-300))
    slope, _ = np.polyfit(tw, yw, 1)
    fitted_c = float(slope)

    d2_0 = dist_arr[0] ** 2
    rate = fitted_c * times_arr + 1e-2 * abs(fitted_c) * times_arr
    ok = bool(np.all(dist_arr**2 <= d2_0 * np.exp(rate) * (1.0 + 1e-9)))
    return CdepReport(times_arr, dist_arr, fitted_c, ok, False, rejections)


# ---------------------------------------------------------------------------
# truncation-level convergence


@dataclass(frozen=True)
class TruncationRow:
    n: int
    n_double: int
    distance: float


def truncation_convergence(u0: ScalarField, p: PotentialParams, cfg: SolverConfig,
                           levels: Sequence[int], t_end: float) -> list[TruncationRow]:
    """Distance at t_end between the level-n and level-2n truncated runs.

    Each level n steps Nonlinearity(p, TruncationLevel(n)) from
    regularize_initial(u0, n); the reported column ||u_n - u_2n||_L2 must
    decrease along an ascending level list as the scheme converges.
    """
    from .initdata import regularize_initial

    levels = list(levels)
    if levels != sorted(levels) or any(n < 3 for n in levels):
        raise ValueError("levels must be ascending integers >= 3")
    needed = sorted({*levels, *(2 * n for n in levels)})
    finals: dict[int, ScalarField] = {}
    for n in needed:
        lvl = TruncationLevel(n)
        finals[n] = advance(regularize_initial(u0, lvl), t_end, Nonlinearity(p, lvl), cfg)
    return [TruncationRow(n, 2 * n, gr.lp_norm(finals[n] - finals[2 * n], 2))
            for n in levels]


# ---------------------------------------------------------------------------
# separation


@dataclass(frozen=True)
class SeparationReport:
    delta_min: float
    attained: bool
    theoretical_guarantee: bool  # instantaneous separation is proved in 1D/2D only


def separation_report(ledger: RunLedger, tau: float) -> SeparationReport:
    """Infimum of the separation margin delta(t) = 1 - ||u||_inf over t >= tau."""
    if not ledger.rows:
        raise RangeError("empty ledger")
    times = ledger.times
    if tau > times[-1]:
        raise RangeError(f"tau={tau} beyond the run horizon {times[-1]}")
    deltas = [r.delta_sep for r in ledger.rows if r.t >= tau]
    if not deltas:
        raise RangeError("no recorded states at or after tau")
    delta_min = float(min(deltas))
    return SeparationReport(delta_min, delta_min > 0.0, ledger.dim in (1, 2))


# ---------------------------------------------------------------------------
# dispersion measurement


@dataclass(frozen=True)
class DispersionRow:
    k_index: int
    k: float
    measured: float
    predicted: float
    rel_error: float


def dispersion_wavenumber(k_index: int, length: float) -> float:
    """The wavenumber of mode k_index on a periodic interval of that length."""
    return 2.0 * np.pi * k_index / length


def dispersion_experiment(p, k_indices: Sequence[int], length: float = 2.0 * np.pi,
                          n_samples: int = 64, amplitude: float = 1e-6,
                          steps: int = 60) -> list[DispersionRow]:
    """Measure per-mode decay rates of tiny single-mode states.

    Each mode runs `steps` - 1 unstabilized IMEX steps of one fixed dt via `_march`.
    The scheme's one-step multiplier is (1 - dt*a)/(1 + dt*b) with
    a = k^2*(P(k) - k^4) explicit and b = k^6 implicit, whose log-rate bias
    is dt*|a - b|/2 relative; dt is chosen from both scales so the bias
    stays well below one percent.  The measured rate is the least-squares
    slope of log|mode amplitude| against time, compared with the closed
    form.
    """
    grid = gr.Grid((length,), (n_samples,), gr.PERIODIC)
    x = grid.axis_coords(0)
    out = []
    for j in k_indices:
        k = dispersion_wavenumber(j, length)
        profile = np.cos(k * x)
        sigma = dispersion_sigma(k, p)
        if sigma == 0.0:
            raise ValueError(f"mode {j} is neutral; no rate to measure")
        b_impl = k**6
        a_expl = -sigma - b_impl
        dt = min(0.005 / abs(sigma), 2e-3 / max(abs(a_expl - b_impl), 1e-12))
        cfg = SolverConfig(scheme="imex", dt0=dt, dt_min=dt, dt_max=dt, s1=0.0, s2=0.0)
        state = State(ScalarField(grid, amplitude * profile), p).complete()
        proj = profile / np.sum(profile**2)
        amps = [float(np.sum(state.u.values * proj))]
        for _, _, _, state in islice(_march(state, steps * dt, cfg), steps - 1):
            amps.append(float(np.sum(state.u.values * proj)))
        times = [i * dt for i in range(steps)]
        rate = float(np.polyfit(times, np.log(np.abs(amps)), 1)[0])
        out.append(DispersionRow(j, float(k), rate, sigma, abs(rate - sigma) / abs(sigma)))
    return out
