"""Model-level fields and functionals.

The free energy is

    E(u) = integral[ 1/2 |-lap(u) + f(u)|^2 + eta*(1/2 |grad u|^2 + F(u)) ]

with chemical potential mu = dE/du.  Besides the defining cascade

    omega = -lap(u) + f(u),   mu = -lap(omega) + f'(u)*omega + eta*omega,

mu can be written as a single sixth-order expression in several forms that
coincide for smooth states; all four are implemented so they can serve as
oracles for one another.  The default used for time stepping is UOM1,

    mu = lap^2 u - 2 lap(beta(u)) + beta''(u)|grad u|^2
         + beta(u) beta'(u) + (2 lam - eta) lap(u) + g(u),

whose nonlinear terms are exactly the quantities the diagnostic functionals
below monitor.  Its linear terms are diagonal in the basis of A, with
eigenvalues ev, so its coefficients are

    mu_hat = (ev^2 - (2 lam - eta) ev) u_hat + 2 ev beta_hat
             + F[beta''(u)|grad u|^2 + beta(u) beta'(u) + g(u)],

and `_assemble` sums them so, from coefficients alone: the one assembly
of mu (`State.mu_hat`, and so the Newton residual, which reads an iterate
State's) and of its derivative Dmu(u)w (`State.dmu_hat`, which with
`State.frozen` is all that Newton's J and M read of mu).  `State`
evaluates a state once: one pointwise pass of the nonlinearities
(`Nonlinearity.pointwise`) and, each when first read, the energy
breakdown the dissipation test reads, with the Willmore term summed by
Parseval from omega_hat = (ev - lam) u_hat + beta_hat, mu_hat and the
diagnostic scalars.  The symbols of A they read are built once: A's
powers and 2A by the `Grid`, and ev - lam and ev^2 - (2 lam - eta) ev
once per (grid, lam, eta), by `_linear_symbols`.  A State carries its
nonlinearity, `nl`, so the steps, the step controller and the ledger
take a State alone and read the potential from it.  A batch is a leading
shape, (k,) for a `ScalarField.stack` of k and () for one field, and one
path serves both, so trajectories stepped in lockstep share every call;
the scalars are per row (float64 scalars or (k,) arrays), each bit-equal
to its single State's.
`energy`, `apriori_diagnostics` and the UOM1 branch of `mu` delegate to
it; `mu` makes the one backward transform of mu_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

import numpy as np

from . import grid as gr
from .errors import DomainError, OverflowSignal, ShapeError
from .grid import ScalarField
from .potential import Pointwise, PotentialParams, as_nonlinearity, eval_a


class MuFormulation(Enum):
    """The four equivalent-on-smooth-states forms of the chemical potential."""

    CASCADE = "cascade"
    UOM = "uom"
    UOM1 = "uom1"
    UOM2 = "uom2"


@dataclass(frozen=True)
class EnergyBreakdown:
    """The energy and its terms, per row (float64 scalars or (k,) arrays)."""

    willmore: float  # 1/2 ||omega||^2
    ch_grad: float  # eta/2 ||grad u||^2
    ch_pot: float  # eta * integral F(u)
    total: float


@dataclass(frozen=True)
class AprioriDiagnostics:
    """Norms of the singular terms that the analysis keeps bounded, per row
    (float64 scalars for one field, (k,) arrays for a batch)."""

    beta_l2: float
    grad_beta_l2: float
    beta_betaprime_l1: float
    m_integral: float
    n_integral: float
    # mean(mu) = |Omega|^-1 * integral(beta''(u)|grad u|^2 + beta(u) beta'(u) + g(u)):
    # only the zero-order terms survive integration, so the mass mode of mu
    # never depends on spectral cancellation of the differential terms
    mu_mean: float


@lru_cache(maxsize=16)
def _linear_symbols(grid: gr.Grid, lam: float, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """(ev - lam, ev^2 - (2 lam - eta) ev): the symbols on u_hat of omega and of mu's
    linear part, made once per (grid, lam, eta) and read-only, since States share them."""
    ev = grid.eigenvalues
    symbols = ev - lam, grid.eigenvalues_sq - (2.0 * lam - eta) * ev
    for symbol in symbols:
        symbol.flags.writeable = False
    return symbols


def _spectral_sq(ev: np.ndarray, coeffs: np.ndarray, lead: tuple):
    """sum_m lambda_m |c_m|^2, the squared H1 seminorm before quadrature."""
    return _sum(ev * np.abs(coeffs) ** 2, lead)


def _sum(x: np.ndarray, lead: tuple):
    """Sum over the grid axes after the leading shape `lead`, each row flat."""
    return x.reshape(*lead, -1).sum(axis=-1)


class State:
    """One evaluated state u: every quantity of it is computed here, at most once.

    u is one field or a batch of k (`ScalarField.stack`): the leading shape
    () or (k,).  The scalars (the energy breakdown, ||grad mu||^2, the
    a-priori scalars) are per row: float64 scalars (||grad mu||^2 a Python
    float), or (k,) arrays.

    Construction evaluates a candidate.  One pointwise pass checks the
    domain once (|u| < 1 in exact mode, every row) and gives beta, beta',
    beta'', g and F, whose integral is summed at once and F released; then
    come u_hat (given, or u's forward transform) and beta_hat.

    The rest is made when it is read, by whoever reads it first.  The
    energy breakdown, which is all the dissipation test reads, is summed
    from u_hat, beta_hat and F's integral; a Newton iterate that is not the
    candidate is never tested, so never sums it.  mu_hat is assembled once,
    on its first read: |grad u|^2, then `_assemble` of u_hat, beta_hat and
    one forward transform of the nonlinear sum.  mu stays in coefficients:
    `model.mu` transforms it back.  The state then keeps only what a later
    step reads (u, u_hat, mu_hat), beta_hat and the terms of the a-priori
    scalars, which `apriori` evaluates when first read (the ledger reads
    them for every state; the cdep pair never does), after the energy, and
    then releases.  ||grad mu||^2 is summed from mu_hat each time it is
    read, and only the ledger reads it.

    With ``jacobian`` the pass gives beta''' and g' too, and the assembly
    keeps Dmu(u)'s coefficients for `dmu_hat` and `frozen`: a Newton iterate
    is such a State, whose mu_hat the residual reads, and the candidate,
    the last iterate, hands them to the next step's Jacobian.

    ``imex_op`` is the operator of the IMEX step that made the state (None
    otherwise), which the next IMEX step reuses while grid, dt, s1 and s2
    stay the same.
    """

    __slots__ = ("u", "nl", "u_hat", "imex_op", "_energy", "_ch_pot", "_mu_hat", "_lead",
                 "_apriori", "_pw", "_beta_hat", "_terms", "_linear")

    def __init__(self, u: ScalarField, p, u_hat: Optional[np.ndarray] = None, *,
                 jacobian: bool = False):
        nl = as_nonlinearity(p)
        vals = u.values
        pw = nl.pointwise(vals, jacobian=jacobian)
        grid = u.grid
        self.u, self.nl = u, nl
        self._lead = lead = vals.shape[:-grid.dim]
        self._ch_pot = nl.params.eta * _sum(pw.F, lead) * grid.cell_volume
        self._pw = pw = Pointwise(*pw[:-1], None)  # the part mu_hat reads: not F
        self.u_hat = gr.transform_forward(vals, grid) if u_hat is None else u_hat
        self._beta_hat = gr.transform_forward(pw.beta, grid)
        self.imex_op = self._energy = self._mu_hat = self._apriori = None
        self._terms = self._linear = None

    @property
    def energy(self) -> EnergyBreakdown:
        """The energy breakdown, summed when first read."""
        if self._energy is None:
            grid, lead, p = self.u.grid, self._lead, self.nl.params
            ev, w = grid.eigenvalues, grid.cell_volume
            # omega = A u + f(u) with f(u) = beta(u) - lam u, by Parseval from its coefficients
            om_hat = _linear_symbols(grid, p.lam, p.eta)[0] * self.u_hat + self._beta_hat
            willmore = 0.5 * _sum(np.abs(om_hat) ** 2, lead) * w
            ch_grad = 0.5 * p.eta * _spectral_sq(ev, self.u_hat, lead) * w
            ch_pot = self._ch_pot
            self._energy = EnergyBreakdown(willmore, ch_grad, ch_pot, willmore + ch_grad + ch_pot)
        return self._energy

    @property
    def mu_hat(self) -> np.ndarray:
        """mu's coefficients, assembled when first read; ShapeError if not finite."""
        if self._mu_hat is None:
            grid, pw = self.u.grid, self._pw
            grads = gr.gradients(self.u.values, grid)
            gsq = gr.sum_of_squares(grads)
            self._linear = _dmu_coefficients(pw, grads, gsq) if pw.beta3 is not None else None
            del grads  # held by _linear alone: other states free them before the assembly
            # B = beta beta', curv = beta''|grad u|^2 and mu's zero-order sum
            b_vals, curv = pw.beta * pw.beta1, pw.beta2 * gsq
            nonlinear = curv + b_vals + pw.g
            mu_hat = _assemble(self.nl, grid, self.u_hat, self._beta_hat,
                               gr.transform_forward(nonlinear, grid))
            if not np.isfinite(mu_hat).all():  # mu leaves the state: checked
                raise ShapeError("mu_hat must be finite")
            self._terms = pw.beta, b_vals, curv, nonlinear
            self._mu_hat, self._pw = mu_hat, None
        return self._mu_hat

    @property
    def grad_mu_sq(self):
        """||grad mu||^2 per row, from mu_hat each time it is read (not stored)."""
        grid, lead = self.u.grid, self._lead
        root = np.sqrt(_spectral_sq(grid.eigenvalues, self.mu_hat, lead) * grid.cell_volume)
        # each row squared as a Python float (libm pow), not by the array square
        if not lead:
            return float(root) ** 2
        return np.reshape([r**2 for r in np.ravel(root).tolist()], lead)

    def _linearize(self):
        """Dmu's coefficients (`_dmu_coefficients`) at the state, after mu's assembly:
        kept by a ``jacobian`` State, else made once."""
        self.mu_hat  # assembled first: a ``jacobian`` State's assembly keeps them
        if self._linear is None:
            grads = gr.gradients(self.u.values, self.u.grid)
            pw = self.nl.pointwise(self.u.values, jacobian=True)
            self._linear = _dmu_coefficients(pw, grads, gr.sum_of_squares(grads))
        return self._linear

    def dmu_hat(self, w_hat: np.ndarray, row=()) -> np.ndarray:
        """(Dmu(u) w)_hat of one row's coefficients w_hat (row () for one field): mu's
        assembly of w_hat, beta' w and 2 beta'' grad u . grad w + zero-order w."""
        beta1, beta2_doubled, grads, zero_order = self._linearize()
        grid = self.u.grid
        w = gr.transform_backward(w_hat, grid)
        grad_dot = sum(g[row] * gw for g, gw in zip(grads, gr.gradients(w, grid)))
        rows = np.stack([beta1[row] * w, beta2_doubled[row] * grad_dot + zero_order[row] * w])
        return _assemble(self.nl, grid, w_hat, *gr.transform_forward(rows, grid))

    def frozen(self, row=()):
        """(c2, c1) of one row: Dmu(u) with its coefficients frozen at their grid means
        has the symbol ev^2 + c2 ev + c1, c2 = 2 mean beta' - (2 lam - eta)."""
        beta1, _, _, zero_order = self._linearize()
        p = self.nl.params
        return 2.0 * beta1[row].mean() - (2.0 * p.lam - p.eta), zero_order[row].mean()

    @property
    def apriori(self) -> AprioriDiagnostics:
        """The a-priori scalars, evaluated when first read from the terms of mu's
        assembly and beta_hat, which are then released."""
        if self._apriori is None:
            self.mu_hat  # assembled first: it makes the terms
            self.energy  # summed first: it reads beta_hat too
            beta, b_vals, curv, nonlinear = self._terms
            beta_hat, abs_b = self._beta_hat, np.abs(b_vals)
            grid, lead = self.u.grid, self._lead
            ev, w = grid.eigenvalues, grid.cell_volume
            self._terms = self._beta_hat = None
            self._apriori = AprioriDiagnostics(
                beta_l2=np.sqrt(_sum(beta**2, lead) * w),
                grad_beta_l2=np.sqrt(_spectral_sq(ev, beta_hat, lead) * w),
                beta_betaprime_l1=_sum(abs_b, lead) * w,
                m_integral=_sum(_M(abs_b), lead) * w,
                n_integral=_sum(_N(np.abs(curv)), lead) * w,
                mu_mean=_sum(nonlinear, lead) / math.prod(grid.shape),
            )
        return self._apriori


def _dmu_coefficients(pw, grads, gsq):
    """(beta', 2 beta'', grads, beta'''|grad u|^2 + beta'^2 + beta beta'' + g'): the
    coefficients of Dmu(u), the last its zero-order one, from a ``jacobian`` pass."""
    return (pw.beta1, 2.0 * pw.beta2, grads,
            pw.beta3 * gsq + pw.beta1**2 + pw.beta * pw.beta2 + pw.g1)


def _assemble(nl, grid, x_hat, b_hat, n_hat):
    """(ev^2 - (2 lam - eta) ev) x_hat + 2 ev b_hat + n_hat: the sum of mu and of Dmu w."""
    p = nl.params
    # summed in place (fewer temporaries), in the formula's order
    out = _linear_symbols(grid, p.lam, p.eta)[1] * x_hat
    out += grid.eigenvalues_doubled * b_hat
    out += n_hat
    return out


def omega(u: ScalarField, p) -> ScalarField:
    """Fourth-order chemical potential omega = -lap(u) + f(u)."""
    return ScalarField(u.grid, gr.apply_A(u).values + as_nonlinearity(p).f(u.values), u.batch)


def mu(u: ScalarField, p, form: MuFormulation = MuFormulation.UOM1) -> ScalarField:
    """Chemical potential of the sixth-order flow, per the selected form."""
    nl = as_nonlinearity(p)
    if form is MuFormulation.UOM1:
        return ScalarField(u.grid, gr.transform_backward(State(u, nl).mu_hat, u.grid), u.batch)
    lam, eta = nl.params.lam, nl.params.eta

    if form is MuFormulation.CASCADE:
        om = omega(u, nl)
        fp = nl.fprime(u.values)
        return ScalarField(u.grid, gr.apply_A(om).values + (fp + eta) * om.values, u.batch)

    beta, beta1, beta2, _, g_vals, _, _ = nl.pointwise(u.values)
    ev = u.grid.eigenvalues
    u_hat = gr.transform_forward(u.values, u.grid)
    lap_u = gr.transform_backward(-ev * u_hat, u.grid)
    lap2_u = gr.transform_backward(ev**2 * u_hat, u.grid)
    common = beta * beta1 + (2.0 * lam - eta) * lap_u + g_vals

    if form is MuFormulation.UOM:
        lap_beta = -gr.transform_backward(gr.transform_forward(beta, u.grid) * ev, u.grid)
        out = lap2_u - lap_beta - beta1 * lap_u + common
    elif form is MuFormulation.UOM2:
        gsq = gr.grad_norm_sq(u.values, u.grid)
        out = lap2_u - 2.0 * beta1 * lap_u - beta2 * gsq + common
    else:
        raise ValueError(f"unknown formulation {form!r}")
    return ScalarField(u.grid, out, u.batch)


def energy(u: ScalarField, p) -> EnergyBreakdown:
    """Energy breakdown; requires |u| < 1 in exact mode (f is singular at +-1)."""
    return State(u, p).energy


def arcsin_functional(u: ScalarField) -> float:
    """J(u) = integral |grad(arcsin u)|^2, finite for |u| <= 1.

    Constants (including +-1) give zero.  Raises OverflowSignal if the
    integrand leaves the representable range.
    """
    if np.any(np.abs(u.values) > 1.0):
        raise DomainError("arcsin functional needs |u| <= 1")
    integrand = gr.grad_norm_sq(np.arcsin(u.values), u.grid)
    if np.any(integrand > 1e300):
        raise OverflowSignal("arcsin-gradient integrand exceeded 1e300")
    return float(np.sum(integrand)) * u.grid.cell_volume


def arcsin_gateaux(u: ScalarField, phi: ScalarField) -> float:
    """Directional derivative of J at u in direction phi.

    dJ(u)[phi] = integral a(u) grad u . grad phi
                 + 1/2 integral a'(u) |grad u|^2 phi,
    valid when u stays strictly separated from +-1.
    """
    if np.max(np.abs(u.values)) >= 1.0:
        raise DomainError("Gateaux derivative needs strict separation from +-1")
    a, a1, _ = eval_a(u.values)
    grads = gr.gradients(u.values, u.grid)
    dot = sum(g * gp for g, gp in zip(grads, gr.gradients(phi.values, u.grid)))
    gsq = gr.sum_of_squares(grads)
    return float(np.sum(a * dot) + 0.5 * np.sum(a1 * gsq * phi.values)) * u.grid.cell_volume


def apriori_diagnostics(u: ScalarField, p) -> AprioriDiagnostics:
    """The a-priori quantities: beta norms, B = beta*beta', and the
    superlinear integrals of M(|B|) and N(|beta''(u)|grad u|^2|)."""
    return State(u, p).apriori


_EXP4 = np.exp(4.0)  # the shift e^4 of N, as numpy's exp gives it


def _M(r):
    """M(r) = r * ln^(1/2)(1+r), superlinear at infinity."""
    return r * np.sqrt(np.log1p(r))


def _N(r):
    """N(r) = r * ln(ln(e^4 + r)), superlinear at infinity."""
    return r * np.log(np.log(_EXP4 + r))


def dispersion_sigma(k: float, p: PotentialParams) -> float:
    """Growth rate of wavenumber k for the flow linearized at u = 0.

    With beta'(0) = 1 the linearization of the cascade is
    mu_hat = (k^2 + 1 - lam + eta) * (k^2 + 1 - lam) * u_hat and
    d/dt u_hat = -k^2 mu_hat, hence

        sigma(k) = -k^2 (k^2 + 1 - lam) (k^2 + 1 - lam + eta).

    The mass mode k = 0 is neutral.
    """
    k2 = float(k) ** 2
    return -k2 * (k2 + 1.0 - p.lam) * (k2 + 1.0 - p.lam + p.eta)
