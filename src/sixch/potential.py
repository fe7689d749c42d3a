"""Scalar nonlinearities of the logarithmic free-energy model.

The configuration potential is

    F(r) = 1/2 (1+r) ln(1+r) + 1/2 (1-r) ln(1-r) - (lambda/2) r^2

on [-1, 1], with derivative f = F' split as f(r) = beta(r) - lambda*r where
beta(r) = atanh(r) is the monotone part.  The helper a(r) := 2*beta'(r) and
the lower-order combination

    g(r) = -lambda*r*beta'(r) + (eta - lambda)*beta(r) + (lambda^2 - lambda*eta)*r

appear when the chemical potential is written as a single sixth-order
expression.  All evaluators here are pure functions of their inputs and
accept scalars or numpy arrays.

Exact evaluators raise :class:`DomainError` outside their domain, NaN
included, instead of clamping.  The solver reads a state's nonlinearities
in one pass, :meth:`Nonlinearity.pointwise`: one beta, beta', beta'' trio,
with the one domain check, also gives g and F (F from the trio's
logarithms ln(1 +- r), which `eval_F` builds it from too), and beta''' and
g' only for the caller that asks, the Newton Jacobian.  The truncated
mode takes the trio at the samples clipped to the knee 1 - 1/(2n) and
continues every quantity past it by one rule, its Taylor polynomial there.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .errors import DomainError

FloatOrArray = Union[float, NDArray[np.float64]]


@dataclass(frozen=True)
class PotentialParams:
    """Potential convexity shift ``lam`` and sixth-order coupling ``eta``.

    Both are dimensionless and may take any finite real value; large
    positive ``lam`` makes the potential non-convex (spinodal regime),
    negative ``eta`` gives the functionalized variant of the energy.
    """

    lam: float
    eta: float

    def __post_init__(self):
        if not (np.isfinite(self.lam) and np.isfinite(self.eta)):
            raise ValueError("potential parameters must be finite reals")


@dataclass(frozen=True)
class TruncationLevel:
    """Approximation level n: states are confined to [-1+1/n, 1-1/n]."""

    n: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 3:
            raise ValueError("truncation level must be an integer >= 3")

    @property
    def clamp_bound(self) -> float:
        """Half-width 1 - 1/n of the admissible interval."""
        return 1.0 - 1.0 / self.n

    @property
    def knee(self) -> float:
        """Matching point 1 - 1/(2n) where the smooth extension starts."""
        return 1.0 - 0.5 / self.n


def _as_array(r: ArrayLike) -> NDArray[np.float64]:
    return np.asarray(r, dtype=np.float64)


# "Not all inside" rather than "any outside", so that NaN is rejected too.
def _check_open(r: NDArray[np.float64]) -> None:
    if not (np.abs(r) < 1.0).all():
        raise DomainError("argument must satisfy |r| < 1")


def _check_closed(r: NDArray[np.float64]) -> None:
    if not (np.abs(r) <= 1.0).all():
        raise DomainError("argument must satisfy |r| <= 1")


def _scalars(arr: NDArray[np.float64], *vals):
    """vals as Python floats if the argument arr is a scalar (0-d), else as they are."""
    if arr.ndim == 0:
        return tuple(float(v) for v in vals)
    return vals


def _one_minus_sq(r: NDArray[np.float64]) -> NDArray[np.float64]:
    # (1-r)(1+r) keeps full relative accuracy up to |r| = 1 - 1e-12,
    # where 1 - r*r loses half the digits.
    return (1.0 - r) * (1.0 + r)


def eval_beta(r: ArrayLike, logs: bool = False) -> tuple[FloatOrArray, ...]:
    """Evaluate beta(r) = atanh(r) together with beta' and beta''.

    beta(r) = (1/2) ln((1+r)/(1-r)),  beta'(r) = 1/(1-r^2),
    beta''(r) = 2r/(1-r^2)^2.  Raises DomainError unless |r| < 1.
    With ``logs`` the trio is followed by ln(1+r) and ln(1-r), the two
    logarithms beta is built from (F is built from them too).
    """
    arr = _as_array(r)
    _check_open(arr)
    omr2 = _one_minus_sq(arr)
    lp, lm = np.log1p(arr), np.log1p(-arr)
    return _scalars(arr, 0.5 * (lp - lm), 1.0 / omr2, 2.0 * arr / omr2**2,
                    *((lp, lm) if logs else ()))


def _beta3(r: NDArray[np.float64]) -> NDArray[np.float64]:
    """Third derivative beta'''(r) = 2(1+3r^2)/(1-r^2)^3 (no domain check)."""
    return 2.0 * (1.0 + 3.0 * r**2) / _one_minus_sq(r) ** 3


def eval_F(p: PotentialParams, r: ArrayLike) -> FloatOrArray:
    """Potential F(r) on the closed interval [-1, 1].

    The entropy terms use the convention x*ln(x) -> 0 as x -> 0, so
    F(+-1) = ln 2 - lam/2 by continuity.
    """
    arr = _as_array(r)
    _check_closed(arr)
    with np.errstate(divide="ignore"):
        lp, lm = np.log1p(arr), np.log1p(-arr)
    # at r = -1 (r = 1) the factor of ln(1+r) (of ln(1-r)) is 0: its -inf reads as 0
    return _scalars(arr, _F(p, arr, np.where(arr == -1.0, 0.0, lp),
                            np.where(arr == 1.0, 0.0, lm)))[0]


def _F(p: PotentialParams, r, lp, lm):
    """F(r) from lp = ln(1+r) and lm = ln(1-r), without a domain check."""
    return 0.5 * ((1.0 + r) * lp + (1.0 - r) * lm) - 0.5 * p.lam * r**2


def eval_f(p: PotentialParams, r: ArrayLike) -> FloatOrArray:
    """Derivative f(r) = F'(r) = beta(r) - lam*r, defined for |r| < 1."""
    arr = _as_array(r)
    return _scalars(arr, eval_beta(arr)[0] - p.lam * arr)[0]


def eval_a(r: ArrayLike) -> tuple[FloatOrArray, FloatOrArray, FloatOrArray]:
    """Evaluate a(r) = 2 beta'(r) = 2/(1-r^2) with a' and a''.

    a'(r) = 4r/(1-r^2)^2 and a''(r) = 4(1+3r^2)/(1-r^2)^3; a >= 2 always.
    """
    arr = _as_array(r)
    _, beta1, beta2 = eval_beta(arr)  # doubling is exact: the closed forms, bit for bit
    return _scalars(arr, 2.0 * beta1, 2.0 * beta2, 2.0 * _beta3(arr))


def eval_g(p: PotentialParams, r: ArrayLike) -> tuple[FloatOrArray, FloatOrArray]:
    """Evaluate g(r) and g'(r) for the single-equation chemical potential.

    g(r)  = -lam*r*beta'(r) + (eta-lam)*beta(r) + (lam^2 - lam*eta)*r
    g'(r) = -lam*r*beta''(r) + (eta-2*lam)*beta'(r) + lam^2 - lam*eta

    Identically zero when lam = eta = 0.
    """
    arr = _as_array(r)
    beta, beta1, beta2 = eval_beta(arr)
    return _scalars(arr, _g(p, arr, beta, beta1), _g1(p, arr, beta1, beta2))


def _g(p: PotentialParams, r, beta, beta1):
    """g(r) from beta and beta' at r."""
    lam, eta = p.lam, p.eta
    return -lam * r * beta1 + (eta - lam) * beta + (lam**2 - lam * eta) * r


def _g1(p: PotentialParams, r, beta1, beta2):
    """g'(r) from beta' and beta'' at r."""
    lam, eta = p.lam, p.eta
    return -lam * r * beta2 + (eta - 2.0 * lam) * beta1 + lam**2 - lam * eta


def _taylor(d, *derivs):
    """The Taylor polynomial sum_k derivs[k] * d^k / k! in the overshoot d."""
    return sum((c / math.factorial(k) * d**k for k, c in enumerate(derivs[1:], 1)), derivs[0])


# Every nonlinearity at one set of samples, from one evaluation.
Pointwise = namedtuple("Pointwise", "beta beta1 beta2 beta3 g g1 F")


@dataclass(frozen=True)
class Nonlinearity:
    """Evaluator bundle for (F, f, beta, g) in exact or extended form.

    With ``level is None`` the bundle evaluates the exact functions and
    raises :class:`DomainError` outside their domain.  With a truncation
    level set, every function agrees bit-for-bit with its exact counterpart
    on [-1+1/(2n), 1-1/(2n)] and continues outside as the second-order
    Taylor polynomial about the knee, so beta stays C^2, monotone, and
    finite on all of R.  F is extended by the exact antiderivative of the
    extended f, which keeps mu = dE/du valid across the knee.  The other
    evaluators are views of `pointwise`.
    """

    params: PotentialParams
    level: TruncationLevel | None = None

    # -- domain handling -------------------------------------------------

    def check(self, values: ArrayLike, closed: bool = False) -> None:
        """Raise DomainError for inadmissible samples in exact mode."""
        if self.level is None:
            (_check_closed if closed else _check_open)(_as_array(values))

    # -- evaluators ------------------------------------------------------

    def pointwise(self, r: ArrayLike, jacobian: bool = False) -> Pointwise:
        """beta, beta', beta'', g and F at r, in one pass; beta''' and g' as
        well with ``jacobian`` (else None: only the Newton Jacobian reads them).

        One beta trio, with the one domain check, at r in exact mode (so F
        too needs |r| < 1) or at r clipped to the knee in extended mode.  F
        is built from the trio's two logarithms.
        """
        arr = _as_array(r)
        p = self.params
        rc = arr if self.level is None else np.clip(arr, -self.level.knee, self.level.knee)
        b, b1, b2, lp, lm = eval_beta(rc, logs=True)
        g, F = _g(p, rc, b, b1), _F(p, rc, lp, lm)
        if self.level is None:
            if not jacobian:
                return Pointwise(b, b1, b2, None, g, None, F)
            return Pointwise(b, b1, b2, _beta3(rc), g, _g1(p, rc, b1, b2), F)
        # g is continued with g' and g'' at the knee, so these are always needed here
        d = arr - rc
        b3, g1 = _beta3(rc), _g1(p, rc, b1, b2)
        g2 = -p.lam * rc * b3 + (p.eta - 3.0 * p.lam) * b2
        b3_ext, g1_ext = ((np.where(d == 0.0, b3, 0.0), _taylor(d, g1, g2)) if jacobian
                          else (None, None))
        return Pointwise(_taylor(d, b, b1, b2), _taylor(d, b1, b2), b2, b3_ext,
                         _taylor(d, g, g1, g2), g1_ext,
                         _taylor(d, F, b - p.lam * rc, b1 - p.lam, b2))

    def beta_all(self, r: ArrayLike):
        return self.pointwise(r)[:3]

    def beta(self, r: ArrayLike):
        return self.pointwise(r).beta

    def beta3(self, r: ArrayLike):
        """Derivative of the beta'' evaluator (zero outside the knee)."""
        return self.pointwise(r, jacobian=True).beta3

    def f(self, r: ArrayLike):
        return self.pointwise(r).beta - self.params.lam * _as_array(r)

    def fprime(self, r: ArrayLike):
        return self.pointwise(r).beta1 - self.params.lam

    def F(self, r: ArrayLike):
        """F, on the closed interval [-1, 1] in exact mode."""
        return eval_F(self.params, r) if self.level is None else self.pointwise(r).F

    def g_all(self, r: ArrayLike):
        return self.pointwise(r, jacobian=True)[4:6]

    def g(self, r: ArrayLike):
        return self.pointwise(r).g


def as_nonlinearity(p) -> Nonlinearity:
    """Coerce PotentialParams or Nonlinearity to a Nonlinearity."""
    if isinstance(p, Nonlinearity):
        return p
    if isinstance(p, PotentialParams):
        return Nonlinearity(p, None)
    raise TypeError(f"expected PotentialParams or Nonlinearity, got {type(p)!r}")
