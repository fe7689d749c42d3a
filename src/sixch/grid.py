"""Uniform box grids and spectral operator calculus.

Fields live on uniform tensor grids over a box.  Two boundary modes are
supported, each realized by the basis that diagonalizes the Neumann or
periodic Laplacian:

* ``neumann`` — samples at cell midpoints, cosine basis cos(m*pi*x/L).
  Every basis function has zero normal derivative on the box faces, so any
  representable field satisfies the no-flux conditions exactly.
* ``periodic`` — samples at x_j = j*h, discrete Fourier basis.

The operator A is the weak-form minus-Laplacian: diagonal on the basis with
eigenvalues >= 0 and a one-dimensional kernel of constants (mode 0).  On
zero-mean fields its inverse N = A^{-1} defines the dual norm
``||g||_{V0'} = ||grad(N g)|| = sqrt(<g, N g>)``.

The spectral kernels (the transforms, `gradient_axis`, `gradients`,
`grad_norm_sq`) act on ndarrays over their trailing ``grid.dim`` axes,
so leading axes are a batch; the field calculus above them takes
`ScalarField`s, which check shape and finiteness when built.

All quadrature is uniform (equal weights x cell volume); sums use numpy's
pairwise reduction, which is deterministic for a fixed array layout.
Transforms allocate per-call scratch, so grids and fields can be shared
between concurrently running simulations.

The kernels are scipy's pocketfft, called beneath `scipy.fft`'s backend
dispatch: `dct` and `dst` call the compiled ``pypocketfft`` binding
(``scipy.fft._pocketfft.basic.pfft``) with one thread, and `fftn` and
`ifftn` are ``scipy.fft._pocketfft``'s.  Their results are bit-equal to
the public `scipy.fft` calls, but a backend set with
`scipy.fft.set_backend` does not reach them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.fft import fftfreq
from scipy.fft._pocketfft import basic as _basic, fftn, ifftn

from .errors import MeanError, ShapeError

# scipy.fft's forward r2r calls on the real float64 arrays the engine
# passes, with scipy's own map of norm to pocketfft's inorm.  The binding
# is looked up on `basic` at each call, where scipy.fft's c2c code finds it.
_INORM = {None: 0, "ortho": 1}


def dct(x, type, axis, norm=None, overwrite_x=False):
    return _basic.pfft.dct(x, type, (axis,), _INORM[norm], x if overwrite_x else None, 1)


def dst(x, type, axis, norm=None, overwrite_x=False):
    return _basic.pfft.dst(x, type, (axis,), _INORM[norm], x if overwrite_x else None, 1)


NEUMANN = "neumann"
PERIODIC = "periodic"

_MEAN_RTOL = 1e-10  # zero-mean precondition, relative to the L2 norm


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on a box (0,L1) x ... x (0,Ld), d in {1,2,3}."""

    lengths: tuple[float, ...]
    counts: tuple[int, ...]
    bc: str = NEUMANN

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(float(l) for l in np.atleast_1d(self.lengths)))
        object.__setattr__(self, "counts", tuple(int(n) for n in np.atleast_1d(self.counts)))
        if not 1 <= self.dim <= 3:
            raise ValueError("grid dimension must be 1, 2 or 3")
        if len(self.lengths) != len(self.counts):
            raise ValueError("lengths and counts must have equal length")
        if not all(0.0 < l < np.inf for l in self.lengths):  # NaN too
            raise ValueError("box lengths must be positive and finite")
        if any(n < 4 for n in self.counts):
            raise ValueError("need at least 4 samples per axis")
        if self.bc not in (NEUMANN, PERIODIC):
            raise ValueError(f"unknown boundary mode {self.bc!r}")

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.lengths, self.counts))

    @cached_property  # read on every evaluation of a state
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def axis_coords(self, axis: int) -> np.ndarray:
        """Sample coordinates along one axis (midpoints for neumann)."""
        n, h = self.counts[axis], self.spacings[axis]
        if self.bc == NEUMANN:
            return (np.arange(n) + 0.5) * h
        return np.arange(n) * h

    def meshgrid(self) -> list[np.ndarray]:
        axes = [self.axis_coords(i) for i in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def symbol(self) -> "OperatorSymbol":
        return _symbol_cached(self)


@dataclass(frozen=True)
class OperatorSymbol:
    """Eigenvalues of A = -Laplacian per spectral mode (transform layout),
    with the per-axis wavenumbers they are summed from."""

    eigenvalues: np.ndarray
    wavenumbers: tuple[np.ndarray, ...]

    def __post_init__(self):
        ev = self.eigenvalues
        if ev.flat[0] != 0.0:
            raise ValueError("mode-0 eigenvalue must be exactly zero")
        if np.any(ev < 0.0):
            raise ValueError("Laplacian symbol must be nonnegative")

    # The symbols of A^2 and A^3, which every step reads: built once per grid.
    @cached_property
    def squared(self) -> np.ndarray:
        return self.eigenvalues**2

    @cached_property
    def cubed(self) -> np.ndarray:
        return self.eigenvalues**3


@lru_cache(maxsize=64)
def _symbol_cached(grid: Grid) -> OperatorSymbol:
    wavenumbers = []
    for l, n in zip(grid.lengths, grid.counts):
        if grid.bc == NEUMANN:
            wavenumbers.append(np.arange(n) * np.pi / l)
        else:
            wavenumbers.append(2.0 * np.pi * fftfreq(n, d=l / n))
    ev = wavenumbers[0] ** 2
    for k in wavenumbers[1:]:
        ev = np.add.outer(ev, k**2)
    ev = np.ascontiguousarray(ev.reshape(grid.counts))
    return OperatorSymbol(ev, tuple(wavenumbers))


class ScalarField:
    """Real sample values of one scalar on a grid, or of a batch of them.

    A batch is explicit: ``batch=True`` (or `ScalarField.stack`) gives the
    values one leading axis of rows, each row a field on the grid; it is
    never inferred from the shape.  `apply_symbol` and the operators built
    on it act on each row; the reductions and norms take one field.
    """

    __slots__ = ("grid", "values", "batch")

    def __init__(self, grid: Grid, values, batch: bool = False):
        values = np.asarray(values, dtype=np.float64)
        if (values.shape[1:] if batch else values.shape) != grid.shape:
            what = "row" if batch else "values"
            raise ShapeError(f"{what} shape {values.shape} != grid shape {grid.shape}")
        if not np.isfinite(values).all():
            raise ShapeError("field values must all be finite")
        self.grid = grid
        self.values = values
        self.batch = batch

    @classmethod
    def stack(cls, fields) -> "ScalarField":
        """The batch whose rows are `fields` (single fields on one grid), in order."""
        grid = fields[0].grid
        if any(f.batch or f.grid != grid for f in fields):
            raise ShapeError("a batch stacks single fields on one grid")
        return cls(grid, np.stack([f.values for f in fields]), batch=True)

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy(), self.batch)

    def __add__(self, other):
        return ScalarField(self.grid, self.values + _vals(other, self.grid), self.batch)

    def __sub__(self, other):
        return ScalarField(self.grid, self.values - _vals(other, self.grid), self.batch)

    def __mul__(self, other):
        return ScalarField(self.grid, self.values * _vals(other, self.grid), self.batch)

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.grid, -self.values, self.batch)

    def __repr__(self):
        rows = f"rows={len(self.values)}, " if self.batch else ""
        return f"ScalarField({rows}shape={self.grid.shape}, bc={self.grid.bc!r})"


def _vals(x, grid: Grid):
    if isinstance(x, ScalarField):
        if x.grid != grid:
            raise ShapeError("fields live on different grids")
        return x.values
    return x


def constant_field(grid: Grid, value: float) -> ScalarField:
    return ScalarField(grid, np.full(grid.shape, float(value)))


# ---------------------------------------------------------------------------
# transforms


def transform_forward(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Orthonormal spectral coefficients diagonalizing A, over the trailing
    grid axes of `values` (so any leading axes are a batch).

    The coefficient array is real (cosine basis) for neumann grids and
    complex (Fourier basis) for periodic grids; index (0,..,0) is the mass
    mode in both layouts.
    """
    if grid.bc == NEUMANN:
        for ax in range(-grid.dim, 0):
            # past the first axis the input is this loop's own array: transform it in place
            values = dct(values, type=2, axis=ax, norm="ortho", overwrite_x=ax > -grid.dim)
        return values
    return fftn(values, axes=tuple(range(-grid.dim, 0)), norm="ortho")


def transform_backward(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Inverse of :func:`transform_forward`: real sample values."""
    if grid.bc == NEUMANN:
        for ax in range(-grid.dim, 0):
            coeffs = dct(coeffs, type=3, axis=ax, norm="ortho", overwrite_x=ax > -grid.dim)
        return coeffs
    return np.real(ifftn(coeffs, axes=tuple(range(-grid.dim, 0)), norm="ortho"))


def apply_symbol(u: ScalarField, multiplier: np.ndarray) -> ScalarField:
    """Apply a spectral multiplier (diagonal operator) to a field."""
    coeffs = transform_forward(u.values, u.grid) * multiplier
    return ScalarField(u.grid, transform_backward(coeffs, u.grid), u.batch)


def apply_A(u: ScalarField) -> ScalarField:
    """Apply A; annihilates constants exactly."""
    return apply_symbol(u, u.grid.symbol().eigenvalues)


def inv_A_zero_mean(g: ScalarField) -> ScalarField:
    """Solve A v = g with mean(v) = 0, for zero-mean g.

    Raises MeanError when |mean(g)| > 1e-10 * ||g||_L2; the mass mode of
    the result is set to exactly zero.
    """
    gbar = mean(g)
    if abs(gbar) > _MEAN_RTOL * lp_norm(g, 2):
        raise MeanError(f"input must have zero mean, got {gbar:.3e}")
    ev = g.grid.symbol().eigenvalues
    coeffs = transform_forward(g.values, g.grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(ev > 0.0, coeffs / np.where(ev > 0.0, ev, 1.0), 0.0)
    return ScalarField(g.grid, transform_backward(out, g.grid))


def resolvent(u: ScalarField, tau: float) -> ScalarField:
    """Apply (I + tau*A)^{-1}; preserves the mean exactly (mode 0 / 1.0)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    ev = u.grid.symbol().eigenvalues
    return apply_symbol(u, 1.0 / (1.0 + tau * ev))


# ---------------------------------------------------------------------------
# reductions and norms


def integral(u: ScalarField) -> float:
    return float(np.sum(u.values) * u.grid.cell_volume)


def mean(u: ScalarField) -> float:
    return float(u.values.sum() / u.values.size)


def lp_norm(u: ScalarField, p: float = 2) -> float:
    if p == np.inf:
        return float(np.max(np.abs(u.values)))
    if p == 1:
        return float(np.sum(np.abs(u.values)) * u.grid.cell_volume)
    if p == 2:
        return float(np.sqrt(np.sum(u.values**2) * u.grid.cell_volume))
    raise ValueError("supported norms: p in {1, 2, inf}")


def inner(u: ScalarField, v: ScalarField) -> float:
    return float(np.sum(u.values * _vals(v, u.grid)) * u.grid.cell_volume)


def gradient_axis(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Spectral partial derivative along one grid axis, sampled on the grid."""
    n = grid.counts[axis]
    ax = axis - grid.dim  # counted from the end, so that a batch axis may lead
    rest = (slice(None),) * (grid.dim - 1 - axis)  # the grid axes after it
    k = grid.symbol().wavenumbers[axis].reshape((n,) + (1,) * len(rest))
    if grid.bc == PERIODIC:
        coeffs = fftn(values, axes=(ax,))
        return np.real(ifftn(1j * k * coeffs, axes=(ax,)))
    # cosine series -> sine series: d/dx cos(m pi x/L) = -(m pi/L) sin(...)
    y = dct(values, type=2, axis=ax)
    c = y / n
    c[(Ellipsis, 0) + rest] = 0.0  # constant mode has zero derivative
    b = -k * c
    z = np.zeros_like(b)
    z[(Ellipsis, slice(0, n - 1)) + rest] = b[(Ellipsis, slice(1, n)) + rest]
    return dst(z, type=3, axis=ax) / 2.0


def gradients(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """The spectral partial derivatives of u's values, one per grid axis, in order."""
    return [gradient_axis(values, grid, ax) for ax in range(grid.dim)]


def grad_norm_sq(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Pointwise |grad u|^2 of u's values, a sum of squares from +0, so never negative."""
    return sum(grad**2 for grad in gradients(values, grid))


def h1_seminorm(u: ScalarField) -> float:
    """||grad u|| computed spectrally: sqrt(sum_m lambda_m |c_m|^2 * w)."""
    ev = u.grid.symbol().eigenvalues
    coeffs = transform_forward(u.values, u.grid)
    w = u.grid.cell_volume
    return float(np.sqrt(np.sum(ev * np.abs(coeffs) ** 2) * w))


def v0_dual_norm(g: ScalarField) -> float:
    """Dual norm ||g||_{V0'} = sqrt(<g, A^{-1} g>) on zero-mean fields."""
    v = inv_A_zero_mean(g)
    val = inner(g, v)
    return float(np.sqrt(max(val, 0.0)))


def dual_norm_coeffs(coeffs: np.ndarray, grid: Grid) -> float:
    """||g||_{V0'} of the zero-mean part of g, from g's coefficients.

    sqrt(sum over lambda_m > 0 of |c_m|^2 / lambda_m * w): equal to
    `v0_dual_norm` on zero-mean fields (Parseval), up to roundoff.  The
    mass mode is left out, so no zero-mean precondition applies.
    """
    ev = grid.symbol().eigenvalues
    live = ev > 0.0
    return float(np.sqrt(np.sum(np.abs(coeffs[live]) ** 2 / ev[live]) * grid.cell_volume))
