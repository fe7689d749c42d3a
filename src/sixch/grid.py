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
``||g||_{V0'} = ||grad(N g)|| = sqrt(<g, N g>)``.  A `Grid` holds its
spectrum, each part built once when first read: the per-axis
wavenumbers, A's eigenvalues, the symbols of A^2, A^3 and 2A, each
axis's derivative multiplier and A's positive modes, so that no kernel
or step rebuilds a symbol that depends on the grid alone.

The spectral kernels (the transforms, `gradient_axis`, `gradients`,
`grad_norm_sq`) act on ndarrays over their trailing ``grid.dim`` axes,
so leading axes are a batch; the field calculus above them takes
`ScalarField`s, which check shape and finiteness when built.

All quadrature is uniform (equal weights x cell volume); sums use numpy's
pairwise reduction, which is deterministic for a fixed array layout.
Transforms allocate per-call scratch, so grids and fields can be shared
between concurrently running simulations.

The kernels are scipy's pocketfft.  `dct`, `dst`, `fftn` and `ifftn`
call its compiled ``pypocketfft`` binding with one thread and scipy's own
map of ``norm`` to pocketfft's normalization, so their results are
bit-equal to the public `scipy.fft` calls.  The binding is loaded from
its file in scipy's install directory without importing the `scipy.fft`
package, whose Python helpers, array-API layer and `scipy.special` would
otherwise make up most of a run's set-up.  A later ``import scipy.fft``
gets the same module object, since CPython caches the extension.  Each
call reads the binding through ``scipy.fft._pocketfft.basic`` when that
module is loaded, so a wrapper put there (a profiler's, say) sees every
transform.  A backend set with `scipy.fft.set_backend`, or a thread
count set with `scipy.fft.set_workers`, does not reach them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path

import numpy as np

from .errors import MeanError, ShapeError


def _load_pocketfft():
    """scipy's compiled pocketfft binding, found and loaded without running scipy's code."""
    name = "scipy.fft._pocketfft.pypocketfft"
    where = Path(find_spec("scipy").submodule_search_locations[0], "fft", "_pocketfft")
    spec = FileFinder(str(where), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no pypocketfft extension in {where}", name=name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_PFFT = _load_pocketfft()

# scipy.fft's calls on the float64 and complex128 arrays the engine passes,
# with scipy's own map of norm to pocketfft's inorm (2 - inorm backward).
_INORM = {None: 0, "ortho": 1}


def _pfft():
    # scipy.fft's c2c code reads the binding from `basic`, and a profiler
    # wraps it there: when `basic` is loaded, read it there too
    basic = sys.modules.get("scipy.fft._pocketfft.basic")
    return _PFFT if basic is None else basic.pfft


def dct(x, type, axis, norm=None, overwrite_x=False):
    return _pfft().dct(x, type, (axis,), _INORM[norm], x if overwrite_x else None, 1)


def dst(x, type, axis, norm=None, overwrite_x=False):
    return _pfft().dst(x, type, (axis,), _INORM[norm], x if overwrite_x else None, 1)


def fftn(x, axes, norm=None):
    return _pfft().c2c(x, axes, True, _INORM[norm], None, 1)


def ifftn(x, axes, norm=None):
    return _pfft().c2c(x, axes, False, 2 - _INORM[norm], None, 1)


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

    @cached_property  # read by every kernel and step
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

    @cached_property  # A's spectrum, read by every transform-space operator: built once
    def wavenumbers(self) -> tuple[np.ndarray, ...]:
        """Each axis's wavenumbers, in transform layout."""
        if self.bc == NEUMANN:
            return tuple(np.arange(n) * np.pi / l for l, n in zip(self.lengths, self.counts))
        return tuple(2.0 * np.pi * np.fft.fftfreq(n, d=l / n)
                     for l, n in zip(self.lengths, self.counts))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """A's eigenvalue per spectral mode (transform layout), summed from the wavenumbers."""
        ev = self.wavenumbers[0] ** 2
        for k in self.wavenumbers[1:]:
            ev = np.add.outer(ev, k**2)
        return np.ascontiguousarray(ev.reshape(self.counts))

    @cached_property
    def eigenvalues_sq(self) -> np.ndarray:  # the symbol of A^2
        return self.eigenvalues**2

    @cached_property
    def eigenvalues_cubed(self) -> np.ndarray:  # the symbol of A^3
        return self.eigenvalues**3

    @cached_property
    def eigenvalues_doubled(self) -> np.ndarray:  # the symbol of 2A, mu's factor on beta_hat
        return 2.0 * self.eigenvalues

    @cached_property
    def gradient_symbols(self) -> tuple[np.ndarray, ...]:
        """Each axis's multiplier of d/dx on its transform, shaped to broadcast
        over the grid axes after it: 1j*k (periodic), or -k, which takes
        cosine mode m to sine mode m (neumann)."""
        symbols = []
        for axis, k in enumerate(self.wavenumbers):
            k = k.reshape((len(k),) + (1,) * (self.dim - 1 - axis))
            symbols.append(1j * k if self.bc == PERIODIC else -k)
        return tuple(symbols)

    @cached_property
    def positive_modes(self) -> tuple[np.ndarray, np.ndarray]:
        """(live, ev[live]): the mask of A's positive eigenvalues, and those eigenvalues."""
        live = self.eigenvalues > 0.0
        return live, self.eigenvalues[live]


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
    return apply_symbol(u, u.grid.eigenvalues)


def inv_A_zero_mean(g: ScalarField) -> ScalarField:
    """Solve A v = g with mean(v) = 0, for zero-mean g.

    Raises MeanError when |mean(g)| > 1e-10 * ||g||_L2; the mass mode of
    the result is set to exactly zero.
    """
    gbar = mean(g)
    if abs(gbar) > _MEAN_RTOL * lp_norm(g, 2):
        raise MeanError(f"input must have zero mean, got {gbar:.3e}")
    ev = g.grid.eigenvalues
    coeffs = transform_forward(g.values, g.grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(ev > 0.0, coeffs / np.where(ev > 0.0, ev, 1.0), 0.0)
    return ScalarField(g.grid, transform_backward(out, g.grid))


def resolvent(u: ScalarField, tau: float) -> ScalarField:
    """Apply (I + tau*A)^{-1}; preserves the mean exactly (mode 0 / 1.0)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    ev = u.grid.eigenvalues
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
    symbol = grid.gradient_symbols[axis]
    if grid.bc == PERIODIC:
        coeffs = fftn(values, axes=(ax,))
        return np.real(ifftn(np.multiply(symbol, coeffs, out=coeffs), axes=(ax,)))
    # cosine series -> sine series: d/dx cos(m pi x/L) = -(m pi/L) sin(m pi x/L), and
    # DST-III reads sine mode m at index m - 1, so the constant mode m = 0 drops out.
    # The shifted sine coefficients overwrite y, which DST-III then transforms in place
    y = dct(values, type=2, axis=ax)
    np.multiply(y[(Ellipsis, slice(1, n)) + rest] / n, symbol[1:],
                out=y[(Ellipsis, slice(0, n - 1)) + rest])
    y[(Ellipsis, n - 1) + rest] = 0.0
    out = dst(y, type=3, axis=ax, overwrite_x=True)
    out /= 2.0
    return out


def gradients(values: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """The spectral partial derivatives of u's values, one per grid axis, in order."""
    return [gradient_axis(values, grid, ax) for ax in range(grid.dim)]


def sum_of_squares(grads) -> np.ndarray:
    """The pointwise sum of the squares of the arrays, added in order into the first
    square: the bits of Python's sum from +0, as a square is never -0."""
    total = grads[0] ** 2
    for grad in grads[1:]:
        total += grad**2
    return total


def grad_norm_sq(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Pointwise |grad u|^2 of u's values, a sum of squares, so never negative."""
    return sum_of_squares(gradients(values, grid))


def h1_seminorm(u: ScalarField) -> float:
    """||grad u|| computed spectrally: sqrt(sum_m lambda_m |c_m|^2 * w)."""
    ev = u.grid.eigenvalues
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
    live, ev = grid.positive_modes
    return float(np.sqrt(np.sum(np.abs(coeffs[live]) ** 2 / ev) * grid.cell_volume))
