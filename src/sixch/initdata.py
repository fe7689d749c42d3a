"""Admissible initial states and the double-resolvent regularization.

Generated states always satisfy ||u0||_inf <= 1 - 1e-6 and hit the target
mean to 1e-12, which keeps beta(u0) square integrable (finite initial
energy).  `regularize_initial` implements the approximation pipeline used
by the truncated solver mode:

    u0n = (I + A/n)^{-1} (I + A/n)^{-1} ((1 - 2/n) * u0),

whose mean is exactly (1 - 2/n) * mean(u0) because the resolvents fix the
mass mode.  The continuum pipeline keeps values inside [-1+2/n, 1-2/n] by
the maximum principle; the spectral resolvent does not obey a discrete
maximum principle exactly, so the bound is *verified* up to a small
tolerance and violations raise instead of being clamped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import default_rng  # loaded at import, so that a solve does not pay for it

from . import grid as gr
from .errors import BoundOvershoot, SpecError
from .grid import Grid, ScalarField
from .potential import TruncationLevel

AMP_MARGIN = 1e-6  # generated states keep ||u||_inf <= 1 - AMP_MARGIN
MEAN_TOL = 1e-12  # generated states have |mean(u) - mean_m| <= MEAN_TOL

CONSTANT = "constant"
TANH_INTERFACE = "tanh"
BAND_NOISE = "noise"
SINGLE_MODE = "mode"


@dataclass(frozen=True)
class InitialSpec:
    """Recipe for an admissible initial state.

    kind:
        "constant"  — u = mean_m everywhere (amplitude ignored).
        "mode"      — mean_m + amplitude * (basis cosine of index `mode`).
        "noise"     — seeded band-limited noise of the given sup amplitude
                      on modes 1..cutoff per axis.
        "tanh"      — mean_m + amplitude * centred tanh((x - position)/width)
                      profile along the first axis.
    """

    kind: str
    mean_m: float = 0.0
    amplitude: float = 0.0
    seed: int = 0
    mode: int = 1
    cutoff: int = 8
    position: Optional[float] = None
    width: Optional[float] = None

    def __post_init__(self):
        if self.kind not in (CONSTANT, TANH_INTERFACE, BAND_NOISE, SINGLE_MODE):
            raise SpecError(f"unknown initial kind {self.kind!r}")
        if not -1.0 < self.mean_m < 1.0:
            raise SpecError("mean must lie strictly inside (-1, 1)")
        if not self.amplitude >= 0:  # NaN too
            raise SpecError("amplitude must be nonnegative")
        if self.seed < 0:
            raise SpecError("seed must be nonnegative")


def check_realizable(spec: InitialSpec, grid: Grid) -> None:
    """Raise SpecError unless `generate` can build `spec` on `grid`; builds nothing.

    Checks the amplitude margin, the constant level, that the first axis
    resolves a single mode (mode < counts[0] if neumann, <= counts[0] // 2
    if periodic; a higher one aliases), that noise has at least one mode
    below its cutoff, and that the interface position and width are finite
    (the width positive) and give a profile that varies on the grid by more
    than rounding (at least 1/AMP_MARGIN ulps of its largest value).  Only
    a degenerate noise draw is left to `generate`.
    """
    m = spec.mean_m
    if spec.kind == CONSTANT:
        if abs(m) > 1.0 - AMP_MARGIN:
            raise SpecError("constant level too close to the pure states")
        return
    if abs(m) + spec.amplitude > 1.0 - AMP_MARGIN:
        raise SpecError(
            f"|mean| + amplitude = {abs(m) + spec.amplitude:.8f} exceeds {1 - AMP_MARGIN}")
    top = grid.counts[0] - 1 if grid.bc == gr.NEUMANN else grid.counts[0] // 2
    if spec.kind == SINGLE_MODE and not 1 <= spec.mode <= top:
        raise SpecError(f"mode index must lie in 1..{top} to be resolved on the first axis")
    if spec.kind == BAND_NOISE and min(spec.cutoff, min(grid.counts) // 2 - 1) < 1:
        raise SpecError("grid too coarse for band-limited noise")
    if spec.kind == TANH_INTERFACE:
        if spec.position is not None and not np.isfinite(spec.position):
            raise SpecError("interface position must be finite")
        if spec.width is not None and not 0.0 < spec.width < np.inf:  # NaN too
            raise SpecError("interface width must be positive and finite")
        profile = _tanh_profile(spec, grid, grid.axis_coords(0))
        if np.ptp(profile) < np.spacing(np.max(np.abs(profile))) / AMP_MARGIN:
            raise SpecError("interface profile is constant on the grid, up to rounding")


def _tanh_profile(spec: InitialSpec, grid: Grid, x: np.ndarray) -> np.ndarray:
    """tanh((x - position)/width) at first-axis coordinates x, uncentred."""
    l = grid.lengths[0]
    x0 = spec.position if spec.position is not None else 0.5 * l
    w = spec.width if spec.width is not None else 0.05 * l
    with np.errstate(over="ignore"):  # a tiny width: tanh(+-inf) is the step
        return np.tanh((x - x0) / w)


def generate(spec: InitialSpec, grid: Grid) -> ScalarField:
    """Deterministically build the field described by `spec` on `grid`."""
    check_realizable(spec, grid)
    m = spec.mean_m
    if spec.kind == CONSTANT:
        return gr.constant_field(grid, m)

    if spec.kind == SINGLE_MODE:
        x = grid.meshgrid()[0]
        l = grid.lengths[0]
        if grid.bc == gr.PERIODIC:
            profile = np.cos(2.0 * np.pi * spec.mode * x / l)
        else:
            profile = np.cos(np.pi * spec.mode * x / l)
        return ScalarField(grid, m + spec.amplitude * profile)

    if spec.kind == BAND_NOISE:
        cutoff = min(spec.cutoff, min(grid.counts) // 2 - 1)
        rng = default_rng(spec.seed)
        coeffs = np.zeros(grid.shape)
        # excite every multi-index with 1 <= max(index) <= cutoff, zero mass mode
        box = tuple(slice(0, cutoff + 1) for _ in grid.counts)
        coeffs[box] = rng.standard_normal(coeffs[box].shape)
        coeffs.flat[0] = 0.0
        if grid.bc == gr.PERIODIC:
            coeffs = coeffs.astype(complex)
        dev = gr.transform_backward(coeffs, grid)
        dev -= dev.mean()
        peak = np.max(np.abs(dev))
        if peak == 0.0:
            raise SpecError("degenerate noise draw")
        return ScalarField(grid, m + spec.amplitude * dev / peak)

    # tanh interface along the first axis
    profile = _tanh_profile(spec, grid, grid.meshgrid()[0])
    profile -= profile.mean()
    peak = np.max(np.abs(profile))
    return ScalarField(grid, m + spec.amplitude * profile / peak)


def regularize_initial(u0: ScalarField, lvl: TruncationLevel) -> ScalarField:
    """Scale toward zero by (1 - 2/n) and smooth twice with (I + A/n)^{-1}.

    Returns a state suitable for the level-n truncated solver.  Raises
    BoundOvershoot when spectral overshoot exceeds 1e-8 * ||u0||_inf past
    the interval [-1+2/n, 1-2/n] (an under-resolved input).
    """
    sup = gr.lp_norm(u0, np.inf)
    if sup > 1.0:
        raise SpecError("initial state must satisfy ||u0||_inf <= 1")
    n = lvl.n
    scaled = ScalarField(u0.grid, (1.0 - 2.0 / n) * u0.values)
    smoothed = gr.resolvent(gr.resolvent(scaled, 1.0 / n), 1.0 / n)
    bound = 1.0 - 2.0 / n
    tol = 1e-8 * max(sup, 1e-300)
    overshoot = float(np.max(np.abs(smoothed.values))) - bound
    if overshoot > tol:
        raise BoundOvershoot(
            f"regularized state exceeds 1 - 2/n by {overshoot:.3e} (> {tol:.3e}); "
            "refine the grid or smooth the input")
    return smoothed
