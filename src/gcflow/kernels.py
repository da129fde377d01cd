"""Interaction kernels: construction on the grid and regularity statistics.

Two families are shipped:

* a smoothed indicator (amplitude * [indicator of radius a] mollified at
  width eps), pointwise nonnegative and compactly supported, whose Fourier
  transform has negative lobes -- so the instability threshold theta_sharp
  is finite;
* a periodized Gaussian, strictly of positive type (all Fourier modes
  positive), for which theta_sharp is infinite.

Kernels are grid-resident: they are sampled on the collocation grid and
all statistics (v_m, theta_sharp, ...) are grid-relative quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import BadMollifier, RangeTooLarge, WidthTooLarge
from .spectral import Grid, RealField, Spectrum

_NEG_TOL = 1e-12


@dataclass(frozen=True)
class KernelStats:
    v: tuple  # v_m = sup_k |k|^m |W_hat(k)| for m = 0..4
    d2norm: float  # (1/L^d) sum_k k^2 |W_hat(k)|
    theta_sharp: float  # +inf when no negative Fourier mode exists
    positive_type: bool
    pointwise_nonneg: bool


@dataclass(frozen=True)
class Kernel:
    grid: Grid
    values: RealField
    spectrum: Spectrum
    w: float  # W_hat(0) = integral of W
    range_a: float  # support radius (including mollifier width)
    stats: KernelStats


def _theta_sharp_of(what: np.ndarray) -> float:
    neg = what[what < -_NEG_TOL]
    if neg.size == 0:
        return math.inf
    return 1.0 / float(np.max(np.abs(neg)))


def _finish(grid: Grid, values: np.ndarray, range_a: float) -> Kernel:
    fld = RealField(grid, values)
    spec = spectral.forward(fld)
    what = spec.coeffs.real  # even real kernel: coefficients real to roundoff
    kmod = grid.kmod
    v = tuple(float(np.max(kmod**m * np.abs(what))) for m in range(5))
    stats = KernelStats(
        v=v,
        d2norm=float(np.sum(grid.k2 * np.abs(what))) / grid.volume,
        theta_sharp=_theta_sharp_of(what),
        positive_type=bool(np.min(what) >= -_NEG_TOL),
        pointwise_nonneg=bool(np.min(values) >= -_NEG_TOL),
    )
    return Kernel(grid, fld, spec, w=float(what.flat[0]), range_a=range_a, stats=stats)


def make_smoothed_indicator(
    grid: Grid, amplitude: float, radius: float, mollifier_width: float
) -> Kernel:
    """A * (indicator of |x| <= radius, mollified at width eps), periodized.

    The mollification is a discrete circular convolution of the sampled
    indicator with a sampled compactly-supported bump of unit discrete mass,
    so the result is pointwise nonnegative to machine precision.
    """
    a, eps = float(radius), float(mollifier_width)
    if not (0.0 < eps < a):
        raise BadMollifier(f"need 0 < mollifier_width < radius, got {eps}, {a}")
    if a + eps >= grid.L / 4.0:
        raise RangeTooLarge(f"radius + mollifier_width = {a + eps} >= L/4 = {grid.L / 4}")
    if amplitude < 0:
        raise ValueError(f"amplitude must be nonnegative, got {amplitude}")
    r = grid.periodic_radius()
    ind = (r <= a).astype(float)
    # smooth compactly-supported bump exp(-1/(1 - (r/eps)^2)) on r < eps
    with np.errstate(divide="ignore", over="ignore"):
        u = np.where(r < eps, r / eps, 1.0)
        bump = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u * u, 1e-300)), 0.0)
    mass = np.sum(bump)
    if mass <= 0:
        raise BadMollifier(f"mollifier_width {eps} unresolved on dx = {grid.dx}")
    bump /= mass  # unit discrete mass: convolution preserves the indicator's integral
    conv = spectral._real(spectral._hat(ind, grid) * spectral._hat(bump, grid), grid)
    values = amplitude * np.maximum(conv, 0.0)  # clip FFT roundoff (~1e-16)
    return _finish(grid, values, a + eps)


def make_positive_type(grid: Grid, amplitude: float, width: float) -> Kernel:
    """Periodized Gaussian A * sum_images exp(-|x - nL|^2 / (2 s^2)).

    The sampled, periodized Gaussian has strictly positive DFT (Poisson
    summation: aliased sum of positive continuum transforms), so the kernel
    is of positive type and theta_sharp is infinite.
    """
    s = float(width)
    if s >= grid.L / 8.0:
        raise WidthTooLarge(f"width {s} >= L/8 = {grid.L / 8}")
    if s <= 0 or amplitude < 0:
        raise ValueError("width must be positive and amplitude nonnegative")
    x1 = np.arange(grid.M) * grid.dx
    prof = np.zeros(grid.M)
    for n in range(-3, 4):
        prof += np.exp(-((x1 - n * grid.L) ** 2) / (2.0 * s * s))
    if grid.d == 1:
        values = amplitude * prof
    else:
        values = amplitude * prof.reshape(-1, 1) * prof.reshape(1, -1)
    return _finish(grid, values, min(6.0 * s, grid.L / 2.0))


def theta_sharp(kernel: Kernel) -> float:
    """Reciprocal of the largest-magnitude negative Fourier mode; +inf if none."""
    return kernel.stats.theta_sharp


def hstability_report(kernel: Kernel) -> dict:
    """Sufficient-condition check for stability of the interaction form.

    Either pointwise nonnegativity of W or positivity of all Fourier modes
    guarantees the double-integral quadratic form is nonnegative over
    nonnegative densities.  certified == False means undetermined, not a
    disproof (full co-positivity is not tested).
    """
    s = kernel.stats
    return {
        "pointwise_nonneg": s.pointwise_nonneg,
        "positive_type": s.positive_type,
        "certified": s.pointwise_nonneg or s.positive_type,
    }


def stats_json(kernel: Kernel) -> dict:
    """KernelStats as a flat JSON-serializable dict (CLI `kernel-info`)."""
    s = kernel.stats
    return {
        "w": kernel.w,
        "range": kernel.range_a,
        "v0": s.v[0],
        "v1": s.v[1],
        "v2": s.v[2],
        "v3": s.v[3],
        "v4": s.v[4],
        "d2norm": s.d2norm,
        "theta_sharp": None if math.isinf(s.theta_sharp) else s.theta_sharp,
        "positive_type": s.positive_type,
        "pointwise_nonneg": s.pointwise_nonneg,
        "grid": {"d": kernel.grid.d, "L": kernel.grid.L, "M": kernel.grid.M},
        "note": "v_m and theta_sharp are grid-relative (computed over grid modes)",
    }
