"""Interaction kernels: construction on the grid and regularity statistics.

Two families are shipped:

* a smoothed indicator (amplitude * [indicator of radius a] mollified at
  width eps), pointwise nonnegative and compactly supported, whose Fourier
  transform has negative lobes -- so the instability threshold theta_sharp
  is finite;
* a periodized Gaussian, strictly of positive type (all Fourier modes
  positive), for which theta_sharp is infinite.

Kernels are grid-resident: they are sampled on the collocation grid and
all statistics (v_m, theta_sharp, ...) are grid-relative quantities.  A
builder refuses an argument with ConfigError on its `[kernel]` key: a
geometry that does not fit the box, a negative amplitude, or an amplitude
whose kernel transform overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import ConfigError
from .spectral import Grid, RealField

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
    symbol: np.ndarray  # half spectrum of W, continuum-normalized: W*N has symbol * N_hat
    w: float  # W_hat(0) = integral of W
    range_a: float  # support radius (including mollifier width)
    stats: KernelStats


def _theta_sharp_of(what: np.ndarray) -> float:
    neg = what[what < -_NEG_TOL]
    if neg.size == 0:
        return math.inf
    return 1.0 / float(np.max(np.abs(neg)))


def _finish(grid: Grid, values: np.ndarray, range_a: float) -> Kernel:
    """The kernel of sampled `values`; a transform past float range is the
    amplitude's fault: the builders checked the geometry first."""
    with np.errstate(over="ignore", invalid="ignore"):
        # sliced from fftn, not rfftn, whose roundoff moves the last digit of simulated masses
        symbol = spectral._half(np.fft.fftn(values)) * grid.cell_volume
    if not np.isfinite(symbol).all():
        raise ConfigError("kernel.amplitude", "kernel transform overflows the float range")
    fld = RealField(grid, values)
    what = symbol.real  # even real kernel: coefficients real to roundoff
    # a half-spectrum mode stands for itself and its conjugate: sups need no
    # weights, sums take the copy weights of dnorm; a statistic may overflow to inf
    kmod = np.sqrt(grid.k2)
    with np.errstate(over="ignore"):
        stats = KernelStats(
            v=tuple(float(np.max(kmod**m * np.abs(what))) for m in range(5)),
            d2norm=float(grid.dnorm_weights[2] @ np.abs(what).ravel()) / grid.cell_volume,
            theta_sharp=_theta_sharp_of(what),
            positive_type=bool(np.min(what) >= -_NEG_TOL),
            pointwise_nonneg=bool(np.min(values) >= -_NEG_TOL),
        )
    return Kernel(grid, fld, symbol, w=float(what.flat[0]), range_a=range_a, stats=stats)


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
        raise ConfigError("kernel.mollifier_width",
                          f"need 0 < mollifier_width < radius, got {eps}, {a}")
    if a + eps >= grid.L / 4.0:
        raise ConfigError("kernel.radius",
                          f"radius + mollifier_width = {a + eps} >= L/4 = {grid.L / 4}")
    if amplitude < 0:
        raise ConfigError("kernel.amplitude", f"must be nonnegative, got {amplitude}")
    r = grid.periodic_radius()
    ind = (r <= a).astype(float)
    # smooth compactly-supported bump exp(-1/(1 - (r/eps)^2)) on r < eps
    with np.errstate(divide="ignore", over="ignore"):
        u = np.where(r < eps, r / eps, 1.0)
        bump = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u * u, 1e-300)), 0.0)
    # unit discrete mass, at least the e^-1 of r = 0: convolution preserves the
    # indicator's integral
    bump /= np.sum(bump)
    conv = spectral._real(spectral._hat(ind, grid) * spectral._hat(bump, grid), grid)
    with np.errstate(over="ignore"):  # a sample past float range is refused by _finish
        values = amplitude * np.maximum(conv, 0.0)  # clip FFT roundoff (~1e-16)
    return _finish(grid, values, a + eps)


def make_positive_type(grid: Grid, amplitude: float, width: float) -> Kernel:
    """Periodized Gaussian A * sum_images exp(-|x - nL|^2 / (2 s^2)).

    The sampled, periodized Gaussian has strictly positive DFT (Poisson
    summation: aliased sum of positive continuum transforms), so the kernel
    is of positive type and theta_sharp is infinite.
    """
    s = float(width)
    if not (0.0 < s < grid.L / 8.0 and 0.0 < 2.0 * s * s < math.inf):  # s^2 may under/overflow
        raise ConfigError("kernel.width", f"need 0 < width < L/8 = {grid.L / 8} with "
                                          f"0 < 2 width^2 < inf, got {s}")
    if amplitude < 0:
        raise ConfigError("kernel.amplitude", f"must be nonnegative, got {amplitude}")
    x1 = np.arange(grid.M) * grid.dx
    prof = np.zeros(grid.M)
    # an image whose squared offset (or its ratio to 2 s^2) overflows adds exp(-inf) = 0;
    # a sample past float range is refused by _finish
    with np.errstate(over="ignore"):
        for n in range(-3, 4):
            prof += np.exp(-((x1 - n * grid.L) ** 2) / (2.0 * s * s))
        if grid.d == 1:
            values = amplitude * prof
        else:
            values = amplitude * prof.reshape(-1, 1) * prof.reshape(1, -1)
    return _finish(grid, values, min(6.0 * s, grid.L / 2.0))


def stats_json(kernel: Kernel) -> dict:
    """KernelStats as a flat JSON-serializable dict (CLI `kernel-info`); a
    statistic that is not finite (theta_sharp = inf, or a v_m or d2norm past
    float range) is written as null."""
    s = kernel.stats
    numbers = {"w": kernel.w, "range": kernel.range_a,
               **{f"v{m}": vm for m, vm in enumerate(s.v)},
               "d2norm": s.d2norm, "theta_sharp": s.theta_sharp}
    return {
        **{key: x if math.isfinite(x) else None for key, x in numbers.items()},
        "positive_type": s.positive_type,
        "pointwise_nonneg": s.pointwise_nonneg,
        "grid": {"d": kernel.grid.d, "L": kernel.grid.L, "M": kernel.grid.M},
        "note": "v_m and theta_sharp are grid-relative (computed over grid modes)",
    }
