"""Fourier-space infrastructure on the periodic box [0, L)^d.

Conventions
-----------
Fourier coefficients follow the continuum normalization

    f_hat(k) = integral over the box of f(x) exp(-i k.x) dx,

realized as the DFT scaled by dx^d.  Wavenumbers are k = (2*pi/L) * n with
integer n in {-M/2, ..., M/2 - 1} per dimension.  Fields are real, so every
operator works on the half spectrum of the real-to-complex DFT (last-axis
indices 0..M/2), through the one transform pair `_hat`/`_real` (raw DFT, no
dx^d factor).  In d = 1 the pair is `rfft`/`irfft`.  In d = 2 it runs the
two 1-D passes that `rfftn`/`irfftn` run over the last two axes, without
their n-D argument handling: `rfft` over the last axis, then `fft` over the
columns in place; `ifft` over the columns, then `irfft` over the last axis.
The results are the n-D transforms' bit for bit.  Both take a leading batch
axis, so that several fields (the d gradient components of `div_n_grad`, N
and W*N of a step) go through one call.  The derivative symbols `Grid.ik`
(stacked, one row per axis) and `Grid.lap` zero every mode with an axis
index M/2, so odd derivatives of real fields stay real; this is standard
pseudospectral practice and only touches the resolution floor.

The weighted l1 norms

    ||f||_m = (1/L^d) * sum_k |k|^m |f_hat(k)|

(|k| the Euclidean modulus) are the regularity currency used throughout;
see dnorm().
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch

_LOG_MAX = float(np.log(np.finfo(float).max)) - 1.0  # a margin for the roundoff of k


@dataclass(frozen=True)
class Grid:
    """Uniform collocation grid on the d-torus of side L with M points per axis.

    M must be a power of two, M >= 8; d in {1, 2}; L > 0, with L^d and the
    largest |k|^4 = (pi M sqrt(d) / L)^4 finite.
    """

    d: int
    L: float
    M: int
    # half-spectrum |k|^2; derivative symbols i k (shape (d, ...), one row per
    # axis) and -|k|^2, both zero on every mode with an axis index M/2
    k2: np.ndarray = field(repr=False, compare=False, default=None)
    k2_max: float = field(repr=False, compare=False, default=None)  # the largest |k|^2
    ik: np.ndarray = field(repr=False, compare=False, default=None)
    lap: np.ndarray = field(repr=False, compare=False, default=None)
    # row m (0..4): |k|^m times the number of full-spectrum modes each
    # half-spectrum mode stands for (two for interior last-axis columns),
    # times dx^d / L^d, flattened; dnorm is this row applied to |f_hat|
    dnorm_weights: np.ndarray = field(repr=False, compare=False, default=None)

    @staticmethod
    def make(d: int, L: float, M: int) -> "Grid":
        if d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {d}")
        if M < 8 or (M & (M - 1)) != 0:
            raise ValueError(f"M must be a power of two >= 8, got {M}")
        if not L > 0:
            raise ValueError(f"L must be positive, got {L}")
        # L^d and the largest |k|^4 (of dnorm_weights) must be finite: checked
        # in logs, so that nothing overflows or divides by a 0 spacing first
        log_kmax = math.log(math.pi * M * math.sqrt(d)) - math.log(L)
        if max(d * math.log(L), 4.0 * log_kmax) >= _LOG_MAX:
            raise ValueError(f"L = {L} with M = {M} in d = {d}: L^d or |k|^4 overflows")
        k1 = 2.0 * np.pi * np.fft.fftfreq(M, d=L / M)
        kvec = [_half(k) for k in np.meshgrid(*([k1] * d), indexing="ij")]
        k2 = sum(k * k for k in kvec)
        nyq = np.meshgrid(*([np.arange(M) == M // 2] * d), indexing="ij")
        keep = _half(~np.logical_or.reduce(nyq))
        copies = np.full(M // 2 + 1, 2.0)
        copies[[0, -1]] = 1.0
        g = Grid(d, float(L), M)
        scale = copies * g.cell_volume / g.volume
        object.__setattr__(g, "k2", k2)
        object.__setattr__(g, "k2_max", float(np.max(k2)))
        object.__setattr__(g, "ik", np.stack([1j * k * keep for k in kvec]))
        object.__setattr__(g, "lap", -k2 * keep)
        object.__setattr__(g, "dnorm_weights",
                           np.stack([(np.sqrt(k2) ** m * scale).ravel() for m in range(5)]))
        return g

    @property
    def dx(self) -> float:
        return self.L / self.M

    @property
    def cell_volume(self) -> float:
        return self.dx**self.d

    @property
    def volume(self) -> float:
        return self.L**self.d

    @property
    def shape(self) -> tuple:
        return (self.M,) * self.d

    def points(self) -> tuple:
        """Coordinate arrays (broadcastable) of the collocation points."""
        x1 = np.arange(self.M) * self.dx
        out = []
        for ax in range(self.d):
            s = [1] * self.d
            s[ax] = self.M
            out.append(x1.reshape(s))
        return tuple(out)

    def periodic_radius(self) -> np.ndarray:
        """Distance from each collocation point to the origin on the torus."""
        x1 = np.arange(self.M) * self.dx
        x1 = np.minimum(x1, self.L - x1)
        if self.d == 1:
            return x1
        return np.sqrt(x1.reshape(-1, 1) ** 2 + x1.reshape(1, -1) ** 2)


@dataclass(frozen=True)
class RealField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not (-math.inf < v.min() and v.max() < math.inf):  # NaN fails both
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    @classmethod
    def _checked(cls, grid: Grid, values: np.ndarray) -> "RealField":
        """The field of float values its caller checked finite: no second scan."""
        (f := object.__new__(cls)).__dict__.update(grid=grid, values=values)
        return f

    def integral(self) -> float:
        """Collocation quadrature of the field over the box."""
        return float(np.sum(self.values)) * self.grid.cell_volume


def same_grid(a, b) -> None:
    """GridMismatch unless a and b lie on equal grids: `Grid` equality
    compares (d, L, M), its arrays being compare=False."""
    if a.grid != b.grid:
        raise GridMismatch(f"{a.grid} vs {b.grid}")


def _half(a: np.ndarray) -> np.ndarray:
    """The half-spectrum part (last-axis indices 0..M/2) of a full-spectrum array."""
    return a[..., : a.shape[-1] // 2 + 1]


def _hat(values: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum (raw DFT) of real samples over the grid's axes, which
    come last: a leading batch axis transforms each field in one call.  With
    `out`, a complex array of the result's shape, the result is written there.
    In d = 2, the two passes of `rfftn`, called directly: `rfft` over the
    last axis, then `fft` over the columns in place."""
    half = np.fft.rfft(values, out=out)
    return half if grid.d == 1 else np.fft.fft(half, axis=-2, out=half)


def _real(coeffs: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """Real samples of a half spectrum; inverse of `_hat`, batched alike, and
    written into `out` when it is given.  In d = 2, the two passes of
    `irfftn`: `ifft` over the columns into a fresh array, then `irfft`."""
    if grid.d == 2:
        coeffs = np.fft.ifft(coeffs, axis=-2)
    return np.fft.irfft(coeffs, n=grid.M, out=out)


def gradient(f: RealField) -> tuple:
    """Spectral gradient, one RealField per dimension.  Nyquist modes zeroed."""
    g = f.grid
    return tuple(RealField(g, c) for c in _real(g.ik * _hat(f.values, g), g))


def div_n_grad(grid: Grid, n: np.ndarray, f_hat: np.ndarray) -> np.ndarray:
    """Half spectrum of div(n grad f), from the half spectrum of f: the
    transport operator of every flow, metric and residual in the package.
    One inverse transform for the d gradient components, one forward for
    the d flux components."""
    flux = n * _real(grid.ik * f_hat, grid)
    return np.sum(grid.ik * _hat(flux, grid), axis=0)


def convolve(kernel, f: RealField) -> RealField:
    """Periodic convolution W*f of a `kernels.Kernel` with f, via the
    pointwise Fourier product W_hat * f_hat."""
    same_grid(kernel, f)
    return RealField(f.grid, _real(_hat(f.values, f.grid) * kernel.symbol, f.grid))


def _dnorms(grid: Grid, f_hat: np.ndarray, m_max: int) -> np.ndarray:
    """dnorm of orders 0..m_max from the half spectrum of the field, in one
    product of |f_hat| with the rows of `Grid.dnorm_weights`."""
    return grid.dnorm_weights[: m_max + 1] @ np.abs(f_hat).ravel()


def dnorm(f: RealField, m: int) -> float:
    """Weighted l1 Fourier norm (1/L^d) sum_k |k|^m |f_hat(k)|, m in 0..4."""
    if m not in (0, 1, 2, 3, 4):
        raise ValueError(f"m must be in 0..4, got {m}")
    return float(_dnorms(f.grid, _hat(f.values, f.grid), m)[m])


def l2_norm(f: RealField) -> float:
    """sqrt of the collocation quadrature of f^2."""
    return _l2_norm(f.values, f.grid)


def _l2_norm(values: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(np.sum(values**2) * grid.cell_volume))


def inner_l2(f: RealField, g_: RealField) -> float:
    same_grid(f, g_)
    return float(np.sum(f.values * g_.values) * f.grid.cell_volume)
