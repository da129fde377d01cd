"""Fourier-space infrastructure on the periodic box [0, L)^d.

Conventions
-----------
Fourier coefficients follow the continuum normalization

    f_hat(k) = integral over the box of f(x) exp(-i k.x) dx,

realized as the DFT scaled by dx^d.  Wavenumbers are k = (2*pi/L) * n with
integer n in {-M/2, ..., M/2 - 1} per dimension.  `forward`/`inverse` keep
this full spectrum as the reference.  Every operator works instead on the
half spectrum of the real-to-complex DFT (last-axis indices 0..M/2), through
the one transform pair `_hat`/`_real` (raw DFT, no dx^d factor).  The pair is
chosen by d -- `rfft`/`irfft` in d = 1, `rfftn`/`irfftn` over the last two
axes in d = 2 -- and takes a leading batch axis, so that several fields (the
d gradient components of `div_n_grad`, N and W*N of a step) go through one
call.  The derivative symbols `Grid.ik` (stacked, one row per axis) and
`Grid.lap` zero every mode with an axis index M/2, so odd derivatives of real
fields stay real; this is standard pseudospectral practice and only touches
the resolution floor.

The weighted l1 norms

    ||f||_m = (1/L^d) * sum_k |k|^m |f_hat(k)|

(|k| the Euclidean modulus) are the regularity currency used throughout;
see dnorm().
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, NonHermitianInput, NonpositiveH

_ROUNDTRIP_RTOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform collocation grid on the d-torus of side L with M points per axis.

    M must be a power of two, M >= 8; d in {1, 2}.
    """

    d: int
    L: float
    M: int
    # full-spectrum |k|^2 and |k|; half-spectrum derivative symbols i k (shape
    # (d, ...), one row per axis) and -|k|^2, both zero on every mode with an
    # axis index M/2
    k2: np.ndarray = field(repr=False, compare=False, default=None)
    kmod: np.ndarray = field(repr=False, compare=False, default=None)
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
        if L <= 0:
            raise ValueError(f"L must be positive, got {L}")
        k1 = 2.0 * np.pi * np.fft.fftfreq(M, d=L / M)
        kvec = np.meshgrid(*([k1] * d), indexing="ij")
        k2 = sum(k * k for k in kvec)
        nyq = np.meshgrid(*([np.arange(M) == M // 2] * d), indexing="ij")
        keep = _half(~np.logical_or.reduce(nyq))
        kmod = np.sqrt(k2)
        copies = np.full(M // 2 + 1, 2.0)
        copies[[0, -1]] = 1.0
        g = Grid(d, float(L), M)
        scale = copies * g.cell_volume / g.volume
        object.__setattr__(g, "k2", k2)
        object.__setattr__(g, "kmod", kmod)
        object.__setattr__(g, "ik", np.stack([1j * _half(k) * keep for k in kvec]))
        object.__setattr__(g, "lap", -_half(k2) * keep)
        object.__setattr__(g, "dnorm_weights",
                           np.stack([(_half(kmod) ** m * scale).ravel() for m in range(5)]))
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
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    def integral(self) -> float:
        """Collocation quadrature of the field over the box."""
        return float(np.sum(self.values)) * self.grid.cell_volume


@dataclass(frozen=True)
class Spectrum:
    grid: Grid
    coeffs: np.ndarray


def same_grid(a, b) -> None:
    if a.grid is not b.grid and (a.grid.d, a.grid.L, a.grid.M) != (b.grid.d, b.grid.L, b.grid.M):
        raise GridMismatch(f"{a.grid} vs {b.grid}")


def forward(f: RealField) -> Spectrum:
    """Continuum-normalized Fourier coefficients of a real field."""
    return Spectrum(f.grid, np.fft.fftn(f.values) * f.grid.cell_volume)


def inverse(spec: Spectrum) -> RealField:
    """Back-transform; errors out if the imaginary residue is non-negligible."""
    v = np.fft.ifftn(spec.coeffs) / spec.grid.cell_volume
    scale = max(np.max(np.abs(v.real)), 1e-300)
    if np.max(np.abs(v.imag)) > _ROUNDTRIP_RTOL * max(scale, 1.0):
        raise NonHermitianInput(
            f"imaginary residue {np.max(np.abs(v.imag)):.3e} (field scale {scale:.3e})"
        )
    return RealField(spec.grid, v.real)


def _half(a: np.ndarray) -> np.ndarray:
    """The half-spectrum part (last-axis indices 0..M/2) of a full-spectrum array."""
    return a[..., : a.shape[-1] // 2 + 1]


def _hat(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Half spectrum (raw DFT) of real samples over the grid's axes, which
    come last: a leading batch axis transforms each field in one call."""
    if grid.d == 1:
        return np.fft.rfft(values)
    return np.fft.rfftn(values, axes=(-2, -1))


def _real(coeffs: np.ndarray, grid: Grid) -> np.ndarray:
    """Real samples of a half spectrum; inverse of `_hat`, batched alike."""
    if grid.d == 1:
        return np.fft.irfft(coeffs, n=grid.M)
    return np.fft.irfftn(coeffs, s=grid.shape, axes=(-2, -1))


def gradient(f: RealField) -> tuple:
    """Spectral gradient, one RealField per dimension.  Nyquist modes zeroed."""
    g = f.grid
    return tuple(RealField(g, c) for c in _real(g.ik * _hat(f.values, g), g))


def laplacian(f: RealField) -> RealField:
    g = f.grid
    return RealField(g, _real(g.lap * _hat(f.values, g), g))


def divergence(fields: tuple) -> RealField:
    """Spectral divergence of a vector field given componentwise."""
    g = fields[0].grid
    flux_hat = _hat(np.stack([f.values for f in fields]), g)
    return RealField(g, _real(np.sum(g.ik * flux_hat, axis=0), g))


def div_n_grad(grid: Grid, n: np.ndarray, f_hat: np.ndarray) -> np.ndarray:
    """Half spectrum of div(n grad f), from the half spectrum of f: the
    transport operator of every flow, metric and residual in the package.
    One inverse transform for the d gradient components, one forward for
    the d flux components."""
    flux = n * _real(grid.ik * f_hat, grid)
    return np.sum(grid.ik * _hat(flux, grid), axis=0)


def convolve(kernel_spectrum: Spectrum, f: RealField) -> RealField:
    """Periodic convolution via the pointwise Fourier product W_hat * f_hat."""
    same_grid(kernel_spectrum, f)
    return RealField(f.grid, _real(_hat(f.values, f.grid) * _half(kernel_spectrum.coeffs),
                                   f.grid))


def helmholtz_inverse(f: RealField, h: float) -> RealField:
    """Apply (1 - h*laplacian)^{-1}: divide each mode by 1 + h|k|^2.

    Uses the same symbol as `laplacian` (Nyquist modes carry no derivative),
    so (1 - h*laplacian) composed with this map is the exact identity."""
    if h <= 0:
        raise NonpositiveH(f"h must be positive, got {h}")
    g = f.grid
    return RealField(g, _real(_hat(f.values, g) / (1.0 - h * g.lap), g))


def _dnorms(grid: Grid, f_hat: np.ndarray, m_max: int) -> np.ndarray:
    """dnorm of orders 0..m_max from the half spectrum of the field, in one
    product of |f_hat| with the rows of `Grid.dnorm_weights`."""
    return grid.dnorm_weights[: m_max + 1] @ np.abs(f_hat).ravel()


def _dnorm(grid: Grid, f_hat: np.ndarray, m: int) -> float:
    """dnorm from the half spectrum of the field."""
    return float(_dnorms(grid, f_hat, m)[m])


def dnorm(f: RealField, m: int) -> float:
    """Weighted l1 Fourier norm (1/L^d) sum_k |k|^m |f_hat(k)|, m in 0..4."""
    if m not in (0, 1, 2, 3, 4):
        raise ValueError(f"m must be in 0..4, got {m}")
    return _dnorm(f.grid, _hat(f.values, f.grid), m)


def l2_norm(f: RealField) -> float:
    """sqrt of the collocation quadrature of f^2."""
    return float(np.sqrt(np.sum(f.values**2) * f.grid.cell_volume))


def inner_l2(f: RealField, g_: RealField) -> float:
    same_grid(f, g_)
    return float(np.sum(f.values * g_.values) * f.grid.cell_volume)
