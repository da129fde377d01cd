"""Thermodynamic functionals, driving potential, mobility, and rate constants.

The problem instance is (grid, kernel, chemical potential mu, corridor
parameter kappa).  The uniform equilibrium density m0 solves the fixed-point
relation m0 = exp(mu - w*m0) with w the kernel integral; either mu or a
target m0 may be prescribed (the other is derived).

The grand free energy is

    G(N) = int N log N - (1 + mu) N dx + (1/2) int (W*N) N dx,

with the interaction term evaluated in real space from W*N, which every
simulation state caches; `interaction_energy` gives its Fourier form
(1 / 2 L^d) sum_k W_hat(k) |N_hat(k)|^2.  Its variational derivative is the
driving potential Phi_N = log N - mu + W*N, and the mobility weight is
Omega_N = sqrt(N) * sinhc(Phi_N / 2) >= sqrt(N) > 0.

Each formula lives in one array-level helper (`_free_energy`, `_potential`,
`_omega`, `_weighted_inner`).  The public functionals validate their RealField
arguments and call these helpers; the diagnostics record calls them on a
state's cached arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from . import spectral
from .errors import NoConvergence, NonpositiveDensity
from .kernels import Kernel
from .spectral import Grid, RealField


@dataclass(frozen=True)
class ModelParams:
    grid: Grid
    kernel: Kernel
    mu: float
    m0: float
    kappa: float

    def __post_init__(self):
        if not (0.0 < self.kappa < 0.5):
            raise ValueError(f"kappa must be in (0, 1/2), got {self.kappa}")
        resid = abs(self.m0 - math.exp(self.mu - self.kernel.w * self.m0))
        if resid > 1e-12 * max(1.0, self.m0):
            raise ValueError(f"(mu, m0) inconsistent: fixed-point residual {resid:.3e}")


def make_params(grid: Grid, kernel: Kernel, kappa: float, mu: float | None = None,
                m0: float | None = None) -> ModelParams:
    """Build ModelParams from exactly one of mu or a target m0."""
    if (mu is None) == (m0 is None):
        raise ValueError("exactly one of mu, m0 must be given")
    w = kernel.w
    if m0 is None:
        m0 = solve_uniform_density(mu, w)
    else:
        if m0 <= 0:
            raise ValueError(f"m0 must be positive, got {m0}")
        mu = math.log(m0) + w * m0
    return ModelParams(grid, kernel, float(mu), float(m0), float(kappa))


def solve_uniform_density(mu: float, w: float, max_iter: int = 200) -> float:
    """Unique positive root of x * exp(w x) = exp(mu) for w >= 0.

    Safeguarded Newton (bisection fallback via brentq bracket); residual
    |x - exp(mu - w x)| <= 1e-14 * max(1, x).
    """
    if w < 0:
        raise ValueError(f"kernel integral must be nonnegative, got {w}")
    if w == 0.0:
        return math.exp(mu)

    def f(x):
        return math.log(x) + w * x - mu  # log form: monotone, well-scaled

    lo = min(math.exp(mu), math.exp(mu - w * math.exp(mu)))
    hi = math.exp(mu)
    lo *= 0.5
    hi = hi * 1.0 + 1e-300
    # expand bracket defensively
    it = 0
    while f(lo) > 0:
        lo *= 0.5
        it += 1
        if it > max_iter:
            raise NoConvergence("failed to bracket the uniform density")
    while f(hi) < 0:
        hi *= 2.0
        it += 1
        if it > max_iter:
            raise NoConvergence("failed to bracket the uniform density")
    x = brentq(f, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=max_iter)
    # one Newton polish in the original variables
    for _ in range(3):
        g = x - math.exp(mu - w * x)
        if abs(g) <= 1e-14 * max(1.0, x):
            return x
        x -= g / (1.0 + w * math.exp(mu - w * x))
    if abs(x - math.exp(mu - w * x)) > 1e-14 * max(1.0, x):
        raise NoConvergence("uniform-density residual above tolerance")
    return x


@dataclass(frozen=True)
class RateConstants:
    sigma: float
    gsq: float
    lambda_dagger: float
    sigma_nonpositive: bool  # set when sigma <= 0 and lambda_dagger was clamped


def rate_constants(params: ModelParams) -> RateConstants:
    """sigma = (kappa/m0 - 1/theta_sharp)/2, g^2 = (kappa m0)^{-1/2}, and
    lambda_dagger = sigma / g^2, clamped to 0 when sigma <= 0."""
    ts = params.kernel.stats.theta_sharp
    inv_ts = 0.0 if math.isinf(ts) else 1.0 / ts
    sigma = 0.5 * (params.kappa / params.m0 - inv_ts)
    gsq = 1.0 / math.sqrt(params.kappa * params.m0)
    clamped = sigma <= 0
    lam = 0.0 if clamped else sigma / gsq
    return RateConstants(sigma=sigma, gsq=gsq, lambda_dagger=lam, sigma_nonpositive=clamped)


def _require_positive(n: RealField) -> None:
    if np.min(n.values) <= 0.0:
        raise NonpositiveDensity(f"min density {np.min(n.values):.3e}")


def interaction_energy(n: RealField, kernel: Kernel) -> float:
    """(1 / 2 L^d) sum_k W_hat(k) |N_hat(k)|^2 (equals the double integral)."""
    g = n.grid
    what = spectral._half(kernel.spectrum.coeffs.real)
    power = (what * np.abs(spectral._hat(n.values, g)) ** 2).ravel()
    return 0.5 * g.cell_volume * float(g.dnorm_weights[0] @ power)


def free_energy_grand(n: RealField, params: ModelParams) -> float:
    return _free_energy_of(n, params.kernel, params.mu)


def free_energy_canonical(n: RealField, kernel: Kernel) -> float:
    return _free_energy_of(n, kernel, 0.0)


def _free_energy_of(n: RealField, kernel: Kernel, mu: float) -> float:
    _require_positive(n)
    wn = spectral.convolve(kernel.spectrum, n)
    return _free_energy(n.values, np.log(n.values), wn.values, mu, n.grid.cell_volume)


def _free_energy(n: np.ndarray, log_n: np.ndarray, wn: np.ndarray, mu: float,
                 cell_volume: float) -> float:
    """int N log N - (1 + mu) N + (1/2) (W*N) N dx, from the arrays of N,
    log N and W*N."""
    return float(np.sum(n * (log_n - (1.0 + mu) + 0.5 * wn))) * cell_volume


def potential_phi(n: RealField, params: ModelParams, wn: RealField | None = None) -> RealField:
    """Driving potential Phi_N = log N - mu + W*N (the variational derivative
    of the grand free energy)."""
    _require_positive(n)
    if wn is None:
        wn = spectral.convolve(params.kernel.spectrum, n)
    return RealField(n.grid, _potential(np.log(n.values), wn.values, params.mu))


def _potential(log_n: np.ndarray, wn: np.ndarray, mu: float) -> np.ndarray:
    """Phi_N from the arrays of log N and W*N."""
    return log_n - mu + wn


def sinhc_half(phi: np.ndarray) -> np.ndarray:
    """sinh(phi/2) / (phi/2), series near 0 to dodge cancellation."""
    x = 0.5 * phi
    small = np.abs(x) < 1e-4
    out = np.empty_like(x)
    xs = x[small]
    out[small] = 1.0 + xs * xs / 6.0 + xs**4 / 120.0
    xl = x[~small]
    out[~small] = np.sinh(xl) / xl
    return out


def omega(n: RealField, params: ModelParams, wn: RealField | None = None,
          phi: RealField | None = None) -> RealField:
    """Mobility Omega_N = sqrt(N) * sinhc(Phi_N / 2); pointwise >= sqrt(N)."""
    _require_positive(n)
    if phi is None:
        phi = potential_phi(n, params, wn)
    return RealField(n.grid, _omega(n.values, phi.values))


def _omega(n: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Omega_N from the arrays of N and Phi_N."""
    return np.sqrt(n) * sinhc_half(phi)


def weighted_inner(n: RealField, params: ModelParams, f: RealField, g: RealField,
                   omega_n: RealField | None = None) -> float:
    """int N (grad f . grad g) + Omega_N f g dx (collocation quadrature)."""
    _require_positive(n)
    if omega_n is None:
        omega_n = omega(n, params)
    grid = n.grid
    grad_f = spectral._real(grid.ik * spectral._hat(f.values, grid), grid)
    grad_g = grad_f if g is f else spectral._real(grid.ik * spectral._hat(g.values, grid), grid)
    return _weighted_inner(n.values, omega_n.values, f.values, g.values, grad_f, grad_g,
                           grid.cell_volume)


def _weighted_inner(n: np.ndarray, omega_n: np.ndarray, f: np.ndarray, g: np.ndarray,
                    grad_f: np.ndarray, grad_g: np.ndarray, cell_volume: float) -> float:
    """weighted_inner from arrays; the gradients are stacked, one row per axis."""
    grad_dot = np.sum(grad_f * grad_g, axis=0)
    return float(np.sum(n * grad_dot + omega_n * f * g)) * cell_volume


def dissipation(n: RealField, params: ModelParams, wn: RealField | None = None) -> float:
    """Instantaneous free-energy dissipation rate: the weighted quadratic form
    of Phi_N with itself."""
    phi = potential_phi(n, params, wn)
    g = n.grid
    grad_phi = spectral._real(g.ik * spectral._hat(phi.values, g), g)
    return _dissipation(n.values, phi.values, grad_phi, g.cell_volume)


def _dissipation(n: np.ndarray, phi: np.ndarray, grad_phi: np.ndarray,
                 cell_volume: float) -> float:
    """dissipation from the arrays of N, Phi_N and its gradient (stacked)."""
    return _weighted_inner(n, _omega(n, phi), phi, phi, grad_phi, grad_phi, cell_volume)


def convexity_quadratic_form(n_a: RealField, n_b: RealField, s: float,
                             params: ModelParams) -> float:
    """Second derivative of the grand free energy along the segment from n_a
    to n_b, evaluated at interpolation parameter s:

        int R^2 / N_s dx + int int W(x-y) R(x) R(y) dx dy,  R = n_b - n_a.
    """
    _require_positive(n_a)
    _require_positive(n_b)
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"s must be in [0, 1], got {s}")
    r = n_b.values - n_a.values
    ns = (1.0 - s) * n_a.values + s * n_b.values
    first = float(np.sum(r * r / ns)) * n_a.grid.cell_volume
    rf = RealField(n_a.grid, r)
    return first + 2.0 * interaction_energy(rf, params.kernel)


def in_corridor(n: RealField, params: ModelParams) -> bool:
    """kappa*m0 < N < m0/kappa pointwise."""
    lo = params.kappa * params.m0
    hi = params.m0 / params.kappa
    return bool(np.min(n.values) > lo and np.max(n.values) < hi)
