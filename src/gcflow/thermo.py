"""The model: uniform state, free energy, driving potential, mobility, and
rate constants.

The problem instance is (grid, kernel, chemical potential mu, corridor
parameter kappa).  The uniform equilibrium density m0 solves the fixed-point
relation m0 = exp(mu - w*m0) with w the kernel integral; either mu or a
target m0 may be prescribed (the other is derived).

The grand free energy is

    G(N) = int N log N - (1 + mu) N dx + (1/2) int (W*N) N dx,

with the interaction term evaluated in real space from W*N, which every
simulation state caches.  Its variational derivative is the driving potential
Phi_N = log N - mu + W*N, and the mobility weight is
Omega_N = sqrt(N) * sinhc(Phi_N / 2) >= sqrt(N) > 0.

Each formula lives in one array-level helper (`_free_energy`, `_potential`,
`_omega`, `_dissipation`).  The simulation and the metric take Phi_N and
Omega_N from a `dynamics.SimState`, which forms them with these helpers from
its cached Psi = log N and W*N.  A diagnostics record forms no Omega_N:
`_dissipation` writes Omega_N Phi_N as 2 sqrt(N) sinh(Phi_N / 2).  The
functionals of a bare density are no part of the library: the tests hold
them, written out on their own, as the reference the helpers are checked
against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import spectral
from .errors import NoConvergence
from .kernels import Kernel
from .spectral import Grid

# |log m0 + w m0 - mu| of a uniform state, relative to max(1, |mu|, w m0): the
# size of the terms it is rounded at (about 45 eps)
_UNIFORM_RTOL = 1e-14
# largest w m0 of a model, eps w m0 <= sqrt(eps): mu - W*N, the reaction's
# exponent, is rounded at eps w m0 absolute, so the density exp(mu - W*N) that
# the reaction drives towards is known only to that relative size; past
# sqrt(eps) it keeps fewer than half of its digits (at amplitude 1e100 none)
_MAX_WM0 = 2.0 ** 26
# steps of the uniform-state solve before NoConvergence
_MAX_ITER = 200


@dataclass(frozen=True)
class ModelParams:
    """A problem instance whose uniform state satisfies log m0 + w m0 = mu
    (`_UNIFORM_RTOL`) with w m0 <= `_MAX_WM0`, or ValueError.  The steps of
    `dynamics` write into work arrays kept in the instance's own __dict__: one
    model must not be marched on two threads at once."""

    grid: Grid
    kernel: Kernel
    mu: float
    m0: float
    kappa: float

    def __post_init__(self):
        spectral.same_grid(self, self.kernel)  # GridMismatch: a kernel built on another box
        if not (0.0 < self.kappa < 0.5):
            raise ValueError(f"kappa must be in (0, 1/2), got {self.kappa}")
        if not self.m0 > 0.0:  # e.g. exp(mu) underflowed to 0
            raise ValueError(f"uniform density m0 must be positive, got {self.m0}")
        wm0 = self.kernel.w * self.m0
        _require_digits(wm0)
        resid = abs(math.log(self.m0) + wm0 - self.mu)
        scale = max(1.0, abs(self.mu), wm0)
        if not (resid <= _UNIFORM_RTOL * scale and scale < math.inf):  # no NaN or infinite mu
            raise ValueError(f"(mu, m0) inconsistent: log-space residual {resid:.3e}")


def _require_digits(wm0: float) -> None:
    """ValueError unless w m0 <= `_MAX_WM0` (also when w m0 overflowed)."""
    if not wm0 <= _MAX_WM0:
        raise ValueError(f"reaction exponent mu - W*N cannot keep its digits: w m0 = "
                         f"{wm0:.3e} rounds it at {wm0 * 2.0 ** -52:.1e}, above sqrt(eps)")


def make_params(grid: Grid, kernel: Kernel, kappa: float, mu: float | None = None,
                m0: float | None = None) -> ModelParams:
    """Build ModelParams from exactly one of mu or a target m0; `kernel` must
    be built on `grid` (GridMismatch otherwise)."""
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


def solve_uniform_density(mu: float, w: float) -> float:
    """Unique positive root of x * exp(w x) = exp(mu) for w >= 0.

    Newton's method in t = log x on g(t) = t + w e^t - mu, which is increasing
    and convex, from Winitzki's approximation of the Lambert W function; a step
    that leaves the bracket [mu - ell, min(mu, log(ell / w))] of the root,
    ell = log(1 + w e^mu), is replaced by bisection.  One Newton step in x then
    restores the digits that e^t loses at large |t|, unless w x > `_MAX_WM0`:
    such a root is refused first, as ModelParams refuses it (ValueError).  The
    relative residual |log x + w x - mu| is at most `_UNIFORM_RTOL` *
    max(1, |mu|, w x), the scale of the terms it is rounded at, or
    NoConvergence after `_MAX_ITER` steps.  A root past the float range is
    refused first, by an OverflowError that says so.  Only w = 0 forms
    exp(mu), the root itself; w > 0 needs only mu + log w.
    """
    if w < 0:
        raise ValueError(f"kernel integral must be nonnegative, got {w}")
    big = sys.float_info.max
    if mu - math.log(big) > w * big:  # g(log big) < 0: the root is above big
        raise OverflowError(f"uniform density for mu = {mu:g}, w = {w:g} overflows the float range")
    if w == 0.0:
        return math.exp(mu)
    s = mu + math.log(w)
    ell = s + math.log1p(math.exp(-s)) if s > 0 else math.log1p(math.exp(s))  # log(1 + w e^mu)
    lo, hi = mu - ell, mu  # g(lo) <= 0 because W(z) <= log(1 + z); g(mu) = w e^mu >= 0
    if ell > 0.0:  # w e^t = mu - t <= ell at the root: no step overflows w e^t
        hi = min(hi, math.log(ell) - math.log(w))
    t = mu - ell * (1.0 - math.log1p(ell) / (2.0 + ell))  # W(w e^mu) to within 2%
    for _ in range(_MAX_ITER):
        wx = w * math.exp(t)
        g = t + wx - mu
        if g > 0:
            hi = t
        elif g < 0:
            lo = t
        step = g / (1.0 + wx)
        if abs(step) <= 1e-9:  # the next error is below step^2 / 2
            t -= step
            break
        t = t - step if lo < t - step < hi else 0.5 * (lo + hi)
    else:
        raise NoConvergence(f"uniform density not found in {_MAX_ITER} iterations")
    x = math.exp(t)
    _require_digits(w * x)
    y = math.exp(mu - w * x)
    x -= (x - y) / (1.0 + w * y)
    if not (x > 0.0 and abs(math.log(x) + w * x - mu) <= _UNIFORM_RTOL * max(1.0, abs(mu), w * x)):
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


def _free_energy(n: np.ndarray, log_n: np.ndarray, wn: np.ndarray, mu: float,
                 cell_volume: float) -> float:
    """int N log N - (1 + mu) N + (1/2) (W*N) N dx, from the arrays of N,
    log N and W*N."""
    return float(np.sum(n * (log_n - (1.0 + mu) + 0.5 * wn))) * cell_volume


def _potential(log_n: np.ndarray, wn: np.ndarray, mu: float) -> np.ndarray:
    """Phi_N from the arrays of log N and W*N."""
    return log_n - mu + wn


def sinhc_half(phi: np.ndarray) -> np.ndarray:
    """sinh(phi/2) / (phi/2), and 1 at phi = 0; libm's sinh is accurate near 0,
    so the quotient needs no series branch."""
    x = 0.5 * phi
    return np.divide(np.sinh(x), x, out=np.ones_like(x), where=x != 0)


def _omega(n: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Omega_N from the arrays of N and Phi_N."""
    return np.sqrt(n) * sinhc_half(phi)


def _dissipation(n: np.ndarray, phi: np.ndarray, grad_phi: np.ndarray,
                 cell_volume: float) -> float:
    """dissipation from the arrays of N, Phi_N and grad Phi_N (stacked, one
    row per axis), with Omega_N Phi_N^2 written as 2 sqrt(N) sinh(Phi_N/2)
    Phi_N: no division and no series branch, and no cancellation as
    Phi_N -> 0."""
    grad_sq = np.sum(grad_phi * grad_phi, axis=0)
    return float(np.sum(n * grad_sq + 2.0 * np.sqrt(n) * np.sinh(0.5 * phi) * phi)) * cell_volume
