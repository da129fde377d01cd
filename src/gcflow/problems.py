"""Initial states: uniform, single-mode and band-limited random densities."""

from __future__ import annotations

import math

import numpy as np

from .dynamics import SimState
from .spectral import RealField
from .thermo import ModelParams


def uniform_state(params: ModelParams) -> SimState:
    n = np.full(params.grid.shape, params.m0)
    return SimState.from_density(0.0, RealField(params.grid, n), params)


def single_mode_state(params: ModelParams, mode: int, eps: float) -> SimState:
    """N0 = m0 + eps * cos(2 pi mode x1 / L); mode 0 means a uniform shift."""
    g = params.grid
    x = g.points()[0]
    pert = eps * np.broadcast_to(np.cos(2.0 * np.pi * mode * x / g.L), g.shape)
    return SimState.from_density(0.0, RealField(g, params.m0 + pert), params)


def shifted_mode_state(params: ModelParams, mode: int, eps: float) -> SimState:
    """Uniform shift plus a single cosine, both of size eps (excites the
    volume-independent zero mode at first order)."""
    g = params.grid
    x = g.points()[0]
    pert = eps * (1.0 + np.broadcast_to(np.cos(2.0 * np.pi * mode * x / g.L), g.shape))
    return SimState.from_density(0.0, RealField(g, params.m0 + pert.copy()), params)


def random_band_state(params: ModelParams, k_c: int, amp: float, seed: int) -> SimState:
    """Band-limited log-space perturbation

        Psi0 = log m0 + a0 + sum_{1 <= |n| <= k_c} a_n cos(k_n . x + theta_n)

    with seeded coefficients, rescaled so that max |Psi0 - log m0| is |amp|,
    capped where the corridor kappa m0 < N < m0/kappa holds with a 10%
    margin; a negative amp flips the sign of the perturbation.  A density
    that underflows to 0 (m0 near the float floor) raises PositivityLoss.
    """
    g = params.grid
    rng = np.random.default_rng(seed)
    pert = np.full(g.shape, rng.uniform(-1.0, 1.0))
    pts = g.points()
    if g.d == 1:
        modes = [(n,) for n in range(1, k_c + 1)]
    else:
        modes = [
            (nx, ny)
            for nx in range(-k_c, k_c + 1)
            for ny in range(0, k_c + 1)
            if (nx, ny) != (0, 0) and (ny > 0 or nx > 0) and nx * nx + ny * ny <= k_c * k_c
        ]
    for mode in modes:
        kn = np.sqrt(sum(m * m for m in mode))
        coeff = rng.uniform(-1.0, 1.0) / (1.0 + kn * kn)  # rough smoothness profile
        phase = rng.uniform(0.0, 2.0 * np.pi)
        arg = sum(2.0 * np.pi * m * x / g.L for m, x in zip(mode, pts)) + phase
        pert = pert + coeff * np.cos(arg)
    sup = float(np.max(np.abs(pert)))
    limit = 0.9 * np.log(1.0 / params.kappa)
    scale = math.copysign(min(abs(amp), limit), amp) / max(sup, 1e-300)
    return SimState.from_psi(0.0, np.log(params.m0) + scale * pert, params)
