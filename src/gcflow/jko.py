"""Variational (implicit) time integrator in log-density variables.

One step solves the implicit relation

    N1 - N0 = h [ div(N0 grad Phi_{N1}) - Omega_{N0} Phi_{N1} ]

for N1 = exp(Psi0 + h psi).  Written out for the increment psi, the
equation becomes a fixed point

    psi = Hinv_h( A + h B(psi) - E2(h psi) / h ),    Hinv_h = (1 - h lap)^{-1}

with E2(x) = e^x - 1 - x and

    A      = lap Psi0 + |grad Psi0|^2 + lap w0 + grad w0 . grad Psi0
             - Phi0 * Omega0,
    B(psi) = lap w_psi + grad w_psi . grad Psi0 + grad psi . grad Psi0
             - psi Omega0 - w_psi Omega0,

where Omega0 = exp(-Psi0) Omega_{N0}, Phi0 = Psi0 - mu + w0 and
h w_psi = W * ( exp(Psi0) (exp(h psi) - 1) ).  The solve starts at
psi = Hinv_h(A) and accelerates the fixed-point map by Anderson mixing; a
guard on growth of the fixed-point residual flags divergence (h too large).
A equals exp(-Psi0) * rhs(N0), so uniform equilibrium gives A == 0 and the
step is an exact fixed point there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral, thermo
from .dynamics import SimState
from .errors import InnerDivergence, NonpositiveDensity, ResidualTooLarge
from .spectral import RealField
from .thermo import ModelParams

_ANDERSON_DEPTH = 3  # residual differences kept by the Anderson mixing of jko_step


@dataclass(frozen=True)
class JkoConfig:
    """Tolerances of the implicit step's solver; the step size is an argument."""

    inner_tol: float = 1e-12  # D0 stopping tolerance on psi increments
    max_inner: int = 200
    residual_tol: float = 1e-9

    def __post_init__(self):
        if self.inner_tol <= 0 or self.residual_tol <= 0:
            raise ValueError("inner_tol, residual_tol must be positive")


@dataclass
class JkoStepReport:
    inner_iters: int
    d0_psi: float  # D0 norm of the log-density rate psi = (Psi1 - Psi0)/h
    residual: float  # weak residual of the implicit step relation
    norm_delta_d2: float  # D2 norm of the increment Psi1 - Psi0 (= h D2(psi))


@dataclass
class _Frozen:
    """Per-step quantities that depend only on the starting state."""

    grad_psi0: np.ndarray  # stacked, one row per axis
    omega0: np.ndarray  # exp(-Psi0) * Omega_{N0}
    a_hat: np.ndarray  # half spectrum of A


def _freeze(state: SimState) -> _Frozen:
    """Three batched transforms: Psi0 and w0 forward, their gradients back,
    and the pointwise part of A forward."""
    g = state.n.grid
    psi0, w0 = state.psi.values, state.wn.values
    hats = spectral._hat(np.stack((psi0, w0)), g)
    psi0_hat, w0_hat = hats
    grad_psi0, grad_w0 = spectral._real(g.ik * hats[:, None], g)
    phi0 = thermo._potential(psi0, w0, state.params.mu)
    omega0 = np.exp(-psi0) * thermo._omega(state.n.values, phi0)
    local = np.sum(grad_psi0 * (grad_psi0 + grad_w0), axis=0) - phi0 * omega0
    a_hat = g.lap * (psi0_hat + w0_hat) + spectral._hat(local, g)
    return _Frozen(grad_psi0=grad_psi0, omega0=omega0, a_hat=a_hat)


def assemble_A(state: SimState) -> RealField:
    """The psi-independent block of the fixed-point equation."""
    return RealField(state.n.grid, spectral._real(_freeze(state).a_hat, state.n.grid))


def _fixed_point_rhs(frozen: _Frozen, state: SimState, psi: np.ndarray,
                     psi_hat: np.ndarray, h: float) -> np.ndarray:
    """Half spectrum of A + h B(psi) - E2(h psi) / h, with B written as
    lap w_psi + grad u . grad Psi0 - u Omega0 for u = psi + w_psi.  w_psi
    and grad u come back from one batched inverse transform."""
    g = state.n.grid
    e = np.expm1(h * psi)
    wp_hat = spectral._half(state.params.kernel.spectrum.coeffs) * spectral._hat(
        state.n.values * e / h, g)
    u_hat = psi_hat + wp_hat
    back = spectral._real(np.concatenate((wp_hat[None], g.ik * u_hat)), g)
    u = psi + back[0]
    dot = np.sum(back[1:] * frozen.grad_psi0, axis=0)
    local = h * (dot - u * frozen.omega0) - (e - h * psi) / h
    return frozen.a_hat + h * g.lap * wp_hat + spectral._hat(local, g)


def jko_step(state: SimState, h: float, cfg: JkoConfig | None = None) -> tuple:
    """One implicit step of size h; returns (new state, JkoStepReport).

    Solves psi = G(psi), G(psi) = Hinv_h(A + h B(psi) - E2(h psi) / h), by
    Anderson mixing of depth _ANDERSON_DEPTH (Walker & Ni 2011, SIAM J.
    Numer. Anal. 49:1715) on a real view of the half spectrum of psi: the
    next iterate is G(x) minus the combination of recent map-output
    differences whose residual differences best cancel the residual
    G(x) - x in least squares.  The step converges when D0(G(x) - x) <=
    inner_tol and takes G(x) as psi.  Raises InnerDivergence when an iterate
    stops being finite, when the residual D0(G(x) - x) grows for five
    consecutive iterations (the step size is too large for the contraction),
    or after max_inner iterations, and ResidualTooLarge when the converged
    step fails the weak-residual acceptance bound.  `cfg` holds the solver
    tolerances (JkoConfig defaults when None).
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    cfg = cfg or JkoConfig()
    g = state.n.grid
    helmholtz = 1.0 / (1.0 - h * g.lap)
    frozen = _freeze(state)
    x_hat = frozen.a_hat * helmholtz
    outs, resids = [], []  # real views of the last map outputs G(x) and residuals G(x) - x
    prev_delta = np.inf
    growth_streak = 0
    # an overflowing iterate is caught by the isfinite check as InnerDivergence
    with np.errstate(over="ignore", invalid="ignore"):
        for iters in range(1, cfg.max_inner + 1):
            psi_hat = helmholtz * _fixed_point_rhs(
                frozen, state, spectral._real(x_hat, g), x_hat, h)
            resid_hat = psi_hat - x_hat
            delta = spectral._dnorm(g, resid_hat, 0)
            if not np.isfinite(delta):
                raise InnerDivergence(f"inner iterate blew up at iteration {iters}")
            if delta <= cfg.inner_tol:
                break
            if delta > prev_delta * (1.0 + 1e-15):
                growth_streak += 1
                if growth_streak >= 5:
                    raise InnerDivergence(
                        f"fixed-point residual grew for {growth_streak} consecutive "
                        f"iterations (h = {h} too large)"
                    )
            else:
                growth_streak = 0
            prev_delta = delta
            outs = (outs + [psi_hat.view(float).ravel()])[-_ANDERSON_DEPTH - 1:]
            resids = (resids + [resid_hat.view(float).ravel()])[-_ANDERSON_DEPTH - 1:]
            x = outs[-1]
            if len(outs) > 1:
                gamma = np.linalg.lstsq(np.diff(resids, axis=0).T, resids[-1], rcond=None)[0]
                x = x - np.diff(outs, axis=0).T @ gamma
            x_hat = x.view(complex).reshape(psi_hat.shape)
        else:
            raise InnerDivergence(f"no inner convergence within {cfg.max_inner} iterations")

    psi = spectral._real(psi_hat, g)
    psi1 = RealField(g, state.psi.values + h * psi)
    new_state = SimState.from_psi(state.t + h, psi1, state.params)
    resid = residual_implicit(state.n, new_state.n, h, state.params, state.wn, new_state.wn)
    if resid > cfg.residual_tol:
        raise ResidualTooLarge(f"weak residual {resid:.3e} > {cfg.residual_tol:.3e}")
    report = JkoStepReport(
        inner_iters=iters,
        d0_psi=spectral._dnorm(g, psi_hat, 0),
        residual=resid,
        norm_delta_d2=h * spectral._dnorm(g, psi_hat, 2),
    )
    return new_state, report


def residual_implicit(n0: RealField, n1: RealField, h: float, params: ModelParams,
                      wn0: RealField | None = None, wn1: RealField | None = None) -> float:
    """Relative strong-form residual of the implicit step relation:

        || (N1 - N0)/h - div(N0 grad Phi_{N1}) + Omega_{N0} Phi_{N1} ||_L2
        / max(1, ||(N1 - N0)/h||_L2).

    wn0 and wn1 are W*N0 and W*N1 when the caller already has them.

    The grid Fourier basis is dense in the test space, so the strong grid
    residual stands in for testing against all admissible test functions.
    """
    if np.min(n0.values) <= 0 or np.min(n1.values) <= 0:
        raise NonpositiveDensity("both densities must be positive")
    g = n0.grid
    phi1 = thermo.potential_phi(n1, params, wn1)
    om0 = thermo.omega(n0, params, wn0)
    div = spectral._real(spectral.div_n_grad(g, n0.values, spectral._hat(phi1.values, g)), g)
    rate = (n1.values - n0.values) / h
    defect = RealField(g, rate - div + om0.values * phi1.values)
    scale = max(1.0, spectral.l2_norm(RealField(g, rate)))
    return spectral.l2_norm(defect) / scale

