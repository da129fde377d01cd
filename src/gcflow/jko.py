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
h w_psi = W * ( exp(Psi0) (exp(h psi) - 1) ).  The iteration starts at
psi = Hinv_h(A); a monotone-growth guard flags divergence (h too large).
A equals exp(-Psi0) * rhs(N0), so uniform equilibrium gives A == 0 and the
step is an exact fixed point there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import spectral, thermo
from .dynamics import SimState, Trajectory, _march, diagnostics
from .errors import InnerDivergence, NonpositiveDensity, ResidualTooLarge
from .spectral import RealField
from .thermo import ModelParams


@dataclass(frozen=True)
class JkoConfig:
    h: float
    inner_tol: float = 1e-12  # D0 stopping tolerance on psi increments
    max_inner: int = 200
    residual_tol: float = 1e-9

    def __post_init__(self):
        if self.h <= 0 or self.inner_tol <= 0 or self.residual_tol <= 0:
            raise ValueError("h, inner_tol, residual_tol must be positive")


@dataclass
class JkoStepReport:
    inner_iters: int
    d0_psi: float  # D0 norm of the log-density rate psi = (Psi1 - Psi0)/h
    residual: float  # weak residual of the implicit step relation
    norm_delta_d2: float  # D2 norm of the increment Psi1 - Psi0 (= h D2(psi))


@dataclass
class _Frozen:
    """Per-step quantities that depend only on the starting state."""

    grad_psi0: list
    omega0: np.ndarray  # exp(-Psi0) * Omega_{N0}
    a_hat: np.ndarray  # half spectrum of A


def _freeze(state: SimState) -> _Frozen:
    g = state.n.grid
    psi0, w0 = state.psi.values, state.wn.values
    psi0_hat = spectral._hat(psi0)
    w0_hat = spectral._hat(w0)
    grad_psi0 = [spectral._real(ik * psi0_hat, g) for ik in g.ik]
    grad_w0 = [spectral._real(ik * w0_hat, g) for ik in g.ik]
    phi0 = RealField(g, psi0 - state.params.mu + w0)
    omega0 = np.exp(-psi0) * thermo.omega(state.n, state.params, phi=phi0).values
    local = sum(gp * (gp + gw) for gp, gw in zip(grad_psi0, grad_w0)) - phi0.values * omega0
    a_hat = g.lap * (psi0_hat + w0_hat) + spectral._hat(local)
    return _Frozen(grad_psi0=grad_psi0, omega0=omega0, a_hat=a_hat)


def assemble_A(state: SimState) -> RealField:
    """The psi-independent block of the fixed-point equation."""
    return RealField(state.n.grid, spectral._real(_freeze(state).a_hat, state.n.grid))


def _fixed_point_rhs(frozen: _Frozen, state: SimState, psi: np.ndarray,
                     psi_hat: np.ndarray, h: float) -> np.ndarray:
    """Half spectrum of A + h B(psi) - E2(h psi) / h, with B written as
    lap w_psi + grad u . grad Psi0 - u Omega0 for u = psi + w_psi."""
    g = state.n.grid
    e = np.expm1(h * psi)
    wp_hat = spectral._half(state.params.kernel.spectrum.coeffs) * spectral._hat(
        state.n.values * e / h)
    u_hat = psi_hat + wp_hat
    u = psi + spectral._real(wp_hat, g)
    dot = sum(spectral._real(ik * u_hat, g) * gp for ik, gp in zip(g.ik, frozen.grad_psi0))
    local = h * (dot - u * frozen.omega0) - (e - h * psi) / h
    return frozen.a_hat + h * g.lap * wp_hat + spectral._hat(local)


def jko_step(state: SimState, cfg: JkoConfig) -> tuple:
    """One implicit step; returns (new state, JkoStepReport).

    The iterate psi is carried with its half spectrum, on which the
    Helmholtz solve and the D0 norms act directly.  Raises InnerDivergence
    when the iterates stop being finite or their D0 norm grows for five
    consecutive iterations (the step size is too large for the contraction),
    and ResidualTooLarge when the converged step fails the weak-residual
    acceptance bound.
    """
    h = cfg.h
    g = state.n.grid
    helmholtz = 1.0 / (1.0 - h * g.lap)
    frozen = _freeze(state)
    psi_hat = frozen.a_hat * helmholtz
    psi = spectral._real(psi_hat, g)
    prev_d0 = spectral._dnorm(g, psi_hat, 0)
    growth_streak = 0
    iters = 0
    # an overflowing iterate is caught by the isfinite check as InnerDivergence
    with np.errstate(over="ignore", invalid="ignore"):
        for iters in range(1, cfg.max_inner + 1):
            next_hat = _fixed_point_rhs(frozen, state, psi, psi_hat, h) * helmholtz
            delta = spectral._dnorm(g, next_hat - psi_hat, 0)
            d0 = spectral._dnorm(g, next_hat, 0)
            if not np.isfinite(d0):
                raise InnerDivergence(f"inner iterate blew up at iteration {iters}")
            if d0 > prev_d0 * (1.0 + 1e-15):
                growth_streak += 1
                if growth_streak >= 5:
                    raise InnerDivergence(
                        f"iterate norm grew for {growth_streak} consecutive iterations "
                        f"(h = {h} too large)"
                    )
            else:
                growth_streak = 0
            psi_hat = next_hat
            psi = spectral._real(psi_hat, g)
            prev_d0 = d0
            if delta <= cfg.inner_tol:
                break
        else:
            raise InnerDivergence(f"no inner convergence within {cfg.max_inner} iterations")

    psi1 = RealField(g, state.psi.values + h * psi)
    new_state = SimState.from_psi(state.t + h, psi1, state.params)
    resid = residual_implicit(state.n, new_state.n, h, state.params)
    if resid > cfg.residual_tol:
        raise ResidualTooLarge(f"weak residual {resid:.3e} > {cfg.residual_tol:.3e}")
    report = JkoStepReport(
        inner_iters=iters,
        d0_psi=prev_d0,
        residual=resid,
        norm_delta_d2=h * spectral._dnorm(g, psi_hat, 2),
    )
    return new_state, report


def residual_implicit(n0: RealField, n1: RealField, h: float, params: ModelParams) -> float:
    """Relative strong-form residual of the implicit step relation:

        || (N1 - N0)/h - div(N0 grad Phi_{N1}) + Omega_{N0} Phi_{N1} ||_L2
        / max(1, ||(N1 - N0)/h||_L2).

    The grid Fourier basis is dense in the test space, so the strong grid
    residual stands in for testing against all admissible test functions.
    """
    if np.min(n0.values) <= 0 or np.min(n1.values) <= 0:
        raise NonpositiveDensity("both densities must be positive")
    g = n0.grid
    phi1 = thermo.potential_phi(n1, params)
    om0 = thermo.omega(n0, params)
    div = spectral._real(spectral.div_n_grad(g, n0.values, spectral._hat(phi1.values)), g)
    rate = (n1.values - n0.values) / h
    defect = RealField(g, rate - div + om0.values * phi1.values)
    scale = max(1.0, spectral.l2_norm(RealField(g, rate)))
    return spectral.l2_norm(defect) / scale


def jko_evolve(state: SimState, T: float, cfg: JkoConfig,
               observers: list | None = None,
               stride: int = 1,
               snapshot_every: int | None = None) -> Trajectory:
    """Repeated implicit steps with per-step reports merged into the
    diagnostics stream.  Tracks the running bound b0 = max ||psi||_D0."""
    b0 = 0.0

    def advance(s: SimState, h: float) -> tuple:
        nonlocal b0
        s, report = jko_step(s, cfg if h == cfg.h else replace(cfg, h=h))
        b0 = max(b0, report.d0_psi)
        return s, report

    traj = _march(
        state, T, cfg.h, advance,
        lambda step, s, rep: diagnostics(step, s, inner_iters=rep.inner_iters,
                                         residual=rep.residual),
        stride, observers, snapshot_every,
    )
    traj.psi_d0_bound = b0
    return traj
