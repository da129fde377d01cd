"""Variational (implicit) time integrator in log-density variables.

One step solves the implicit relation

    N1 - N0 = h [ div(N0 grad Phi_{N1}) - Omega_{N0} Phi_{N1} ]

for N1 = exp(Psi0 + h psi).  Written out for the increment psi, the
equation becomes

    (1 - h lap) psi = A + h B(psi) - E2(h psi) / h

with E2(x) = e^x - 1 - x and

    A      = lap Psi0 + |grad Psi0|^2 + lap w0 + grad w0 . grad Psi0
             - Phi0 * Omega0,
    B(psi) = lap w_psi + grad w_psi . grad Psi0 + grad psi . grad Psi0
             - psi Omega0 - w_psi Omega0,

where Omega0 = exp(-Psi0) Omega_{N0}, Phi0 = Psi0 - mu + w0 and
h w_psi = W * ( exp(Psi0) (exp(h psi) - 1) ).  About a uniform density m
the psi-linear part of the right side is -h C psi, with
C = |k|^2 m W_hat + m^{-1/2} (1 + m W_hat), and 1 - h lap + h C is
1 + h lambda_m, lambda_m the grand decay symbol (`dynamics._decay_symbol`).
Adding h C psi to both sides gives the fixed point

    psi = P_h( A + h B(psi) - E2(h psi) / h + h C psi ),
    P_h = (1 + h lambda_m)^{-1},

with the same solution: the reaction and the interaction, stiff at low k
and more so in a larger box, are implicit to first order, where the
Helmholtz inverse (1 - h lap)^{-1} left them explicit.  m is min N0, so
that m^{-1/2} bounds the reaction stiffness N0^{-1/2} from above.  The
solve starts at psi = P_h(A) and accelerates the fixed-point map by
Anderson mixing; a guard on growth of the fixed-point residual flags
divergence (h too large).  A equals exp(-Psi0) * rhs(N0), so uniform
equilibrium gives A == 0 and the step is an exact fixed point there.

The mixing keeps its at most 3 differences of successive map outputs and
of residuals as the rows of two arrays made once per step, newest first,
and solves the k x k Gram system of the residual differences by
`np.linalg.lstsq`, which also answers when exactly repeated differences
make that matrix singular.  One object made per step (`_Step`) holds the
terms frozen at N0, P_h, h C and every array the step writes into; `_map`
computes G in those arrays, 4 transforms an inner iteration.

The solver's tolerances, `JkoConfig`, are the config's `[jko]` section and
are defined in `gcflow.config`; this module re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import dynamics, spectral
from .config import JkoConfig
from .dynamics import SimState
from .errors import InnerDivergence, ResidualTooLarge

_ANDERSON_DEPTH = 3  # residual differences kept by the Anderson mixing of jko_step


@dataclass
class JkoStepReport:
    inner_iters: int
    d0_psi: float  # D0 norm of the log-density rate psi = (Psi1 - Psi0)/h
    residual: float  # weak residual of the implicit step relation
    norm_delta_d2: float  # D2 norm of the increment Psi1 - Psi0 (= h D2(psi))


class _Step(NamedTuple):
    """What one step of size h from `state` reads or writes (`_step`): G's
    terms frozen at N0, P_h, h C, and the arrays `_map` and the mixing fill."""

    state: SimState  # N0, W_hat and the grid
    h: float
    grad_psi0: np.ndarray  # stacked, one row per axis
    omega0: np.ndarray  # exp(-Psi0) * Omega_{N0}
    a_hat: np.ndarray  # half spectrum of A
    precond: np.ndarray  # P_h = (1 + h lambda_m)^{-1}
    h_c: np.ndarray  # h C = h (lambda_m + lap)
    h_lap: np.ndarray  # h lap
    psi: np.ndarray  # psi, back from x_hat, then u = psi + w_psi
    h_psi: np.ndarray  # h psi, then E2(h psi) / h
    e: np.ndarray  # exp(h psi) - 1
    local: np.ndarray  # N0 e / h, then the pointwise part of the map
    hat: np.ndarray  # half spectra: of N0 e / h, of the pointwise part, of h C psi
    rows: np.ndarray  # (1 + d) half spectra: w_psi's, then i k u_hat
    back: np.ndarray  # (1 + d) fields: w_psi, then grad u (times grad Psi0)
    rhs: np.ndarray  # psi_hat + w_psi's half spectrum, then the map's right side
    # the last _ANDERSON_DEPTH differences of successive map outputs G(x) and
    # of residuals G(x) - x, real views of the half spectrum, newest in row 0
    d_out: np.ndarray
    d_res: np.ndarray


def _step(state: SimState, h: float) -> _Step:
    """The step's `_Step`.  Three transforms: Psi0 forward, its gradient
    back, and the pointwise part of A forward.  W*N0 enters through the
    state's N_hat and grad W*N."""
    g = state.n.grid
    psi0_hat = spectral._hat(state.psi, g)
    grad_psi0 = spectral._real(g.ik * psi0_hat, g)
    omega0 = np.exp(-state.psi) * state.omega
    local = np.sum(grad_psi0 * (grad_psi0 + state.grad_wn), axis=0) - state.phi * omega0
    w0_hat = state.n_hat * state.params.kernel.symbol
    a_hat = g.lap * (psi0_hat + w0_hat) + spectral._hat(local, g)
    # at min N0, not the mean: with the mean, steps from states far from
    # uniform diverge (test_far_from_uniform_step_converges)
    lam = dynamics._decay_symbol(state.params, float(state.n.values.min()))
    real, half, diffs = g.shape, g.lap.shape, (_ANDERSON_DEPTH, 2 * a_hat.size)
    return _Step(state, h, grad_psi0, omega0, a_hat, precond=1.0 / (1.0 + h * lam),
                 h_c=h * (lam + g.lap), h_lap=h * g.lap, psi=np.empty(real),
                 h_psi=np.empty(real), e=np.empty(real), local=np.empty(real),
                 hat=np.empty(half, complex), rows=np.empty((1 + g.d,) + half, complex),
                 back=np.empty((1 + g.d,) + real), rhs=np.empty(half, complex),
                 d_out=np.empty(diffs), d_res=np.empty(diffs))


def _map(s: _Step, x_hat: np.ndarray) -> np.ndarray:
    """G(x) = P_h(A + h B(psi) - E2(h psi) / h + h C psi), a new half
    spectrum, for psi the field of half spectrum `x_hat`, with B written as
    lap w_psi + grad u . grad Psi0 - u Omega0 for u = psi + w_psi and every
    intermediate formed in the arrays of the step `s`.  Four transforms:
    psi back, N0 e / h forward, w_psi and grad u back in one batched inverse
    transform of one array (row 0 w_psi's half spectrum, its d rows
    i k u_hat), and the pointwise part forward."""
    g, h = s.state.n.grid, s.h
    psi = spectral._real(x_hat, g, out=s.psi)
    h_psi = np.multiply(psi, h, out=s.h_psi)
    e = np.expm1(h_psi, out=s.e)
    n_e = np.multiply(s.state.n.values, e, out=s.local)
    n_e /= h  # N0 e / h, not N0 / h e: N0 / h overflows at huge N0
    wp_hat = np.multiply(s.state.params.kernel.symbol, spectral._hat(n_e, g, out=s.hat),
                         out=s.rows[0])
    np.multiply(g.ik, np.add(x_hat, wp_hat, out=s.rhs), out=s.rows[1:])
    back = spectral._real(s.rows, g, out=s.back)
    u = np.add(psi, back[0], out=s.psi)
    grads = np.multiply(back[1:], s.grad_psi0, out=back[1:])
    local = np.sum(grads, axis=0, out=s.local)
    local -= np.multiply(u, s.omega0, out=u)
    local *= h
    local -= np.divide(np.subtract(e, h_psi, out=h_psi), h, out=h_psi)
    rhs = np.multiply(s.h_lap, wp_hat, out=s.rhs)
    rhs += s.a_hat
    rhs += spectral._hat(local, g, out=s.hat)
    rhs += np.multiply(s.h_c, x_hat, out=s.hat)
    return s.precond * rhs


def _anderson(out: np.ndarray, resid: np.ndarray, d_out: np.ndarray,
              d_res: np.ndarray) -> np.ndarray:
    """The Anderson-mixed iterate: the map output `out` minus the combination
    gamma of the rows of `d_out` (differences of map outputs) whose rows of
    `d_res` (the matching residual differences) best cancel the residual
    `resid` in least squares.  gamma solves the k x k Gram system
    (d_res d_res^T) gamma = d_res resid by `np.linalg.lstsq`, which takes
    the minimum-norm gamma when the Gram matrix is singular (repeated
    differences), where `np.linalg.solve` raises."""
    gamma = np.linalg.lstsq(d_res @ d_res.T, d_res @ resid, rcond=None)[0]
    return out - gamma @ d_out


def jko_step(state: SimState, h: float, cfg: JkoConfig | None = None) -> tuple:
    """One implicit step of size h; returns (new state, JkoStepReport).

    Solves psi = G(psi), G(psi) = P_h(A + h B(psi) - E2(h psi) / h + h C psi)
    (module docstring; P_h and h C are arrays on the half spectrum, so G,
    `_map`, costs its transforms and no more), by Anderson mixing of depth
    _ANDERSON_DEPTH (Walker & Ni 2011, SIAM J. Numer. Anal. 49:1715) on a
    real view of the half spectrum of psi: the next iterate is G(x) minus
    the combination of recent map-output differences whose residual
    differences best cancel the residual G(x) - x in least squares
    (`_anderson`).  The step converges when D0(G(x) - x) <= inner_tol and
    takes G(x) as psi.  Raises InnerDivergence when an iterate stops being
    finite, when the residual D0(G(x) - x) grows for five consecutive
    iterations (the step size is too large for the contraction), or after
    max_inner iterations, PositivityLoss when N1 underflows to 0, and
    ResidualTooLarge when the converged step fails the weak-residual
    acceptance bound; ValueError unless 0 < h < inf (`dynamics._check_step`).
    `cfg` holds the solver tolerances (JkoConfig defaults when None).
    """
    dynamics._check_step(h)
    cfg = cfg or JkoConfig()
    g = state.n.grid
    step = _step(state, h)
    x_hat = step.a_hat * step.precond
    d_out, d_res = step.d_out, step.d_res
    prev_out = prev_res = None  # real views of the last map output and residual
    prev_delta, growth_streak = np.inf, 0
    # an overflowing iterate is caught by the isfinite check as InnerDivergence
    with np.errstate(over="ignore", invalid="ignore"):
        for iters in range(1, cfg.max_inner + 1):
            psi_hat = _map(step, x_hat)
            resid_hat = psi_hat - x_hat
            delta = float(spectral._dnorms(g, resid_hat, 0)[0])
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
            out, res = psi_hat.view(float).ravel(), resid_hat.view(float).ravel()
            x = out
            if prev_out is not None:
                d_out[1:], d_res[1:] = d_out[:-1], d_res[:-1]  # the oldest row drops out
                np.subtract(out, prev_out, out=d_out[0])
                np.subtract(res, prev_res, out=d_res[0])
                k = min(iters - 1, _ANDERSON_DEPTH)
                x = _anderson(out, res, d_out[:k], d_res[:k])
            prev_out, prev_res = out, res
            x_hat = x.view(complex).reshape(psi_hat.shape)
        else:
            raise InnerDivergence(f"no inner convergence within {cfg.max_inner} iterations")

    psi = spectral._real(psi_hat, g)
    new_state = SimState.from_psi(state.t + h, state.psi + h * psi, state.params)
    resid = residual_implicit(state, new_state, h)
    if not resid <= cfg.residual_tol:  # also rejects NaN
        raise ResidualTooLarge(f"weak residual {resid:.3e} is not <= {cfg.residual_tol:.3e}")
    d0, _, d2 = spectral._dnorms(g, psi_hat, 2).tolist()
    return new_state, JkoStepReport(inner_iters=iters, d0_psi=d0, residual=resid,
                                    norm_delta_d2=h * d2)


def residual_implicit(s0: SimState, s1: SimState, h: float) -> float:
    """Relative strong-form residual of the implicit step relation from state
    s0 to state s1:

        || (N1 - N0)/h + K_{N0} Phi_{N1} ||_L2 / max(1, ||(N1 - N0)/h||_L2),

    K_{N0} from `dynamics._onsager`, with Phi_{N1} and Omega_{N0} read from
    the states (`jko_step` formed Omega_{N0} for its frozen terms): four
    transforms.

    The grid Fourier basis is dense in the test space, so the strong grid
    residual stands in for testing against all admissible test functions.
    """
    g = s0.n.grid
    rate = (s1.n.values - s0.n.values) / h
    scale = max(1.0, spectral._l2_norm(rate, g))
    k_phi = dynamics._onsager(s0, s1.phi, spectral._hat(s1.phi, g))
    return spectral._l2_norm(rate + k_phi, g) / scale
