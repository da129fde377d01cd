"""Transport-metric layer: driving potentials and distances between densities.

The tangent-space correspondence is the elliptic equation

    M = div(N grad Q) - Omega_N Q = -K_N Q

mapping a prescribed rate of change M to its driving potential Q.  The
operator K_N (`dynamics._onsager`) is symmetric positive definite
(Omega_N > 0 kills the kernel); we solve with conjugate gradients on it,
preconditioned by the constant-coefficient surrogate
(mean(N) * (-lap) + mean(Omega_N))^{-1}, which is diagonal in Fourier space.
The iteration updates its vectors in place and applies K_N through the
`dynamics._onsager` that the flow's advective form and the JKO residual
share, writing into one work array: 5 transforms an iteration.
Densities are `dynamics.SimState`s, which carry their model and Omega_N; so
is each path node, mixed from the endpoint states without a transform.

The short-time (approximate) squared distance between N0 and N1 is
<<grad Q, grad Q>>_{N0} for the static Q driven by N1 - N0: no step size
enters.  Integrating the same energy along the straight-line path between
the endpoints bounds the full squared distance from above; the path's first
node solves that equation, so `PathDistanceResult.d_a` gives the short-time
distance with no solve of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, spectral
from .dynamics import SimState
from .errors import NoConvergence
from .spectral import RealField


@dataclass
class EllipticSolveReport:
    iterations: int
    relative_residual: float


@dataclass
class PathDistanceResult:
    value_sq: float
    segments: int
    per_segment_energy: list
    reports: list  # one EllipticSolveReport per path node

    @property
    def d_a(self) -> float:
        """The short-time distance sqrt(E_0): node 0 solves for the static Q
        driven by N1 - N0 at N0, so E_0 is its square."""
        return float(np.sqrt(max(self.per_segment_energy[0], 0.0)))


# an overflowing Omega or iterate is caught by the isfinite check as NoConvergence
@np.errstate(over="ignore", invalid="ignore")
def solve_driving_potential(state: SimState, target_rate: RealField, tol: float = 1e-10,
                            x0: np.ndarray | None = None) -> tuple:
    """Solve target_rate = div(N0 grad Q) - Omega_{N0} Q at the state N0 for Q.

    Preconditioned CG from the starting guess x0, an array (zero when None);
    relative residual <= tol of the right-hand side, or NoConvergence after
    10 * M^d iterations or at the first non-finite residual.  ValueError
    unless 0 < tol < inf; a target on another grid raises GridMismatch.

    The iterate x, residual r and search direction p, carried with its half
    spectrum, are updated in place, and each iteration applies K_N through
    `dynamics._onsager` into one work array and the preconditioner into
    another: 5 transforms an iteration, 3 in the operator and 2 in the
    preconditioner.
    """
    if not 0.0 < tol < math.inf:  # also rejects NaN
        raise ValueError(f"tol must be positive and finite, got {tol}")
    spectral.same_grid(state.n, target_rate)
    n, om, grid = state.n.values, state.omega, state.n.grid
    precond_symbol = 1.0 / (float(np.mean(n)) * grid.k2 + float(np.mean(om)))
    rhs = -target_rate.values
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return RealField(grid, np.zeros(grid.shape)), EllipticSolveReport(0, 0.0)

    x = np.zeros(grid.shape) if x0 is None else x0.copy()
    r = rhs - dynamics._onsager(state, x, spectral._hat(x, grid))
    r_flat = r.reshape(-1)  # a view: r is updated in place

    def residual(it: int) -> float:
        """The relative residual of r; NoConvergence once it is not finite."""
        rel = math.sqrt(r_flat.dot(r_flat)) / rhs_norm  # np.linalg.norm(r), bit for bit
        if not math.isfinite(rel):
            raise NoConvergence(f"PCG residual is not finite at iteration {it}")
        return rel

    rel = residual(0)
    if rel <= tol:
        return RealField(grid, x), EllipticSolveReport(0, rel)
    p_hat = spectral._hat(r, grid)
    p_hat *= precond_symbol
    p = spectral._real(p_hat, grid)
    z, z_hat = np.empty_like(p), np.empty_like(p_hat)  # the preconditioned residual
    ap, work = np.empty_like(p), np.empty_like(p)  # K_N p and a product's terms

    def dot(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.multiply(a, b, out=work).sum())

    rz = dot(r, p)
    max_iter = 10 * grid.M**grid.d
    for it in range(1, max_iter + 1):
        dynamics._onsager(state, p, p_hat, out=ap)
        alpha = rz / dot(p, ap)
        x += np.multiply(p, alpha, out=work)
        r -= np.multiply(ap, alpha, out=work)
        rel = residual(it)
        if rel <= tol:
            return RealField(grid, x), EllipticSolveReport(it, rel)
        np.multiply(spectral._hat(r, grid, out=z_hat), precond_symbol, out=z_hat)
        spectral._real(z_hat, grid, out=z)
        rz_new = dot(r, z)
        beta = rz_new / rz
        p *= beta
        p += z
        p_hat *= beta
        p_hat += z_hat
        rz = rz_new
    raise NoConvergence(f"PCG stalled at relative residual {rel:.3e} after {max_iter} iterations")


def _extrapolate(history: list) -> np.ndarray:
    """The next value of the sequence whose last (at most 4) arrays are
    `history`, oldest first, by polynomial extrapolation through all of them:
    the Lagrange weight of the i-th of k equispaced nodes at the next node is
    (-1)^(k-1-i) C(k, i), exact for polynomials of degree below k."""
    k = len(history)
    return sum((-1) ** (k - 1 - i) * math.comb(k, i) * q for i, q in enumerate(history))


def path_distance_upper(s0: SimState, s1: SimState, segments: int) -> PathDistanceResult:
    """Upper bound on the squared distance from state N0 to state N1 (in the
    model of N0; GridMismatch on two grids) via the straight-line path.

    Discretizes s in [0, 1] at segments+1 nodes; at each node solves the
    elliptic equation with the constant target N1 - N0 at the state
    N_s = (1-s) N0 + s N1, once, and integrates the energy by the trapezoid
    rule.  The nodes at s = 0 and 1 are the given states (N1 rebuilt once in
    the model of N0 when it is of another); those between are mixed from
    them (`dynamics._mix`).
    Node 0's solve starts from zero and gives `d_a`; each later one starts
    from the cubic (at nodes 1-3 the highest available degree)
    extrapolation of the last four nodes' Q (Fischer 1998, Comput. Methods
    Appl. Mech. Engrg. 163:193).  Higher degrees amplify the solver's
    residual noise at fine node spacing.
    """
    if segments < 2:
        raise ValueError(f"need at least 2 segments, got {segments}")
    spectral.same_grid(s0.n, s1.n)
    if s1.params is not s0.params:  # W*N of N1 in the model of N0
        s1 = SimState.from_density(0.0, s1.n, s0.params)
    target = RealField(s0.n.grid, s1.n.values - s0.n.values)
    energies, reports, history = [], [], []
    for i in range(segments + 1):
        ns = s0 if i == 0 else s1 if i == segments else dynamics._mix(s0, s1, i / segments)
        x0 = _extrapolate(history) if history else None
        q, report = solve_driving_potential(ns, target, x0=x0)
        history = history[-3:] + [q.values]
        energies.append(0.0 - spectral.inner_l2(target, q))  # +0.0, not -0.0, when Q = 0
        reports.append(report)
    weights = np.ones(segments + 1)
    weights[0] = weights[-1] = 0.5
    value = float(np.dot(weights, energies)) / segments
    return PathDistanceResult(value_sq=value, segments=segments,
                              per_segment_energy=energies, reports=reports)


def metric_axiom_checks(states: list) -> dict:
    """Numeric sanity battery on the path distance over sample states, with
    8 segments a path: zero iff equal endpoints, positivity with a
    coercivity floor, and forward/reverse path symmetry.  `ok` is False when
    a self-distance exceeds 1e-10, a forward value is nonpositive or below
    its floor, or a symmetry defect exceeds 1e-8 max(1, forward value).  A
    report, not a test: a failed axiom does not raise, but a solve that
    fails raises its NoConvergence."""
    report = {"pairs": [], "ok": True}
    for i, sa in enumerate(states):
        self_d = path_distance_upper(sa, sa, 2).value_sq
        if abs(self_d) > 1e-10:
            report["ok"] = False
        for sb in states[i + 1:]:
            fwd = path_distance_upper(sa, sb, 8).value_sq
            rev = path_distance_upper(sb, sa, 8).value_sq
            # coercivity floor: energy = dN^T A^{-1} dN >= ||dN||^2 / lam_max(A)
            # with A the (positive) elliptic operator; lam_max is bounded by
            # max(N) * max|k|^2 + max(Omega) along the path.
            na, nb = sa.n.values, sb.n.values
            dn_l2 = spectral._l2_norm(nb - na, sa.n.grid)
            n_max = float(max(np.max(na), np.max(nb)))
            k2max = sa.n.grid.k2_max
            omega_max = float(np.max(np.maximum(sa.omega, sb.omega)))
            floor = dn_l2**2 / (n_max * k2max + omega_max)
            entry = {
                "forward_sq": fwd,
                "reverse_sq": rev,
                "positivity_floor": floor,
                "symmetry_defect": abs(fwd - rev),
            }
            if fwd <= 0 or fwd < floor or abs(fwd - rev) > 1e-8 * max(1.0, fwd):
                report["ok"] = False
            report["pairs"].append(entry)
    return report
