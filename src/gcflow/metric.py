"""Transport-metric layer: driving potentials and distances between densities.

The tangent-space correspondence is the elliptic equation

    M = div(N grad Q) - Omega_N Q

mapping a prescribed rate of change M to its driving potential Q.  The
operator is symmetric negative definite (Omega_N > 0 kills the kernel); we
solve with conjugate gradients on the negated operator, preconditioned by
the constant-coefficient surrogate (mean(N) * (-lap) + mean(Omega_N))^{-1},
which is diagonal in Fourier space.

The short-time (approximate) squared distance between N0 and N1 is
h^2 * <<grad Q, grad Q>>_{N0} for the static Q driven by (N1 - N0)/h.  An
upper bound on the full squared distance is obtained by integrating the
same energy along the straight-line path between the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectral, thermo
from .errors import NoConvergence, NonpositiveDensity
from .spectral import RealField
from .thermo import ModelParams


@dataclass
class EllipticSolveReport:
    iterations: int
    relative_residual: float


@dataclass
class PathDistanceResult:
    value_sq: float
    segments: int
    per_segment_energy: list


def solve_driving_potential(n0: RealField, target_rate: RealField, params: ModelParams,
                            tol: float = 1e-10, x0: RealField | None = None) -> tuple:
    """Solve target_rate = div(N0 grad Q) - Omega_{N0} Q for Q.

    Preconditioned CG from the starting guess x0 (zero when None); relative
    residual <= tol of the right-hand side, or NoConvergence after
    10 * M^d iterations.  The search direction is carried with its half
    spectrum, so an iteration transforms it only inside the operator.
    """
    if np.min(n0.values) <= 0:
        raise NonpositiveDensity(f"min density {np.min(n0.values):.3e}")
    grid = n0.grid
    n = n0.values
    om = thermo.omega(n0, params).values
    mean_n = float(np.mean(n))
    mean_om = float(np.mean(om))
    precond_symbol = 1.0 / (mean_n * spectral._half(grid.k2) + mean_om)

    def apply_m(v: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
        """-( div(N grad Q) - Omega Q ), the positive-definite form."""
        return om * v - spectral._real(spectral.div_n_grad(grid, n, v_hat), grid)

    def apply_pre(v: np.ndarray) -> tuple:
        """The preconditioned vector and its half spectrum."""
        z_hat = spectral._hat(v, grid) * precond_symbol
        return spectral._real(z_hat, grid), z_hat

    rhs = -target_rate.values
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return RealField(grid, np.zeros(grid.shape)), EllipticSolveReport(0, 0.0)

    x = np.zeros(grid.shape) if x0 is None else x0.values.copy()
    r = rhs - apply_m(x, spectral._hat(x, grid))
    rel = float(np.linalg.norm(r)) / rhs_norm
    if rel <= tol:
        return RealField(grid, x), EllipticSolveReport(0, rel)
    p, p_hat = apply_pre(r)
    rz = float(np.sum(r * p))
    max_iter = 10 * grid.M**grid.d
    for it in range(1, max_iter + 1):
        ap = apply_m(p, p_hat)
        alpha = rz / float(np.sum(p * ap))
        x += alpha * p
        r -= alpha * ap
        rel = float(np.linalg.norm(r)) / rhs_norm
        if rel <= tol:
            return RealField(grid, x), EllipticSolveReport(it, rel)
        z, z_hat = apply_pre(r)
        rz_new = float(np.sum(r * z))
        beta = rz_new / rz
        p = z + beta * p
        p_hat = z_hat + beta * p_hat
        rz = rz_new
    raise NoConvergence(f"PCG stalled at relative residual {rel:.3e} after {max_iter} iterations")


def approx_distance(n0: RealField, n1: RealField, h: float, params: ModelParams) -> tuple:
    """Short-time distance h * <<grad Q, grad Q>>_{N0}^{1/2} with Q driven by
    the rate (N1 - N0)/h (the static minimizer of the path energy), and the
    EllipticSolveReport of its solve."""
    rate = RealField(n0.grid, (n1.values - n0.values) / h)
    q, report = solve_driving_potential(n0, rate, params)
    energy = -spectral.inner_l2(rate, q)  # equals <<grad Q, grad Q>>_{N0}
    return h * float(np.sqrt(max(energy, 0.0))), report


def path_distance_upper(n0: RealField, n1: RealField, segments: int,
                        params: ModelParams) -> PathDistanceResult:
    """Upper bound on the squared distance via the straight-line path.

    Discretizes s in [0, 1] at segments+1 nodes; at each node solves the
    elliptic equation with the constant target N1 - N0 and density
    N_s = (1-s) N0 + s N1, and integrates the energy by the trapezoid rule.
    Each solve starts from the previous node's Q, extrapolated linearly
    from the two previous nodes once there are two.
    """
    if segments < 2:
        raise ValueError(f"need at least 2 segments, got {segments}")
    grid = n0.grid
    target = RealField(grid, n1.values - n0.values)
    energies, q, q_prev = [], None, None
    for i in range(segments + 1):
        s = i / segments
        ns = RealField(grid, (1.0 - s) * n0.values + s * n1.values)
        x0 = q if q_prev is None else RealField(grid, 2.0 * q.values - q_prev.values)
        q_prev, (q, _) = q, solve_driving_potential(ns, target, params, x0=x0)
        energies.append(-spectral.inner_l2(target, q))
    weights = np.ones(segments + 1)
    weights[0] = weights[-1] = 0.5
    value = float(np.dot(weights, energies)) / segments
    return PathDistanceResult(value_sq=value, segments=segments, per_segment_energy=energies)


def metric_axiom_checks(samples: list, params: ModelParams, segments: int = 32,
                        tol: float = 1e-8) -> dict:
    """Numeric sanity battery on the path distance over sample densities:
    zero iff equal endpoints, positivity with a coercivity floor, and
    forward/reverse path symmetry.  Report only; never raises."""
    report = {"pairs": [], "ok": True}
    for i, na in enumerate(samples):
        self_d = path_distance_upper(na, na, 2, params).value_sq
        if abs(self_d) > 1e-10:
            report["ok"] = False
        for nb in samples[i + 1:]:
            fwd = path_distance_upper(na, nb, segments, params).value_sq
            rev = path_distance_upper(nb, na, segments, params).value_sq
            # coercivity floor: energy = dN^T A^{-1} dN >= ||dN||^2 / lam_max(A)
            # with A the (positive) elliptic operator; lam_max is bounded by
            # max(N) * max|k|^2 + max(Omega) along the path.
            dn = RealField(na.grid, nb.values - na.values)
            dn_l2 = spectral.l2_norm(dn)
            n_max = float(max(np.max(na.values), np.max(nb.values)))
            k2max = float(np.max(na.grid.k2))
            omega_max = float(
                np.max(
                    np.maximum(
                        thermo.omega(na, params).values, thermo.omega(nb, params).values
                    )
                )
            )
            floor = dn_l2**2 / (n_max * k2max + omega_max)
            entry = {
                "forward_sq": fwd,
                "reverse_sq": rev,
                "positivity_floor": floor,
                "symmetry_defect": abs(fwd - rev),
            }
            if fwd <= 0 or abs(fwd - rev) > tol * max(1.0, fwd):
                report["ok"] = False
            report["pairs"].append(entry)
    return report
