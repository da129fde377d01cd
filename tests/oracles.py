"""Reference functionals the tests check the library against.

Real-space forms of the paper's quantities on a RealField density: the grand
free energy and its derivative Phi_N, the mobility Omega_N, the weighted
inner product and the dissipation, the convexity form, the corridor test, a
spectral divergence and the short-time distance.  gcflow's steps and records
form these from a state's cached fields with the array helpers of `thermo`
(`_free_energy`, `_potential`, `_omega`, `_dissipation`); each reference here
writes its formula out instead, so that a slip in a helper fails a comparison
rather than appearing on both sides of it.
"""

import numpy as np

from gcflow import metric, spectral
from gcflow.errors import PositivityLoss
from gcflow.spectral import RealField
from gcflow.thermo import sinhc_half


def _require_positive(n: RealField) -> None:
    if np.min(n.values) <= 0.0:
        raise PositivityLoss(f"min density {np.min(n.values):.3e}")


def interaction_energy(n: RealField, kernel) -> float:
    """(1 / 2 L^d) sum_k W_hat(k) |N_hat(k)|^2 (equals the double integral)."""
    g = n.grid
    n_hat = np.fft.rfftn(n.values)
    power = (kernel.symbol.real * np.abs(n_hat) ** 2).ravel()
    return 0.5 * g.cell_volume * float(g.dnorm_weights[0] @ power)


def free_energy_grand(n: RealField, params) -> float:
    """G(N) = int N log N - (1 + mu) N + (1/2) (W*N) N dx."""
    return _free_energy(n, params.kernel, params.mu)


def free_energy_canonical(n: RealField, kernel) -> float:
    """The free energy at mu = 0."""
    return _free_energy(n, kernel, 0.0)


def _free_energy(n: RealField, kernel, mu: float) -> float:
    # factored, so that N log N does not overflow at a huge density
    _require_positive(n)
    v, wn = n.values, spectral.convolve(kernel, n).values
    return float(np.sum(v * (np.log(v) - (1.0 + mu) + 0.5 * wn))) * n.grid.cell_volume


def potential_phi(n: RealField, params) -> RealField:
    """Phi_N = log N - mu + W*N, the variational derivative of G."""
    _require_positive(n)
    wn = spectral.convolve(params.kernel, n).values
    return RealField(n.grid, np.log(n.values) - params.mu + wn)


def omega(n: RealField, params) -> RealField:
    """Omega_N = sqrt(N) sinhc(Phi_N / 2)."""
    phi = potential_phi(n, params).values
    return RealField(n.grid, np.sqrt(n.values) * sinhc_half(phi))


def weighted_inner(n: RealField, params, f: RealField, g: RealField) -> float:
    """int N (grad f . grad g) + Omega_N f g dx (collocation quadrature)."""
    grad_f = np.stack([c.values for c in spectral.gradient(f)])
    grad_g = np.stack([c.values for c in spectral.gradient(g)])
    density = (n.values * np.sum(grad_f * grad_g, axis=0)
               + omega(n, params).values * f.values * g.values)
    return float(np.sum(density)) * n.grid.cell_volume


def dissipation(n: RealField, params) -> float:
    """-dG/dt along the flow: the weighted inner product of Phi_N with itself."""
    phi = potential_phi(n, params)
    return weighted_inner(n, params, phi, phi)


def convexity_quadratic_form(n_a: RealField, n_b: RealField, s: float, params) -> float:
    """Second derivative of G along the segment from n_a to n_b at s in [0, 1]:

        int R^2 / N_s dx + int int W(x-y) R(x) R(y) dx dy,  R = n_b - n_a.
    """
    _require_positive(n_a)
    _require_positive(n_b)
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"s must be in [0, 1], got {s}")
    r = n_b.values - n_a.values
    ns = (1.0 - s) * n_a.values + s * n_b.values
    first = float(np.sum(r * r / ns)) * n_a.grid.cell_volume
    return first + 2.0 * interaction_energy(RealField(n_a.grid, r), params.kernel)


def in_corridor(n: RealField, params) -> bool:
    """kappa m0 < N < m0 / kappa pointwise."""
    lo, hi = params.kappa * params.m0, params.m0 / params.kappa
    return bool(np.min(n.values) > lo and np.max(n.values) < hi)


def divergence(fields: tuple) -> RealField:
    """Spectral divergence of a vector field given componentwise, through
    numpy's n-D real transforms."""
    g = fields[0].grid
    axes = tuple(range(-g.d, 0))
    flux_hat = np.fft.rfftn(np.stack([f.values for f in fields]), axes=axes)
    return RealField(g, np.fft.irfftn(np.sum(g.ik * flux_hat, axis=0), s=g.shape, axes=axes))


def approx_distance(s0, s1) -> tuple:
    """Short-time distance <<grad Q, grad Q>>_{N0}^{1/2} from state N0 to
    state N1, Q driven by N1 - N0, and the EllipticSolveReport of its solve;
    GridMismatch for states on two grids."""
    spectral.same_grid(s0.n, s1.n)
    target = RealField(s0.n.grid, s1.n.values - s0.n.values)
    q, report = metric.solve_driving_potential(s0, target)
    energy = 0.0 - spectral.inner_l2(target, q)  # +0.0 when Q = 0
    return float(np.sqrt(max(energy, 0.0))), report
