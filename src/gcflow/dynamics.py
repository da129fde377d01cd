"""Direct time integrators for the interacting-diffusion dynamics.

Non-conservative equation (mass exchanges with a reservoir at chemical
potential mu):

    dN/dt = lap N + div(N grad w_N) - N exp(-(mu - w_N)/2) + exp((mu - w_N)/2)

with w_N = W * N.  Equivalently, in advective form,

    dN/dt = div(N grad Phi_N) - Omega_N Phi_N.

Conservative variant (fixed mass): dN/dt = lap N + div(N grad w_N).

States are carried in Psi = log N so positivity is structural; steppers that
produce N directly convert back and fail loudly on nonpositive values.
A SimState also carries N, W*N and the half spectrum N_hat, so a step starts
in Fourier space: it derives W*N, lap N and div(N grad W*N) from N_hat by
symbol multiplies, without transforming N again.  Inside a step the density
is a bare array; each later stage transforms N once, and several fields go
through one batched transform (IMEX gets N and W*N of the new state from
one inverse).  Only the state at the end of a step is validated and wrapped
in a SimState.

`evolve` is the one march loop, for these steppers and for the implicit
step of `gcflow.jko`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral, thermo
from .errors import GcflowError, NonpositiveDensity, PositivityLoss, StabilityViolation
from .spectral import RealField
from .thermo import ModelParams


@dataclass(frozen=True)
class SimState:
    t: float
    psi: RealField  # log-density
    n: RealField  # exp(psi), cached
    wn: RealField  # W * N, cached
    n_hat: np.ndarray  # half spectrum (raw DFT) of N, cached
    params: ModelParams

    @staticmethod
    def from_density(t: float, n: RealField, params: ModelParams) -> "SimState":
        if np.min(n.values) <= 0:
            raise PositivityLoss(f"min density {np.min(n.values):.3e}")
        psi = RealField(n.grid, np.log(n.values))
        return SimState._with_spectrum(t, psi, n, params)

    @staticmethod
    def from_psi(t: float, psi: RealField, params: ModelParams) -> "SimState":
        n = RealField(psi.grid, np.exp(psi.values))
        return SimState._with_spectrum(t, psi, n, params)

    @staticmethod
    def from_spectrum(t: float, n_hat: np.ndarray, params: ModelParams) -> "SimState":
        """The state whose N has half spectrum n_hat: one batched inverse
        transform gives N and W*N.  A nonpositive N raises PositivityLoss."""
        g = params.grid
        n, wn = spectral._real(np.stack((n_hat, n_hat * _kernel_hat(params))), g)
        n_min = n.min()
        if not n_min > 0.0:  # also rejects NaN
            raise PositivityLoss(f"density hit {n_min:.3e} at t = {t:.6g}")
        return SimState(t, RealField(g, np.log(n)), RealField(g, n), RealField(g, wn), n_hat,
                        params)

    @staticmethod
    def _with_spectrum(t: float, psi: RealField, n: RealField,
                       params: ModelParams) -> "SimState":
        g = n.grid
        n_hat = spectral._hat(n.values, g)
        wn = RealField(g, spectral._real(n_hat * _kernel_hat(params), g))
        return SimState(t, psi, n, wn, n_hat, params)


@dataclass
class DiagnosticsRecord:
    step: int
    t: float
    mass: float
    g_mu: float
    gap: float
    d0: float  # D-norms of Psi
    d1: float
    d2: float
    n_min: float
    n_max: float
    dissipation: float
    inner_iters: int | None = None
    residual: float | None = None

    def to_json(self) -> str:
        return json.dumps(vars(self))


@dataclass
class Trajectory:
    records: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)  # optional SimStates
    error: GcflowError | None = None  # the failure that ended the run early
    psi_d0_bound: float | None = None  # running max ||psi||_D0 (implicit runs)


def _kernel_hat(p: ModelParams) -> np.ndarray:
    """Half spectrum of the kernel: W*N has half spectrum _kernel_hat * N_hat."""
    return spectral._half(p.kernel.spectrum.coeffs)


def _reaction(p: ModelParams, n: np.ndarray, wn: np.ndarray) -> np.ndarray:
    """-N exp(-(mu - w_N)/2) + exp((mu - w_N)/2)."""
    half = 0.5 * (p.mu - wn)
    return -n * np.exp(-half) + np.exp(half)


def _rhs(p: ModelParams, n: np.ndarray, nh: np.ndarray, canonical: bool,
         wn: np.ndarray | None = None) -> np.ndarray:
    """lap N + div(N grad w_N), plus the reaction unless canonical, from N and
    its half spectrum nh.  W*N is taken from `wn` when given; otherwise it
    comes back with the transport term from one batched inverse transform."""
    g = p.grid
    wh = _kernel_hat(p) * nh
    transport_hat = g.lap * nh + spectral.div_n_grad(g, n, wh)
    if canonical or wn is not None:
        transport = spectral._real(transport_hat, g)
    else:
        transport, wn = spectral._real(np.stack((transport_hat, wh)), g)
    if canonical:
        return transport
    return transport + _reaction(p, n, wn)


def rhs_grand(state: SimState) -> RealField:
    return RealField(state.n.grid, _rhs(state.params, state.n.values, state.n_hat,
                                        canonical=False, wn=state.wn.values))


def rhs_grand_advective(state: SimState) -> RealField:
    """div(N grad Phi_N) - Omega_N Phi_N; algebraically equal to rhs_grand."""
    g = state.n.grid
    phi = thermo.potential_phi(state.n, state.params, wn=state.wn)
    om = thermo.omega(state.n, state.params, phi=phi)
    div = spectral._real(spectral.div_n_grad(g, state.n.values, spectral._hat(phi.values, g)), g)
    return RealField(g, div - om.values * phi.values)


def rhs_canonical(state: SimState) -> RealField:
    return RealField(state.n.grid, _rhs(state.params, state.n.values, state.n_hat,
                                        canonical=True))


def _advance_density(state: SimState, n_new: np.ndarray, h: float) -> SimState:
    g = state.n.grid
    n = RealField(g, _positive(n_new, state, h))
    return SimState._with_spectrum(state.t + h, RealField(g, np.log(n_new)), n, state.params)


def step_imex(state: SimState, h: float) -> SimState:
    """Semi-implicit Euler: diffusion implicit via the Helmholtz inverse,
    interaction and reaction terms explicit.  First-order accurate,
    unconditionally stable in the linear diffusive part.  N_hat of the new
    state is formed in Fourier space (`SimState.from_spectrum`): four
    transforms in all."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    p = state.params
    g = p.grid
    n, nh = state.n.values, state.n_hat
    explicit = (spectral.div_n_grad(g, n, _kernel_hat(p) * nh)
                + spectral._hat(_reaction(p, n, state.wn.values), g))
    return SimState.from_spectrum(state.t + h, (nh + h * explicit) / (1.0 - h * g.lap), p)


def _check_explicit_stability(state: SimState, h: float) -> None:
    kmax2 = float(np.max(state.n.grid.k2))
    if h * kmax2 > 2.7:
        raise StabilityViolation(
            f"h * max|k|^2 = {h * kmax2:.3g} > 2.7; reduce h below {2.7 / kmax2:.3g}"
        )


def _rk4(state: SimState, h: float, canonical: bool) -> SimState:
    _check_explicit_stability(state, h)
    p = state.params
    g = p.grid
    n0 = state.n.values

    def stage(n: np.ndarray) -> np.ndarray:
        n = _positive(n, state, h)
        return _rhs(p, n, spectral._hat(n, g), canonical)

    k1 = _rhs(p, n0, state.n_hat, canonical, state.wn.values)  # from the cached spectrum
    k2 = stage(n0 + 0.5 * h * k1)
    k3 = stage(n0 + 0.5 * h * k2)
    k4 = stage(n0 + h * k3)
    n_new = n0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _advance_density(state, n_new, h)


def _positive(n: np.ndarray, state: SimState, h: float) -> np.ndarray:
    if not np.min(n) > 0.0:  # also rejects NaN
        raise PositivityLoss(
            f"density hit {np.min(n):.3e} in the step from t = {state.t:.6g} (h = {h} too large)"
        )
    return n


def step_rk4(state: SimState, h: float) -> SimState:
    return _rk4(state, h, canonical=False)


def step_rk4_canonical(state: SimState, h: float) -> SimState:
    return _rk4(state, h, canonical=True)


_STEPPERS = {"imex": step_imex, "rk4": step_rk4, "rk4_canonical": step_rk4_canonical}


def default_h(params: ModelParams, lam_max: float, integrator: str = "imex") -> float:
    """h = min(0.1 dx, 0.01 / lambda(k_max)), or 1e-3 for "jko", whose implicit
    step the stiffest mode does not bound; overridable via config."""
    if integrator == "jko":
        return 1e-3
    return min(0.1 * params.grid.dx, 0.01 / max(lam_max, 1e-30))


def _uniform_energy(p: ModelParams, c: float, mu: float) -> float:
    """Free energy of the uniform density c: grand at mu, canonical at mu = 0."""
    return p.grid.volume * (c * math.log(c) - (1.0 + mu) * c + 0.5 * p.kernel.w * c * c)


def diagnostics(step: int, state: SimState, canonical: bool = False,
                ref_density: float | None = None,
                inner_iters: int | None = None,
                residual: float | None = None) -> DiagnosticsRecord:
    """Per-step observables, in one pass over the state's cached N, Psi and
    W*N with the formulas of `thermo`: one batched forward transform of
    (Psi, Phi_N) and one batched inverse for grad Phi_N.  A nonpositive N
    raises NonpositiveDensity.  gap is measured against the uniform state:
    m0 for the non-conservative flow, the (conserved) mean density otherwise."""
    p = state.params
    g = p.grid
    n, psi, wn = state.n.values, state.psi.values, state.wn.values
    n_min = float(n.min())
    if n_min <= 0.0:
        raise NonpositiveDensity(f"min density {n_min:.3e}")
    cv = g.cell_volume
    mass = float(n.sum()) * cv
    g_mu = thermo._free_energy(n, psi, wn, p.mu, cv)
    if canonical:
        nbar = ref_density if ref_density is not None else mass / g.volume
        gap = thermo._free_energy(n, psi, wn, 0.0, cv) - _uniform_energy(p, nbar, 0.0)
    else:
        gap = g_mu - _uniform_energy(p, p.m0, p.mu)
    phi = thermo._potential(psi, wn, p.mu)
    psi_hat, phi_hat = spectral._hat(np.stack((psi, phi)), g)
    grad_phi = spectral._real(g.ik * phi_hat, g)
    d0, d1, d2 = spectral._dnorms(g, psi_hat, 2).tolist()
    return DiagnosticsRecord(
        step=step,
        t=state.t,
        mass=mass,
        g_mu=g_mu,
        gap=gap,
        d0=d0,
        d1=d1,
        d2=d2,
        n_min=n_min,
        n_max=float(n.max()),
        dissipation=thermo._dissipation(n, phi, grad_phi, cv),
        inner_iters=inner_iters,
        residual=residual,
    )


def evolve(state: SimState, T: float, h: float, integrator: str = "imex",
           stride: int = 1, observers: list | None = None,
           snapshot_every: int | None = None, jko=None) -> Trajectory:
    """March to time T emitting a DiagnosticsRecord every `stride` steps.

    `integrator` is a key of _STEPPERS or "jko" (`jko.jko_step` with the
    JkoConfig `jko`).  When T/h is an integer to 1e-9 relative, that many
    steps of h are taken; otherwise the last step is shortened to end at T.
    Step k ends at t0 + k h.  The march runs without overflow/invalid
    warnings: a step's own checks report the failure.  A GcflowError stops
    the march and is returned in `error` with the trajectory so far.  A step
    report's `d0_psi` feeds `psi_d0_bound`; its `inner_iters`/`residual` go
    into the records.  Observers are callables (step, state, record|None).
    """
    if T <= 0 or h <= 0:
        raise ValueError("T and h must be positive")
    if integrator == "jko":
        from . import jko as implicit  # jko imports this module

        def advance(s, hk):  # read per step, so a patched jko.jko_step is seen
            return implicit.jko_step(s, hk, jko)
    else:
        stepper = _STEPPERS[integrator]

        def advance(s, hk):
            return stepper(s, hk), None
    canonical = integrator.endswith("canonical")
    ref_density = state.n.integral() / state.n.grid.volume if canonical else None
    n_steps = max(1, round(T / h))
    exact = abs(T / h - n_steps) <= 1e-9 * (T / h)
    if not exact:
        n_steps = math.ceil(T / h)
    h_last = h if exact else T - (n_steps - 1) * h
    t0 = state.t
    traj = Trajectory()
    # entered once: per step, np.errstate cost 5-10 us, 4-8% of a d = 1 IMEX
    # step; records and observers only see states that passed the step's checks
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            last = step == n_steps
            try:
                state, report = advance(state, h_last if last else h)
            except GcflowError as exc:  # record and stop: partial trajectory is useful
                traj.error = exc
                break
            state = replace(state, t=t0 + (T if last and not exact else step * h))
            if getattr(report, "d0_psi", None) is not None:
                traj.psi_d0_bound = max(traj.psi_d0_bound or 0.0, report.d0_psi)
            rec = None
            if step % stride == 0 or last:
                rec = diagnostics(step, state, canonical=canonical, ref_density=ref_density,
                                  inner_iters=getattr(report, "inner_iters", None),
                                  residual=getattr(report, "residual", None))
                traj.records.append(rec)
            if snapshot_every and step % snapshot_every == 0:
                traj.snapshots.append(state)
            if observers:
                for obs in observers:
                    obs(step, state, rec)
    return traj
