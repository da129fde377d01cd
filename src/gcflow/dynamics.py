"""Direct time integrators for the interacting-diffusion dynamics.

Non-conservative equation (mass exchanges with a reservoir at chemical
potential mu):

    dN/dt = lap N + div(N grad w_N) - N exp(-(mu - w_N)/2) + exp((mu - w_N)/2)

with w_N = W * N.  Equivalently, in advective form,

    dN/dt = div(N grad Phi_N) - Omega_N Phi_N.

Conservative variant (fixed mass): dN/dt = lap N + div(N grad w_N).

A SimState holds N as its one validated field (a RealField) and caches
Psi = log N, W*N and the half spectrum N_hat as plain arrays, and grad W*N,
Phi_N and Omega_N from the first time they are read.  It is built only by
`from_density`, `from_psi` or `from_spectrum`, and each raises
PositivityLoss, naming t, on an N that is not positive everywhere (also one
that underflows to 0): every state is positive by construction.  A step
starts in Fourier space: it derives W*N, lap N and div(N grad W*N) from N_hat
by symbol multiplies, without transforming N again.  Inside a step the density
is a bare array, and several fields go through one batched transform.
`from_spectrum` gets N, W*N and grad W*N from one inverse, so IMEX sends its
flux and reaction forward in one call and ends in that inverse: 2 transforms
a step.  The grand RK4 marches N in real space and transforms it once a later
stage: 17 (16 from a state that holds grad W*N).  The mass-conserving RK4
marches N_hat: a later stage takes N and grad W*N from one inverse and its
flux spectrum from one forward transform, 8 in all, and its rate is 0 on the
zero mode, so the mass is kept exactly (bit for bit in N_hat).  So a step
validates one field, the N of the state it ends in.  A record transforms Psi
forward and grad Phi_N back: 2 transforms, and no Omega_N.

`evolve` is the one march loop, for these steppers and for the implicit
step of `gcflow.jko`.  A step's failure is an ordinary exception, raised by
the step that detects it.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import spectral, thermo
from .errors import PositivityLoss, StabilityViolation
from .spectral import RealField
from .thermo import ModelParams


@dataclass(frozen=True)
class SimState:
    t: float
    psi: np.ndarray  # log N, cached
    n: RealField  # the density, validated
    wn: np.ndarray  # W * N, cached
    n_hat: np.ndarray  # half spectrum (raw DFT) of N, cached
    params: ModelParams

    @staticmethod
    def from_density(t: float, n: RealField, params: ModelParams) -> "SimState":
        """The state of density n; PositivityLoss unless n > 0, GridMismatch off-grid."""
        spectral.same_grid(n, params)
        v = _positive(n.values, t)
        n_hat = spectral._hat(v, n.grid)
        wn = spectral._real(n_hat * params.kernel.symbol, n.grid)
        return SimState(t, np.log(v), n, wn, n_hat, params)

    @staticmethod
    def from_psi(t: float, psi: np.ndarray, params: ModelParams) -> "SimState":
        """The state of log-density psi (an array); an N = exp(psi) that
        underflows to 0 raises PositivityLoss."""
        n = RealField(params.grid, _positive(np.exp(psi), t))
        n_hat = spectral._hat(n.values, n.grid)
        wn = spectral._real(n_hat * params.kernel.symbol, n.grid)
        return SimState(t, psi, n, wn, n_hat, params)

    @staticmethod
    def from_spectrum(t: float, n_hat: np.ndarray, params: ModelParams) -> "SimState":
        """The state whose N has half spectrum n_hat: one batched inverse
        transform gives N, W*N and grad W*N.  A nonpositive N raises
        PositivityLoss."""
        g = params.grid
        symbol = params.kernel.symbol
        # complex products do not commute bit for bit; each field keeps the
        # order its formula has everywhere else (see `grad_wn`)
        rows = (n_hat[None], (n_hat * symbol)[None], g.ik * (symbol * n_hat))
        fields = spectral._real(np.concatenate(rows), g)
        n = _positive(fields[0], t)
        state = SimState(t, np.log(n), RealField(g, n), fields[1], n_hat, params)
        state.__dict__["grad_wn"] = fields[2:]  # the cached_property's slot
        return state

    def at(self, t: float) -> "SimState":
        """This state at time t, its cached fields kept (`dataclasses.replace`
        would drop them)."""
        state = copy.copy(self)
        object.__setattr__(state, "t", t)
        return state

    @cached_property
    def grad_wn(self) -> np.ndarray:
        """grad W*N, one row per axis, formed on first use."""
        g = self.params.grid
        return spectral._real(g.ik * (self.params.kernel.symbol * self.n_hat), g)

    @cached_property
    def phi(self) -> np.ndarray:
        """Driving potential Phi_N = log N - mu + W*N, formed on first use."""
        return thermo._potential(self.psi, self.wn, self.params.mu)

    @cached_property
    def omega(self) -> np.ndarray:
        """Mobility Omega_N = sqrt(N) sinhc(Phi_N / 2), formed on first use."""
        return thermo._omega(self.n.values, self.phi)


def _positive(n: np.ndarray, t: float) -> np.ndarray:
    """n, the density at time t; PositivityLoss unless every value is > 0."""
    n_min = n.min()
    if not n_min > 0.0:  # also rejects NaN
        raise PositivityLoss(f"density hit {n_min:.3e} at t = {t:.6g}")
    return n


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
    psi_d0_bound: float | None = None  # running max ||psi||_D0 (implicit runs)


def _reaction(p: ModelParams, n: np.ndarray, wn: np.ndarray) -> np.ndarray:
    """-N exp(-(mu - w_N)/2) + exp((mu - w_N)/2)."""
    half = 0.5 * (p.mu - wn)
    return -n * np.exp(-half) + np.exp(half)


def _rhs(p: ModelParams, n: np.ndarray, nh: np.ndarray, wn: np.ndarray | None = None,
         grad_wn: np.ndarray | None = None) -> np.ndarray:
    """lap N + div(N grad w_N) plus the reaction, from N and its half spectrum
    nh.  grad w_N is taken from `grad_wn` when given, and W*N from `wn`;
    otherwise W*N comes back with the transport term from one batched
    inverse transform."""
    g = p.grid
    transport_hat = _canonical_rate(p, nh, n, grad=grad_wn)
    if wn is not None:
        transport = spectral._real(transport_hat, g)
    else:
        transport, wn = spectral._real(np.stack((transport_hat, p.kernel.symbol * nh)), g)
    return transport + _reaction(p, n, wn)


def _canonical_rate(p: ModelParams, nh: np.ndarray, n: np.ndarray | None = None,
                    t: float = 0.0, grad: np.ndarray | None = None) -> np.ndarray:
    """Half spectrum of lap N + div(N grad w_N), the mass-conserving rate,
    from the half spectrum nh of N: one forward transform of the flux.  N is
    taken from `n` and grad w_N from `grad` when given; with no `n`, both come
    back from one batched inverse transform and N is checked positive at
    time t.  The rate is exactly 0 on the zero mode, so it never moves the
    mass."""
    g = p.grid
    if n is None:
        fields = spectral._real(np.concatenate((nh[None], g.ik * (p.kernel.symbol * nh))), g)
        n, grad = _positive(fields[0], t), fields[1:]
    elif grad is None:
        grad = spectral._real(g.ik * (p.kernel.symbol * nh), g)
    return g.lap * nh + np.sum(g.ik * spectral._hat(n * grad, g), axis=0)


def rhs_grand(state: SimState) -> RealField:
    return RealField(state.n.grid, _rhs(state.params, state.n.values, state.n_hat, state.wn,
                                        state.grad_wn))


def rhs_grand_advective(state: SimState) -> RealField:
    """div(N grad Phi_N) - Omega_N Phi_N; algebraically equal to rhs_grand."""
    g = state.n.grid
    div = spectral._real(spectral.div_n_grad(g, state.n.values, spectral._hat(state.phi, g)), g)
    return RealField(g, div - state.omega * state.phi)


def step_imex(state: SimState, h: float) -> SimState:
    """Semi-implicit Euler: diffusion implicit via the Helmholtz inverse,
    interaction and reaction terms explicit.  First-order accurate,
    unconditionally stable in the linear diffusive part.  The flux
    N grad w_N (from the state's grad W*N) and the reaction go forward in
    one batched transform, and N_hat of the new state is formed in Fourier
    space (`SimState.from_spectrum`, one inverse): two transforms in all."""
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    p = state.params
    g = p.grid
    n, nh = state.n.values, state.n_hat
    hats = spectral._hat(np.concatenate((n * state.grad_wn, _reaction(p, n, state.wn)[None])), g)
    explicit = np.sum(g.ik * hats[:-1], axis=0) + hats[-1]
    return SimState.from_spectrum(state.t + h, (nh + h * explicit) / (1.0 - h * g.lap), p)


def _check_explicit_stability(state: SimState, h: float) -> None:
    kmax2 = float(np.max(state.n.grid.k2))
    if h * kmax2 > 2.7:
        raise StabilityViolation(
            f"h * max|k|^2 = {h * kmax2:.3g} > 2.7; reduce h below {2.7 / kmax2:.3g}"
        )


def step_rk4(state: SimState, h: float) -> SimState:
    """Classical RK4 for the grand-canonical flow, its stages in real space:
    17 transforms a step, 16 when the state holds grad W*N."""
    _check_explicit_stability(state, h)
    p = state.params
    g = p.grid
    n0 = state.n.values

    def stage(n: np.ndarray, c: float) -> np.ndarray:
        n = _positive(n, state.t + c * h)
        return _rhs(p, n, spectral._hat(n, g))

    k1 = _rhs(p, n0, state.n_hat, state.wn, state.grad_wn)  # from the state's caches
    k2 = stage(n0 + 0.5 * h * k1, 0.5)
    k3 = stage(n0 + 0.5 * h * k2, 0.5)
    k4 = stage(n0 + h * k3, 1.0)
    n_new = n0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # checked before the RealField, which would reject NaN as a ValueError
    return SimState.from_density(state.t + h, RealField(g, _positive(n_new, state.t + h)), p)


def step_rk4_canonical(state: SimState, h: float) -> SimState:
    """Classical RK4 for the mass-conserving flow, marched on the half
    spectrum: a stage at N_hat_0 + c h k_hat gets N and grad w_N back from
    one batched inverse and its flux spectrum from one forward transform
    (stage 1 reads both from the state), and the step ends in
    `SimState.from_spectrum`: 8 transforms in all, 9 when the state does not
    yet hold grad W*N.
    Every stage rate is 0 on the zero mode, so the zero mode of N_hat (the
    mass) is carried from step to step unchanged, bit for bit."""
    _check_explicit_stability(state, h)
    p = state.params
    t, nh0 = state.t, state.n_hat
    k1 = _canonical_rate(p, nh0, state.n.values, grad=state.grad_wn)  # from the state
    k2 = _canonical_rate(p, nh0 + 0.5 * h * k1, t=t + 0.5 * h)
    k3 = _canonical_rate(p, nh0 + 0.5 * h * k2, t=t + 0.5 * h)
    k4 = _canonical_rate(p, nh0 + h * k3, t=t + h)
    return SimState.from_spectrum(t + h, nh0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), p)


_STEPPERS = {"imex": step_imex, "rk4": step_rk4, "rk4_canonical": step_rk4_canonical}
_EXPLICIT = ("rk4", "rk4_canonical")  # steppers that need h max|k|^2 <= 2.7


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
    """Per-step observables, in one pass over the state's cached fields with
    the formulas of `thermo`: one forward transform of Psi and one inverse
    for grad Phi_N, from Phi_hat = Psi_hat + W_hat N_hat (the constant -mu
    has no gradient).  The dissipation needs no Omega_N (`thermo._dissipation`).
    The state's N is positive by construction, so nothing is checked here.
    gap is measured against the uniform state: m0 for the non-conservative
    flow, the (conserved) mean density otherwise."""
    p = state.params
    g = p.grid
    n, psi, wn = state.n.values, state.psi, state.wn
    cv = g.cell_volume
    mass = float(n.sum()) * cv
    g_mu = thermo._free_energy(n, psi, wn, p.mu, cv)
    if canonical:
        nbar = ref_density if ref_density is not None else mass / g.volume
        gap = thermo._free_energy(n, psi, wn, 0.0, cv) - _uniform_energy(p, nbar, 0.0)
    else:
        gap = g_mu - _uniform_energy(p, p.m0, p.mu)
    psi_hat = spectral._hat(psi, g)
    grad_phi = spectral._real(g.ik * (psi_hat + state.n_hat * p.kernel.symbol), g)
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
        n_min=float(n.min()),
        n_max=float(n.max()),
        dissipation=thermo._dissipation(n, state.phi, grad_phi, cv),
        inner_iters=inner_iters,
        residual=residual,
    )


def evolve(state: SimState, T: float, h: float, integrator: str = "imex",
           stride: int = 1, emit=None, snapshot_every: int | None = None,
           jko=None) -> Trajectory:
    """March to time T making a DiagnosticsRecord every `stride` steps.

    `integrator` is a key of _STEPPERS or "jko" (`jko.jko_step` with the
    JkoConfig `jko`).  When T/h is an integer to 1e-9 relative, that many
    steps of h are taken; otherwise the last step is shortened to end at T.
    Step k ends at t0 + k h.  The march runs without overflow/invalid
    warnings: a step's own checks report the failure, and its GcflowError
    propagates from that step.  `emit`, when given, is called with each
    record as it is made, so the records made before a failure are kept by
    the caller.  A JKO step's report gives its `d0_psi` to `psi_d0_bound`
    and its `inner_iters`/`residual` to the records; a direct step has none.
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
    # step; records only see states that passed the step's checks
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            last = step == n_steps
            state, report = advance(state, h_last if last else h)
            state = state.at(t0 + (T if last and not exact else step * h))
            if report is not None:
                traj.psi_d0_bound = max(traj.psi_d0_bound or 0.0, report.d0_psi)
            if step % stride == 0 or last:
                rec = diagnostics(step, state, canonical=canonical, ref_density=ref_density,
                                  inner_iters=report.inner_iters if report else None,
                                  residual=report.residual if report else None)
                traj.records.append(rec)
                if emit:
                    emit(rec)
            if snapshot_every and step % snapshot_every == 0:
                traj.snapshots.append(state)
    return traj
