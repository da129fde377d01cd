"""Direct time integrators for the interacting-diffusion dynamics.

Non-conservative equation (mass exchanges with a reservoir at chemical
potential mu):

    dN/dt = lap N + div(N grad w_N) - N exp(-(mu - w_N)/2) + exp((mu - w_N)/2)

with w_N = W * N.  Equivalently, in advective form,

    dN/dt = div(N grad Phi_N) - Omega_N Phi_N.

Conservative variant (fixed mass): dN/dt = lap N + div(N grad w_N).

A SimState holds N as a RealField and caches Psi = log N, W*N, grad W*N
and the half spectrum N_hat as plain arrays, and Phi_N and Omega_N from the
first time they are read.  It is built only by `from_density` or `from_psi`
(N_hat forward, W*N and grad W*N back: 2 transforms), `from_spectrum` or
`_mix` (a distance-path node, no transform), and each checks its N once
(`_positive`): PositivityLoss, naming t, unless every value is > 0 and
< inf, so every state is positive and finite by construction, and its
RealField is made from the checked array with no second scan.  A step
starts in Fourier space and keeps the density a bare array inside.
`_invert` gets N (checked), grad W*N and W*N from N_hat times the rows
[1, i k W_hat, W_hat] of the model's stacked multiplier in one inverse
transform; `_state` and the mass-conserving flow take a run of those rows,
so every builder and stage forms W*N and grad W*N alike, bit for bit.
`_explicit` writes the flux N grad W*N, with the reaction for the grand
flow, into one array and sends it forward in one transform.  IMEX takes one
of each (`from_spectrum` is `_invert`) and divides by the model's 1 - h lap:
2 transforms a step.  Both RK4 steppers march N_hat, one of each a stage:
8 a step.  The mass-conserving rate is 0 on the zero mode, so the mass is
kept exactly (bit for bit in N_hat).  A step validates no RealField.

The multiplier, the stage buffers and the IMEX denominators are a model's
`_Work`, made on first use by `_work` and kept in the model's own __dict__,
so they are freed with it; a step fetches it once and hands it to `_invert`
and `_explicit`.  A step's large intermediates live in the buffers, which
it overwrites: the multiplier's rows times N_hat (every `_invert`), an RK4
stage's N, W*N and grad W*N, and `_explicit`'s flux and reaction fields,
their half spectra and the reaction's exponentials.  What a step returns is
fresh: `_explicit`'s summed spectrum, each stage rate and, from
`from_spectrum` and every other builder, each array a state holds, so no
state, record or Phi_N and Omega_N formed from a state shares memory with a
buffer.  A model's steps must not run on two threads at once.

A full record (`diagnostics`, the NDJSON one) transforms Psi forward and
grad Phi_N back: 2 transforms, and no Omega_N.  A gap record (`gap_record`)
holds only the free-energy gap, the one field a rate fit reads: one
free-energy pass and no transform.  Both take the gap from `_gap`, so they
agree bit for bit.  Every step, `jko.jko_step`'s too, checks its h by one
rule, `_check_step`.

`evolve` is the one march loop, for these steppers and for the implicit
step of `gcflow.jko`; it returns the list of what its caller's `record`
returned (full records by default).  A step's failure is an ordinary
exception, raised by the step that detects it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

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
    grad_wn: np.ndarray  # grad W*N, one row per axis, cached
    n_hat: np.ndarray  # half spectrum (raw DFT) of N, cached
    params: ModelParams

    @staticmethod
    def from_density(t: float, n: RealField, params: ModelParams) -> "SimState":
        """The state of density n; PositivityLoss unless n > 0, GridMismatch off-grid."""
        spectral.same_grid(n, params)
        return _state(t, np.log(_positive(n.values, t)), n, params)

    @staticmethod
    def from_psi(t: float, psi: np.ndarray, params: ModelParams) -> "SimState":
        """The state of log-density psi (an array); an N = exp(psi) that
        underflows to 0 or overflows raises PositivityLoss."""
        with np.errstate(over="ignore"):  # an overflow is reported by _positive
            n = _positive(np.exp(psi), t)
        return _state(t, psi, RealField._checked(params.grid, n), params)

    @staticmethod
    def from_spectrum(t: float, n_hat: np.ndarray, params: ModelParams) -> "SimState":
        """The state whose N has half spectrum n_hat: one batched inverse
        transform gives N, W*N and grad W*N.  An N that is not positive and
        finite raises PositivityLoss."""
        n, wn, grad_wn = _invert(params, _work(params), n_hat, t, True)
        return SimState(t, np.log(n), RealField._checked(params.grid, n), wn, grad_wn, n_hat,
                        params)

    @cached_property
    def phi(self) -> np.ndarray:
        """Driving potential Phi_N = log N - mu + W*N, formed on first use."""
        return thermo._potential(self.psi, self.wn, self.params.mu)

    @cached_property
    def omega(self) -> np.ndarray:
        """Mobility Omega_N = sqrt(N) sinhc(Phi_N / 2), formed on first use."""
        return thermo._omega(self.n.values, self.phi)


class _Work(NamedTuple):
    """The arrays of one model's steps (`_work`), the buffers sized for the
    grand flow on a grid of dimension d; the mass-conserving flow uses a
    leading run of rows.  A step reads each buffer before the next write,
    and no state keeps one."""

    multiplier: np.ndarray  # (2 + d) half spectra: [1, i k W_hat (one row per axis), W_hat]
    inverse_hat: np.ndarray  # (2 + d) half spectra: the multiplier times N_hat
    inverse_real: np.ndarray  # (2 + d) fields: N, grad W*N, W*N of an RK4 stage
    forward_real: np.ndarray  # (1 + d) fields: the flux N grad W*N and the reaction
    forward_hat: np.ndarray  # (1 + d) half spectra of those
    reaction: np.ndarray  # (2) fields: the reaction's two exponentials
    denominators: dict  # h -> 1 - h lap on the half spectrum, for the last two h


def _work(p: ModelParams) -> _Work:
    """The model's `_Work`, made on first use and kept in its own __dict__.
    Times N_hat, the multiplier gives the half spectra of N, grad W*N and
    W*N, which a stage sends back in one transform; a contiguous run of its
    rows is a view.  Nothing in it refers back to the model, so reference
    counting frees it with the model."""
    if (work := p.__dict__.get("_work")) is None:
        w_hat, shape, rows = p.kernel.symbol, p.grid.shape, 1 + p.grid.d
        half = w_hat.shape
        multiplier = np.concatenate((np.ones((1,) + half, complex), p.grid.ik * w_hat, w_hat[None]))
        work = p.__dict__["_work"] = _Work(
            multiplier, np.empty((rows + 1,) + half, complex), np.empty((rows + 1,) + shape),
            np.empty((rows,) + shape), np.empty((rows,) + half, complex), np.empty((2,) + shape),
            {})
    return work


def _state(t: float, psi: np.ndarray, n: RealField, params: ModelParams) -> SimState:
    """The state of the positive density n with log n = psi: N_hat forward,
    then grad W*N and W*N back in one inverse of the last rows of the
    model's multiplier times N_hat, the rows `_invert` uses.
    PositivityLoss when the sum of n overflows: N > 0 gives |N_hat_k| <=
    N_hat_0, so a finite zero mode keeps every mode finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        n_hat = spectral._hat(n.values, params.grid)
    if not n_hat.flat[0].real < math.inf:  # also rejects NaN
        raise PositivityLoss(f"density overflowed: its sum over the grid is not finite "
                             f"at t = {t:.6g}")
    back = spectral._real(_work(params).multiplier[1:] * n_hat, params.grid)
    return SimState(t, psi, n, back[-1], back[:-1], n_hat, params)


def _mix(s0: SimState, s1: SimState, s: float) -> SimState:
    """The state at t = 0 of (1 - s) N0 + s N1 for states of one model: N_hat,
    W*N and grad W*N are linear in N, so each is that mixture of the states'
    fields, and only Psi = log N is formed pointwise.  No transform."""
    n = _positive((1.0 - s) * s0.n.values + s * s1.n.values, 0.0)
    wn, grad_wn, n_hat = ((1.0 - s) * getattr(s0, k) + s * getattr(s1, k)
                          for k in ("wn", "grad_wn", "n_hat"))
    return SimState(0.0, np.log(n), RealField._checked(s0.params.grid, n), wn, grad_wn, n_hat,
                    s0.params)


def _check_step(h: float, explicit: SimState | None = None) -> None:
    """ValueError unless 0 < h < inf (NaN fails it too); for an explicit step
    from the state `explicit`, StabilityViolation unless h max|k|^2 <= 2.7."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    if explicit is not None and h * (kmax2 := explicit.n.grid.k2_max) > 2.7:
        raise StabilityViolation(f"h * max|k|^2 = {h * kmax2:.3g} > 2.7; "
                                 f"reduce h below {2.7 / kmax2:.3g}")


def _positive(n: np.ndarray, t: float) -> np.ndarray:
    """n, the density at time t; PositivityLoss unless every value is > 0 and < inf."""
    if not n.min() > 0.0:  # also rejects NaN
        raise PositivityLoss(f"density hit {n.min():.3e} at t = {t:.6g}")
    if not n.max() < math.inf:
        raise PositivityLoss(f"density overflowed at t = {t:.6g}")
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
class GapRecord:
    """The record of a march that reads only the free-energy gap
    (`gap_record`)."""

    step: int
    t: float
    gap: float


def _invert(p: ModelParams, work: _Work, nh: np.ndarray, t: float, grand: bool,
            out: np.ndarray | None = None) -> tuple:
    """(N, W*N, grad W*N) from the half spectrum nh: the rows of the
    multiplier of `work`, the model's `_Work`, times nh, formed in its
    `inverse_hat` buffer, in one inverse transform, N checked positive at
    time t.  Not grand, the W*N row is left out and W*N is None.  The fields
    are written into the leading rows of `out` when it is given (an RK4
    stage's `inverse_real` buffer), else into a fresh array, which a state
    may keep."""
    rows = 2 + p.grid.d if grand else 1 + p.grid.d
    product = np.multiply(work.multiplier[:rows], nh, out=work.inverse_hat[:rows])
    fields = spectral._real(product, p.grid, out=None if out is None else out[:rows])
    n = _positive(fields[0], t)
    return (n, fields[-1], fields[1:-1]) if grand else (n, None, fields[1:])


def _explicit(p: ModelParams, work: _Work, n: np.ndarray, wn: np.ndarray | None,
              grad_wn: np.ndarray, grand: bool) -> np.ndarray:
    """Half spectrum of div(N grad w_N), plus, when grand, the reaction
    exp((mu - w_N)/2) - N exp(-(mu - w_N)/2): both are written into the
    `forward_real` buffer of `work`, the model's `_Work` (the reaction formed
    in its `reaction` rows), and sent forward in one transform into its
    `forward_hat`, whose flux rows take i k in place before the rows are
    summed (at d = 1 by one add, not a reduction) into a fresh array.  Not grand, it is exactly 0 on
    the zero mode, so it never moves the mass."""
    g = p.grid
    rows = g.d + 1 if grand else g.d
    fields = work.forward_real[:rows]
    np.multiply(n, grad_wn, out=fields[:g.d])
    if grand:  # two exponentials: one, e - n/e, divides by 0 when e underflows
        half, decay = work.reaction  # 0.5 (mu - w_N), then exp of it; n exp(-half)
        np.multiply(np.subtract(p.mu, wn, out=half), 0.5, out=half)
        np.multiply(n, np.exp(np.negative(half, out=decay), out=decay), out=decay)
        np.subtract(np.exp(half, out=half), decay, out=fields[g.d])
    hats = spectral._hat(fields, g, out=work.forward_hat[:rows])
    hats[:g.d] *= g.ik
    return hats[0] + hats[1] if g.d == 1 and grand else hats.sum(axis=0)


def rhs_grand(state: SimState) -> RealField:
    """lap N + div(N grad w_N) plus the reaction, from the state's caches."""
    p = state.params
    g = p.grid
    rate = g.lap * state.n_hat + _explicit(p, _work(p), state.n.values, state.wn, state.grad_wn,
                                           True)
    return RealField(g, spectral._real(rate, g))


def _onsager(state: SimState, f: np.ndarray, f_hat: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """The Onsager operator K_N f = Omega_N f - div(N grad f) of the flow
    (dN/dt = -K_N Phi_N), the implicit step and the metric, at the state's N,
    from f and its half spectrum f_hat: three transforms.  Written into `out`
    (a real array of the grid's shape, not f) when it is given."""
    g = state.n.grid
    k_f = np.multiply(state.omega, f, out=out)
    k_f -= spectral._real(spectral.div_n_grad(g, state.n.values, f_hat), g)
    return k_f


def _decay_symbol(p: ModelParams, m: float, grand: bool = True) -> np.ndarray:
    """The linearized decay symbol on the half spectrum: about the uniform
    density m, a small mode decays as dN_hat/dt = -symbol N_hat, with

        grand flow:           (|k|^2 + m^{-1/2}) (1 + m W_hat(k)),
        mass-conserving flow:  |k|^2 (1 + m W_hat(k)),

    the latter exactly 0 on the zero mode."""
    mult = 1.0 + m * p.kernel.symbol.real
    return ((p.grid.k2 + m ** -0.5) if grand else p.grid.k2) * mult


def rhs_grand_advective(state: SimState) -> RealField:
    """div(N grad Phi_N) - Omega_N Phi_N = -K_N Phi_N; equal to rhs_grand."""
    phi = state.phi
    return RealField(state.n.grid, -_onsager(state, phi, spectral._hat(phi, state.n.grid)))


def step_imex(state: SimState, h: float) -> SimState:
    """Semi-implicit Euler: diffusion implicit, a division by 1 - h lap (the
    model's, kept for its last two h: a march's step and its shortened
    last), interaction and reaction terms explicit.  First-order accurate,
    unconditionally stable in the linear diffusive part.  The explicit terms
    go forward in one transform (`_explicit`) and the new N_hat comes back
    in one (`SimState.from_spectrum`): two in all."""
    _check_step(h)
    p = state.params
    work = _work(p)
    explicit = _explicit(p, work, state.n.values, state.wn, state.grad_wn, True)
    cache = work.denominators
    if (den := cache.get(h)) is None:
        if len(cache) == 2:
            del cache[next(iter(cache))]
        den = cache[h] = 1.0 - h * p.grid.lap
    n_hat = (state.n_hat + h * explicit) / den
    return SimState.from_spectrum(state.t + h, n_hat, p)


def _rk4(state: SimState, h: float, grand: bool) -> SimState:
    """Classical RK4 on the half spectrum, for the grand flow or, not grand,
    the mass-conserving one.  A stage at N_hat_0 + c h k_hat gets its fields
    from `_invert` (N checked at the stage time) in the `inverse_real` buffer
    of the model's `_Work`, fetched once a step, and k_hat = lap N_hat + `_explicit`; stage 1 reads
    its fields from the state, and the step ends in `SimState.from_spectrum`."""
    _check_step(h, state)
    p = state.params
    t, nh0 = state.t, state.n_hat
    work = _work(p)

    def rate(nh: np.ndarray, n: np.ndarray, wn: np.ndarray | None, grad_wn: np.ndarray):
        return p.grid.lap * nh + _explicit(p, work, n, wn, grad_wn, grand)

    def stage(nh: np.ndarray, c: float) -> np.ndarray:
        return rate(nh, *_invert(p, work, nh, t + c * h, grand, work.inverse_real))

    k1 = rate(nh0, state.n.values, state.wn, state.grad_wn)  # from the state's caches
    k2 = stage(nh0 + 0.5 * h * k1, 0.5)
    k3 = stage(nh0 + 0.5 * h * k2, 0.5)
    k4 = stage(nh0 + h * k3, 1.0)
    return SimState.from_spectrum(t + h, nh0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), p)


def step_rk4(state: SimState, h: float) -> SimState:
    """Classical RK4 for the grand-canonical flow (`_rk4`): 8 transforms a
    step."""
    return _rk4(state, h, True)


def step_rk4_canonical(state: SimState, h: float) -> SimState:
    """Classical RK4 for the mass-conserving flow (`_rk4`): 8 transforms a
    step.  Every stage rate is 0 on the zero mode, so the zero mode of N_hat
    (the mass) is carried from step to step unchanged, bit for bit."""
    return _rk4(state, h, False)


_STEPPERS = {"imex": step_imex, "rk4": step_rk4, "rk4_canonical": step_rk4_canonical}
_EXPLICIT = ("rk4", "rk4_canonical")  # steppers that need h max|k|^2 <= 2.7


def _uniform_energy(p: ModelParams, c: float, mu: float) -> float:
    """Free energy of the uniform density c: grand at mu, canonical at mu = 0,
    factored like `thermo._free_energy`, so that c log c never overflows."""
    return p.grid.volume * c * (math.log(c) - (1.0 + mu) + 0.5 * p.kernel.w * c)


def _gap(state: SimState, canonical: bool) -> tuple:
    """(G_mu, gap) of the state in one free-energy pass, the gap measured
    against the uniform state: m0 for the non-conservative flow; otherwise
    the mean density of N_hat's zero mode, which the mass-conserving flow
    carries bit for bit.  The canonical energy G_mu + mu mass differs from
    G_mu by mu times the mass, which that uniform state shares, so both
    gaps are differences of G_mu, and neither forms a c log c or mu mass
    that overflows where the gap does not.  No transform."""
    p = state.params
    g = p.grid
    g_mu = thermo._free_energy(state.n.values, state.psi, state.wn, p.mu, g.cell_volume)
    c = float(state.n_hat.flat[0].real) * g.cell_volume / g.volume if canonical else p.m0
    return g_mu, g_mu - _uniform_energy(p, c, p.mu)


def gap_record(step: int, state: SimState, canonical: bool = False,
               report=None) -> GapRecord:
    """The free-energy gap of the state, the one field a rate fit reads: one
    free-energy pass and no transform.  Its gap is `diagnostics`'s, bit for
    bit (both take it from `_gap`).  The step's `report`, which `evolve`
    passes to any record, is not read."""
    return GapRecord(step, state.t, _gap(state, canonical)[1])


def diagnostics(step: int, state: SimState, canonical: bool = False,
                report=None) -> DiagnosticsRecord:
    """Per-step observables, in one pass over the state's cached fields with
    the formulas of `thermo`: the gap of `_gap`, one forward transform of
    Psi and one inverse for grad Phi_N, from Phi_hat = Psi_hat + W_hat N_hat
    (the constant -mu has no gradient).  The dissipation needs no Omega_N
    (`thermo._dissipation`); `inner_iters`/`residual` come from a JKO step's
    `report`.  The state's N is positive by construction: nothing is checked."""
    p = state.params
    g = p.grid
    n, psi = state.n.values, state.psi
    mass = state.n.integral()
    g_mu, gap = _gap(state, canonical)
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
        dissipation=thermo._dissipation(n, state.phi, grad_phi, g.cell_volume),
        inner_iters=report.inner_iters if report else None,
        residual=report.residual if report else None,
    )


_MAX_STEPS = 10**9  # far above any march that can finish: 11 h at 40 us a step


def _step_count(T: float, h: float) -> tuple:
    """(n, exact): n steps of h (h > 0) march to T, all of h when T/h is
    an integer n to 1e-9 relative (exact), else with the last one shortened
    to end at T; T/h may underflow to 0, which takes one step.  ValueError
    unless 0 < T < inf and T/h is finite (T = 1e300, h = 1e-300 is not) and
    at most _MAX_STEPS (T = 1e300, h = 1e-3 is not)."""
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    if not math.isfinite(ratio := T / h):
        raise ValueError(f"T / h = {T:g} / {h:g} overflows: too many steps")
    if ratio > _MAX_STEPS:
        raise ValueError(f"T / h = {T:g} / {h:g} is more than {_MAX_STEPS:g} steps")
    n_steps = max(1, round(ratio))
    if abs(ratio - n_steps) <= 1e-9 * ratio:
        return n_steps, True
    return max(1, math.ceil(ratio)), False


def evolve(state: SimState, T: float, h: float, integrator: str = "imex",
           stride: int = 1, jko=None, record=None) -> list:
    """March to time T, calling `record` every `stride` steps and at the end.

    `integrator` is a key of _STEPPERS or "jko" (`jko.jko_step` with the
    JkoConfig `jko`).  When T/h is an integer to 1e-9 relative, that many
    steps of h are taken; otherwise the last step is shortened to end at T.
    Step k ends at t0 + k h.  The march runs without overflow/invalid
    warnings: a step's own checks report the failure, and its GcflowError
    propagates from that step.  `record(step, state, canonical, report)`,
    `report` the step's `jko.JkoStepReport` (None after a direct step), is
    the one output: `evolve` returns the list of what it returned, Nones
    left out, and a caller that writes its records out as made keeps those
    before a failure.  None is `diagnostics`, the full NDJSON record (2
    transforms), read when `evolve` runs, so a patched
    `dynamics.diagnostics` is seen; `gap_record` makes no transform.
    ValueError unless h passes `_check_step` and T `_step_count`."""
    _check_step(h)
    n_steps, exact = _step_count(T, h)
    if integrator == "jko":
        from . import jko as implicit  # jko imports this module

        def advance(s, hk):  # read per step, so a patched jko.jko_step is seen
            return implicit.jko_step(s, hk, jko)
    else:
        stepper = _STEPPERS[integrator]

        def advance(s, hk):
            return stepper(s, hk), None
    if record is None:
        record = diagnostics
    canonical = integrator.endswith("canonical")
    h_last = h if exact else T - (n_steps - 1) * h
    t0 = state.t
    records = []
    # entered once: per step, np.errstate cost 5-10 us, 4-8% of a d = 1 IMEX
    # step; records only see states that passed the step's checks
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, n_steps + 1):
            last = step == n_steps
            state, report = advance(state, h_last if last else h)
            # rebuilt only when t0 + k h is not its t; directly: replace costs 1/10 of a step
            if (t := t0 + (T if last and not exact else step * h)) != state.t:
                state = SimState(t, state.psi, state.n, state.wn, state.grad_wn,
                                 state.n_hat, state.params)
            if (step % stride == 0 or last) and (
                    rec := record(step, state, canonical, report)) is not None:
                records.append(rec)
    return records
