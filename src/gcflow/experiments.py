"""Experiment harness: rate fitting, volume sweeps, and convergence studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics, problems, spectral, thermo
from .config import JkoConfig
from .dynamics import SimState
from .errors import InsufficientData
from .thermo import ModelParams

GAP_FLOOR = 1e-13


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponential decay rate of the free-energy gap."""

    lambda_hat: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


def fit_decay_rate(records: list, window: tuple[float, float] | None = None) -> RateFit:
    """Fit log(gap) = a - lambda_hat * t to a march's records over `window`
    (default: the last 60% of their times).  Records with gap <= GAP_FLOOR
    are dropped."""
    ts = np.array([r.t for r in records])
    gaps = np.array([r.gap for r in records])
    if window is None:
        t0 = ts[0] + 0.4 * (ts[-1] - ts[0])
        window = (float(t0), float(ts[-1]))
    keep = (ts >= window[0]) & (ts <= window[1]) & (gaps > GAP_FLOOR)
    ts, gaps = ts[keep], gaps[keep]
    if ts.size < 10:
        raise InsufficientData(
            f"only {ts.size} usable records in window {window}; need at least 10"
        )
    return _log_linear_fit(ts, gaps, window)


def _log_linear_fit(ts: np.ndarray, values: np.ndarray, window: tuple) -> RateFit:
    """Least-squares fit of log(values) = a - lambda_hat * t."""
    y = np.log(values)
    slope, intercept = np.polyfit(ts, y, 1)
    resid = y - (slope * ts + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(float(-slope), r2, window, int(ts.size))


def _half_index(grid, n: tuple) -> tuple:
    """Index in the half spectrum of the mode with integer wavenumbers n, or of
    its conjugate partner (same modulus, same real part) when the last axis
    index lies above M/2."""
    idx = tuple(ni % grid.M for ni in n)
    if idx[-1] > grid.M // 2:
        idx = tuple(-i % grid.M for i in idx)
    return idx


def linearized_rate(k, params: ModelParams, canonical: bool = False) -> float:
    """Decay rate about the uniform state m0 of the grid mode nearest the
    wavenumber k: that mode of `dynamics._decay_symbol`,

    grand-canonical: (|k|^2 + m0^{-1/2}) (1 + m0 What(k));
    canonical:        |k|^2 (1 + m0 What(k)).

    A scalar k is the wavenumber along the first axis.
    """
    g = params.grid
    if np.isscalar(k):
        k = (float(k),) + (0.0,) * (g.d - 1)
    idx = _half_index(g, tuple(int(round(ki * g.L / (2.0 * np.pi))) for ki in k))
    return float(dynamics._decay_symbol(params, params.m0, not canonical)[idx])


def _states_every(k: int):
    """The `dynamics.evolve` record that keeps the state of every k-th step,
    and none of a shortened last step whose number k does not divide."""
    return lambda step, state, canonical, report: state if step % k == 0 else None


def measure_mode_decay(
    params: ModelParams,
    mode: int,
    eps: float,
    T: float,
    h: float,
    integrator: str = "rk4",
) -> RateFit:
    """Evolve m0 + eps cos(k x) and fit the decay rate of |Nhat(k, t)|."""
    state = problems.single_mode_state(params, mode, eps)
    g = params.grid
    idx = _half_index(g, (mode,) + (0,) * (g.d - 1))
    every = _states_every(max(1, dynamics._step_count(T, h)[0] // 400))
    ts, amps = [], []
    for s in [state] + dynamics.evolve(state, T, h, integrator, record=every):
        if mode == 0:
            amp = abs(float(np.mean(s.n.values)) - params.m0)
        else:
            amp = abs(s.n_hat[idx]) * g.cell_volume / g.volume
        if amp > GAP_FLOOR:
            ts.append(s.t)
            amps.append(amp)
    ts_a, amps_a = np.array(ts), np.array(amps)
    if ts_a.size < 10:
        raise InsufficientData("mode amplitude hit the floor too quickly")
    return _log_linear_fit(ts_a, amps_a, (float(ts_a[0]), float(ts_a[-1])))


@dataclass(frozen=True)
class SweepPoint:
    label: str
    L: float
    M: int
    fit: RateFit
    rates: thermo.RateConstants


@dataclass(frozen=True)
class SweepReport:
    points: tuple[SweepPoint, ...]
    max_ratio: float  # max over pairs of fitted-rate ratios

    def to_dict(self) -> dict:
        return {
            "points": [
                {
                    "label": p.label,
                    "L": p.L,
                    "M": p.M,
                    "lambda_hat": p.fit.lambda_hat,
                    "r_squared": p.fit.r_squared,
                    "window": list(p.fit.window),
                    "lambda_dagger": p.rates.lambda_dagger,
                }
                for p in self.points
            ],
            "max_ratio": self.max_ratio,
        }


def _sweep_report(points: list[SweepPoint]) -> SweepReport:
    lams = [p.fit.lambda_hat for p in points]
    return SweepReport(tuple(points), float(max(lams) / min(lams)))


def _run_point(label: str, state: SimState, T: float, h: float, integrator: str,
               stride: int, jko: JkoConfig | None = None) -> SweepPoint:
    """Evolve to T and fit the gap decay rate, from gap records: the fit
    reads no other field."""
    records = dynamics.evolve(state, T, h, integrator, stride=stride, jko=jko,
                              record=dynamics.gap_record)
    p = state.params
    return SweepPoint(label, p.grid.L, p.grid.M, fit_decay_rate(records),
                      thermo.rate_constants(p))


def volume_sweep(states: list[SimState], T: float, h: float, integrator: str = "imex",
                 jko: JkoConfig | None = None) -> SweepReport:
    """Run the same relaxation, by `integrator` (`jko` holds the tolerances
    of the implicit step), from `states`, one per torus of increasing volume,
    and compare fitted gap-decay rates."""
    return _sweep_report([_run_point(f"L={s.params.grid.L}", s, T, h, integrator, 5, jko)
                          for s in states])


@dataclass(frozen=True)
class ContrastReport:
    canonical: tuple[SweepPoint, ...]
    control: tuple[SweepPoint, ...]
    canonical_ratio: float  # fitted-rate ratio between volumes, canonical runs
    control_ratio: float  # same ratio for the grand-canonical control runs
    predicted_ratio: float  # ratio of linearized canonical rates k1^2-ish


def canonical_contrast(
    boxes: tuple[ModelParams, ModelParams],
    eps: float,
    T_canonical: float,
    h_canonical: float,
    T_control: float,
    h_control: float,
) -> ContrastReport:
    """Mass-conserving runs slow down with volume (rate ~ k1^2); the
    grand-canonical control keeps a volume-independent rate.  `boxes` are the
    same model on two tori."""
    canon, ctrl, lam_lin = [], [], []
    L_base = boxes[0].grid.L
    for params in boxes:
        L = params.grid.L
        lam_lin.append(linearized_rate(2.0 * np.pi / L, params, canonical=True))
        # the mass-conserving rate scales like 1/L^2: stretch the run time to
        # keep the decay profile (and fit window) self-similar across volumes
        T_can = T_canonical * (L / L_base) ** 2
        canon.append(_run_point(
            f"canonical L={L}", problems.single_mode_state(params, 1, eps), T_can,
            h_canonical, "rk4_canonical",
            max(1, dynamics._step_count(T_can, h_canonical)[0] // 600)))
        ctrl.append(_run_point(
            f"control L={L}", problems.shifted_mode_state(params, 1, eps), T_control,
            h_control, "imex", max(1, dynamics._step_count(T_control, h_control)[0] // 600)))
    return ContrastReport(
        tuple(canon),
        tuple(ctrl),
        canon[0].fit.lambda_hat / canon[1].fit.lambda_hat,
        ctrl[0].fit.lambda_hat / ctrl[1].fit.lambda_hat,
        lam_lin[0] / lam_lin[1],
    )


@dataclass(frozen=True)
class CorridorReport:
    ok: bool
    lower: float
    upper: float
    worst_min: float
    worst_max: float
    first_violation_t: float | None


def corridor_check(records: list, params: ModelParams) -> CorridorReport:
    """Whether the records' min and max of N stayed inside the corridor
    kappa m0 < N < m0 / kappa; reads `n_min`/`n_max`, so it needs full
    records (`evolve`'s default `diagnostics`)."""
    lo, hi = params.kappa * params.m0, params.m0 / params.kappa
    worst_min = min(r.n_min for r in records)
    worst_max = max(r.n_max for r in records)
    first = None
    for r in records:
        if r.n_min <= lo or r.n_max >= hi:
            first = r.t
            break
    return CorridorReport(first is None, lo, hi, worst_min, worst_max, first)


@dataclass(frozen=True)
class RateGuaranteeReport:
    applicable: bool  # sigma > 0 and corridor held throughout
    corridor: CorridorReport
    rates: thermo.RateConstants
    fit: RateFit | None
    guarantee_ok: bool | None  # fitted rate >= 0.95 * lambda_dagger
    l2_bound_ok: bool | None  # sigma * ||N - m0||_L2^2 <= gap(t) at every state


def rate_guarantee_check(states: list[SimState], params: ModelParams) -> RateGuaranteeReport:
    """Check the certified relaxation rate lambda_dagger = sigma g^-2 against
    the states of a grand-canonical march: their `diagnostics` records give
    the corridor and the fitted rate, and the L2 bound is replayed at each
    state.  Not applicable when sigma <= 0 or the corridor was left."""
    rates = thermo.rate_constants(params)
    records = [dynamics.diagnostics(step, s) for step, s in enumerate(states)]
    corr = corridor_check(records, params)
    if rates.sigma_nonpositive or not corr.ok:
        return RateGuaranteeReport(False, corr, rates, None, None, None)
    fit = fit_decay_rate(records)
    ok = fit.lambda_hat >= 0.95 * rates.lambda_dagger
    l2_ok = all(rates.sigma * spectral._l2_norm(s.n.values - params.m0, params.grid) ** 2
                <= r.gap * (1.0 + 1e-8) + 1e-15 for s, r in zip(states, records))
    return RateGuaranteeReport(True, corr, rates, fit, ok, l2_ok)


@dataclass(frozen=True)
class JkoStudyPoint:
    h: float
    endpoint_d0: float
    endpoint_d1: float
    sup_d0: float


@dataclass(frozen=True)
class JkoStudyReport:
    points: tuple[JkoStudyPoint, ...]
    order_d0: float  # fitted slope of log(endpoint_d0) vs log(h)
    h_ref: float
    b0: float  # max over steps of the per-step D0 log-density increment


def _check_study_steps(T: float, h_values: tuple) -> None:
    """`jko_convergence_study`'s refusal of its steps, run by the CLI before any march."""
    h_max = max(h_values)
    if not (len(set(h_values)) > 1 and all(0 < h <= T for h in h_values)
            and all(abs(h_max / h - round(h_max / h)) <= 1e-9 * h_max / h for h in h_values)):
        raise ValueError("expected two or more distinct steps in (0, T], each dividing the largest")
    try:  # the reference march has the most steps
        dynamics._step_count(T, min(h_values) / 20)
    except ValueError as exc:
        raise ValueError(f"reference steps of min / 20: {exc}") from None


def jko_convergence_study(
    state0: SimState,
    T: float,
    h_values: tuple[float, ...],
    jko: JkoConfig | None = None,
) -> JkoStudyReport:
    """First-order convergence of the variational integrator (tolerances
    `jko`) against a fine IMEX reference with step min(h) / 20.  Errors are
    D0/D1 norms of the density difference, taken on the states' N_hat, at
    the common comparison times j * max(h); ValueError unless the steps are
    two or more distinct values in (0, T], each dividing the largest, with a
    step count T / h_ref for the reference march that `dynamics._step_count`
    accepts (then every march's count is accepted), and InsufficientData
    when an endpoint D0 error is at most GAP_FLOOR, where the fitted order
    would be a fit to roundoff."""
    g = state0.params.grid
    _check_study_steps(T, h_values)
    h_max = max(h_values)
    h_ref = min(h_values) / 20
    # each march keeps its states at the comparison times
    ref = dynamics.evolve(state0, T, h_ref, record=_states_every(round(h_max / h_ref)))
    points = []
    d0 = [0.0]  # every JKO step's D0 log-density increment, recorded or not
    for h in h_values:
        keep = _states_every(round(h_max / h))  # a[3] below is the step's JkoStepReport
        states = dynamics.evolve(state0, T, h, "jko", jko=jko,
                                 record=lambda *a: d0.append(a[3].d0_psi) or keep(*a))
        errs = np.array([spectral._dnorms(g, s.n_hat - r.n_hat, 1)
                         for s, r in zip(states, ref)])
        points.append(JkoStudyPoint(h, float(errs[-1, 0]), float(errs[-1, 1]),
                                    float(errs[:, 0].max())))
    floor = min(points, key=lambda p: p.endpoint_d0)
    if floor.endpoint_d0 <= GAP_FLOOR:
        raise InsufficientData(f"endpoint D0 error {floor.endpoint_d0:.3e} at h = {floor.h:g} "
                               f"is at most {GAP_FLOOR:g}: no order to fit")

    hs = np.log([p.h for p in points])
    fit = _log_linear_fit(hs, np.array([p.endpoint_d0 for p in points]),
                          (float(hs.min()), float(hs.max())))
    return JkoStudyReport(tuple(points), -fit.lambda_hat, h_ref, max(d0))
