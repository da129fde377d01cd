"""Experiment harness: rate fitting, volume sweeps, and convergence studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics, jko, kernels, problems, thermo
from .dynamics import SimState, Trajectory
from .errors import ConfigError, InsufficientData
from .spectral import Grid, RealField, dnorm, forward, l2_norm
from .thermo import ModelParams

GAP_FLOOR = 1e-13


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponential decay rate of the free-energy gap."""

    lambda_hat: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


def fit_decay_rate(traj: Trajectory, window: tuple[float, float] | None = None) -> RateFit:
    """Fit log(gap) = a - lambda_hat * t over `window` (default: last 60% of
    the trajectory).  Records with gap <= 1e-13 are dropped."""
    ts = np.array([r.t for r in traj.records])
    gaps = np.array([r.gap for r in traj.records])
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


def _completed(traj: Trajectory) -> Trajectory:
    """`traj`, or its error raised if the run stopped early."""
    if traj.error is not None:
        raise traj.error
    return traj


def linearized_rate(k, params: ModelParams, canonical: bool = False) -> float:
    """Decay rate of the mode with wavenumber k about the uniform state.

    Grand-canonical: (|k|^2 + m0^{-1/2}) (1 + m0 What(k));
    canonical:        |k|^2 (1 + m0 What(k)).

    A scalar k is the wavenumber along the first axis.
    """
    g = params.grid
    if np.isscalar(k):
        k = (float(k),) + (0.0,) * (g.d - 1)
    idx = tuple(int(round(ki * g.L / (2.0 * np.pi))) % g.M for ki in k)
    what = float(params.kernel.spectrum.coeffs[idx].real)
    k2 = float(sum(ki * ki for ki in k))
    mult = 1.0 + params.m0 * what
    if canonical:
        return k2 * mult
    return (k2 + params.m0 ** -0.5) * mult


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
    idx = (mode % g.M,) + (0,) * (g.d - 1)
    n = max(1, round(T / h))  # stride n: the fit reads snapshots, not records
    traj = _completed(dynamics.evolve(state, T, h, integrator=integrator, stride=n,
                                      snapshot_every=max(1, n // 400)))
    ts, amps = [], []
    for s in [state] + traj.snapshots:
        if mode == 0:
            amp = abs(float(np.mean(s.n.values)) - params.m0)
        else:
            amp = abs(forward(s.n).coeffs[idx]) / g.volume
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


def _box_params(L: float, M_per_L: int, kernel_kw: dict, kappa: float, m0: float,
                d: int = 1) -> ModelParams:
    """The model on a box of side L at fixed grid spacing L / (M_per_L L)."""
    g = Grid.make(d, float(L), int(round(M_per_L * L)))
    kern = kernels.make_smoothed_indicator(g, **kernel_kw)
    return thermo.make_params(g, kern, kappa, m0=m0)


def _run_point(label: str, state: SimState, T: float, h: float, integrator: str,
               stride: int) -> SweepPoint:
    """Evolve to T and fit the gap decay rate."""
    traj = _completed(dynamics.evolve(state, T, h, integrator=integrator, stride=stride))
    p = state.params
    return SweepPoint(label, p.grid.L, p.grid.M, fit_decay_rate(traj), thermo.rate_constants(p))


def volume_sweep(
    L_values: tuple[float, ...],
    M_per_L: int,
    kernel_kw: dict,
    kappa: float,
    m0: float,
    T: float,
    h: float,
    seed: int = 7,
    amp: float = 0.25,
    k_c: int = 3,
    d: int = 1,
) -> SweepReport:
    """Run the same grand-canonical relaxation on tori of increasing volume
    (fixed grid spacing) and compare fitted gap-decay rates."""
    points = []
    for L in L_values:
        params = _box_params(L, M_per_L, kernel_kw, kappa, m0, d)
        state = problems.random_band_state(params, k_c, amp, seed)
        points.append(_run_point(f"L={L}", state, T, h, "imex", 5))
    return _sweep_report(points)


@dataclass(frozen=True)
class ContrastReport:
    canonical: tuple[SweepPoint, ...]
    control: tuple[SweepPoint, ...]
    canonical_ratio: float  # fitted-rate ratio between volumes, canonical runs
    control_ratio: float  # same ratio for the grand-canonical control runs
    predicted_ratio: float  # ratio of linearized canonical rates k1^2-ish


def canonical_contrast(
    L_values: tuple[float, float],
    M_per_L: int,
    kernel_kw: dict,
    kappa: float,
    m0: float,
    eps: float,
    T_canonical: float,
    h_canonical: float,
    T_control: float,
    h_control: float,
) -> ContrastReport:
    """Mass-conserving runs slow down with volume (rate ~ k1^2); the
    grand-canonical control keeps a volume-independent rate."""
    canon, ctrl, lam_lin = [], [], []
    L_base = L_values[0]
    for L in L_values:
        params = _box_params(L, M_per_L, kernel_kw, kappa, m0)
        lam_lin.append(linearized_rate(2.0 * np.pi / L, params, canonical=True))
        # the mass-conserving rate scales like 1/L^2: stretch the run time to
        # keep the decay profile (and fit window) self-similar across volumes
        T_can = T_canonical * (L / L_base) ** 2
        canon.append(_run_point(
            f"canonical L={L}", problems.single_mode_state(params, 1, eps), T_can,
            h_canonical, "rk4_canonical", max(1, int(round(T_can / h_canonical)) // 600)))
        ctrl.append(_run_point(
            f"control L={L}", problems.shifted_mode_state(params, 1, eps), T_control,
            h_control, "imex", max(1, int(round(T_control / h_control)) // 600)))
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


def corridor_check(traj: Trajectory, params: ModelParams) -> CorridorReport:
    lo, hi = params.kappa * params.m0, params.m0 / params.kappa
    worst_min = min(r.n_min for r in traj.records)
    worst_max = max(r.n_max for r in traj.records)
    first = None
    for r in traj.records:
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
    l2_bound_ok: bool | None  # sigma * ||N - m0||_L2^2 <= gap(t) at snapshots


def rate_guarantee_check(traj: Trajectory, params: ModelParams) -> RateGuaranteeReport:
    """Check the certified relaxation rate lambda_dagger = sigma g^-2 against a
    trajectory.  Not applicable when sigma <= 0 or the corridor was left."""
    rates = thermo.rate_constants(params)
    corr = corridor_check(traj, params)
    if rates.sigma_nonpositive or not corr.ok:
        return RateGuaranteeReport(False, corr, rates, None, None, None)
    fit = fit_decay_rate(traj)
    ok = fit.lambda_hat >= 0.95 * rates.lambda_dagger
    l2_ok: bool | None = None
    if traj.snapshots:
        gap_by_t = {round(r.t, 12): r.gap for r in traj.records}
        l2_ok = True
        for snap in traj.snapshots:
            gap = gap_by_t.get(round(snap.t, 12))
            if gap is None:
                continue
            dev = l2_norm(RealField(params.grid, snap.n.values - params.m0))
            if rates.sigma * dev**2 > gap * (1.0 + 1e-8) + 1e-15:
                l2_ok = False
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


def jko_convergence_study(
    state0: SimState,
    T: float,
    h_values: tuple[float, ...],
    inner_tol: float = 1e-12,
) -> JkoStudyReport:
    """First-order convergence of the variational integrator against a fine
    IMEX reference with step min(h) / 20.  Errors are D0/D1 norms of the
    density difference at the common comparison times j * max(h); ConfigError
    unless the steps are two or more distinct values in (0, T], each dividing
    the largest."""
    g = state0.params.grid
    h_max = max(h_values)
    if not (len(set(h_values)) > 1 and all(0 < h <= T for h in h_values)
            and all(abs(h_max / h - round(h_max / h)) <= 1e-9 * h_max / h for h in h_values)):
        raise ConfigError("h_values", "expected two or more distinct steps in (0, T], "
                                      "each dividing the largest")
    h_ref = min(h_values) / 20
    per = round(h_max / h_ref)
    ref = _completed(dynamics.evolve(state0, T, h_ref, stride=per, snapshot_every=per))
    points = []
    b0 = 0.0
    for h in h_values:
        per_h = round(h_max / h)
        traj = _completed(jko.jko_evolve(state0, T, jko.JkoConfig(h=h, inner_tol=inner_tol),
                                         stride=per_h, snapshot_every=per_h))
        b0 = max(b0, traj.psi_d0_bound)
        diffs = [RealField(g, s.n.values - r.n.values)
                 for s, r in zip(traj.snapshots, ref.snapshots)]
        end = diffs[-1]
        points.append(JkoStudyPoint(h, dnorm(end, 0), dnorm(end, 1),
                                    max(dnorm(e, 0) for e in diffs)))

    hs = np.log([p.h for p in points])
    errs = np.log([p.endpoint_d0 for p in points])
    order = float(np.polyfit(hs, errs, 1)[0])
    return JkoStudyReport(tuple(points), order, h_ref, b0)
