"""Acceptance suite: twelve quantitative criteria at desk scale.

Matrix: d = 1, m0 = 0.05, kappa = 0.4, M <= 256.  Each test prints one
machine-grepable PASS/FAIL line.
"""

import numpy as np
import pytest

from gcflow import dynamics, experiments, jko, problems, selftest
from gcflow.dynamics import SimState, evolve, step_imex
from gcflow.experiments import (
    canonical_contrast,
    corridor_check,
    fit_decay_rate,
    jko_convergence_study,
    linearized_rate,
    measure_mode_decay,
    rate_guarantee_check,
    volume_sweep,
)
from gcflow.jko import jko_step
from gcflow.kernels import make_positive_type, make_smoothed_indicator
from gcflow.metric import path_distance_upper, solve_driving_potential
from gcflow.spectral import Grid, RealField, dnorm, gradient, l2_norm
from gcflow.thermo import make_params, rate_constants
from oracles import divergence, dissipation, free_energy_grand, in_corridor, omega

KERNEL_KW = dict(amplitude=1.0, radius=0.1, mollifier_width=0.02)
M0, KAPPA = 0.05, 0.4


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {status}  {detail}")


@pytest.fixture(scope="module")
def params():
    grid = Grid.make(1, 1.0, 64)
    kernel = make_smoothed_indicator(grid, **KERNEL_KW)
    return make_params(grid, kernel, KAPPA, m0=M0)


def test_criterion_01_stationarity(params):
    """From N = m0, every integrator stays put to 1e-10 over T = 1."""
    devs = {}
    st = problems.uniform_state(params)
    traj = evolve(st, 1.0, 1e-3, integrator="imex", stride=100)
    devs["imex"] = max(
        max(abs(r.n_min - M0), abs(r.n_max - M0)) for r in traj
    )
    h_rk4 = 5e-5
    traj = evolve(st, 1.0, h_rk4, integrator="rk4", stride=2000)
    devs["rk4"] = max(
        max(abs(r.n_min - M0), abs(r.n_max - M0)) for r in traj
    )
    traj = evolve(st, 1.0, 1e-2, "jko", stride=10)
    devs["jko"] = max(
        max(abs(r.n_min - M0), abs(r.n_max - M0)) for r in traj
    )
    ok = all(v <= 1e-10 for v in devs.values())
    report(1, "stationarity", ok,
           " ".join(f"{k}={v:.2e}" for k, v in devs.items()))
    assert ok


def test_criterion_02_free_energy_monotone(params):
    """G_mu non-increasing per step along every grand-canonical run."""
    runs = []
    st = problems.random_band_state(params, 3, 0.3, seed=101)
    runs.append(("imex", evolve(st, 1.0, 1e-3, stride=1)))
    runs.append(("rk4", evolve(st, 0.05, 5e-5, integrator="rk4", stride=1)))
    runs.append(("jko", evolve(st, 0.2, 2e-3, "jko", stride=1)))
    worst = 0.0
    for _, traj in runs:
        g = np.array([r.g_mu for r in traj])
        rel = np.diff(g) / np.maximum(1.0, np.abs(g[:-1]))
        worst = max(worst, float(np.max(rel, initial=-np.inf)))
    ok = worst <= 1e-10
    report(2, "free-energy monotonicity", ok, f"worst relative increase {worst:.2e}")
    assert ok


def test_criterion_03_dissipation_identity():
    """|dG/h + dissipation| is O(h): halving ratios in [0.4, 0.6], M = 128."""
    grid = Grid.make(1, 1.0, 128)
    kernel = make_smoothed_indicator(grid, **KERNEL_KW)
    p = make_params(grid, kernel, KAPPA, m0=M0)
    st0 = problems.random_band_state(p, 3, 0.3, seed=102)
    d0 = dissipation(st0.n, p)
    g0 = free_energy_grand(st0.n, p)
    errs = []
    for h in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
        st1 = step_imex(st0, h)
        errs.append(abs((free_energy_grand(st1.n, p) - g0) / h + d0))
    ratios = [b / a for a, b in zip(errs, errs[1:])]
    ok = all(0.4 < r < 0.6 for r in ratios)
    report(3, "dissipation identity", ok,
           "ratios " + " ".join(f"{r:.3f}" for r in ratios))
    assert ok


def test_criterion_04_linearized_spectrum(params):
    """Single-mode decay rates match lambda(k) within 2%."""
    rel_errs = {}
    for mode in (0, 1, 2, 3):
        k = 2 * np.pi * mode / params.grid.L
        lam = linearized_rate(k, params)
        fit = measure_mode_decay(params, mode, eps=1e-4, T=2.0 / lam, h=2e-5)
        rel_errs[mode] = abs(fit.lambda_hat - lam) / lam
    ok = all(v <= 0.02 for v in rel_errs.values())
    report(4, "linearized spectrum", ok,
           " ".join(f"mode{m}={v:.4f}" for m, v in rel_errs.items()))
    assert ok


def test_criterion_05_rate_bound_positive_type():
    """Fitted gap rate >= 0.95 lambda_dagger; L2 bound replayed pointwise."""
    grid = Grid.make(1, 1.0, 64)
    kernel = make_positive_type(grid, 1.0, 0.05)
    p = make_params(grid, kernel, KAPPA, m0=M0)
    rc = rate_constants(p)
    # theta_sharp = inf: lambda_dagger = (kappa / 2 m0) (kappa m0)^{1/2}
    expect = 0.5 * (KAPPA / M0) * np.sqrt(KAPPA * M0)
    assert abs(rc.lambda_dagger - expect) < 1e-12
    st = problems.random_band_state(p, 3, 0.3, seed=103)
    # every stride-5 state: its record for the fit, the L2 bound replayed at it
    states = evolve(st, 1.5, 1e-3, stride=5, record=lambda step, s, canonical, rep: s)
    rep = rate_guarantee_check(states)
    ok = (rep.applicable and rep.guarantee_ok and rep.l2_bound_ok)
    report(5, "certified rate bound", ok,
           f"lambda_hat={rep.fit.lambda_hat:.4f} >= 0.95*{rc.lambda_dagger:.4f}, "
           f"l2_bound_ok={rep.l2_bound_ok}")
    assert ok


def box(L):
    """The criterion model on a torus of side L, 64 points per unit length."""
    grid = Grid.make(1, L, round(64 * L))
    return make_params(grid, make_smoothed_indicator(grid, **KERNEL_KW), KAPPA, m0=M0)


def test_criterion_06_volume_independence():
    """L in {1,2,4}: fitted rates within 10% of each other."""
    states = [problems.random_band_state(box(L), 3, 0.25, seed=7) for L in (1.0, 2.0, 4.0)]
    rep = volume_sweep(states, T=1.5, h=2e-3)
    ok = rep.max_ratio <= 1.10
    rates = " ".join(f"{p.label}:{p.fit.lambda_hat:.4f}" for p in rep.points)
    report(6, "volume independence", ok, f"max ratio {rep.max_ratio:.4f} ({rates})")
    assert ok


def test_criterion_07_canonical_contrast():
    """Mass-conserving lowest-mode rate quarters when L doubles; the
    grand-canonical control rate does not move."""
    rep = canonical_contrast((box(2.0), box(4.0)), eps=0.002,
                             T_canonical=1.0, h_canonical=6e-5,
                             T_control=2.5, h_control=1e-3)
    ok = 3.4 <= rep.canonical_ratio <= 4.6 and 0.9 <= rep.control_ratio <= 1.1
    report(7, "canonical contrast", ok,
           f"canonical {rep.canonical_ratio:.3f} (predicted {rep.predicted_ratio:.3f}), "
           f"control {rep.control_ratio:.3f}")
    assert ok


def test_criterion_08_corridor_persistence(params):
    """No B_kappa violation over T = 20."""
    st = problems.random_band_state(params, 3, 1.0, seed=104)
    traj = evolve(st, 20.0, 2e-3, stride=10)
    rep = corridor_check(traj, params)
    ok = rep.ok
    report(8, "corridor persistence", ok,
           f"N in [{rep.worst_min:.4f}, {rep.worst_max:.4f}] vs "
           f"({rep.lower:.4f}, {rep.upper:.4f})")
    assert ok


def test_criterion_09_jko_consistency(params):
    """Per-step residual <= 1e-9; endpoint D0 error halves with h;
    sup-in-time D0 error monotone."""
    st = problems.random_band_state(params, 3, 0.3, seed=105)
    # residual check along a run (jko_step raises if > residual_tol = 1e-9)
    max_res = 0.0
    s = st
    for _ in range(25):
        s, step_rep = jko_step(s, 2e-3)
        max_res = max(max_res, step_rep.residual)
    rep = jko_convergence_study(st, 0.2, (4e-3, 2e-3, 1e-3))
    d0 = [p.endpoint_d0 for p in rep.points]
    ratios = [d0[1] / d0[0], d0[2] / d0[1]]
    sup = [p.sup_d0 for p in rep.points]
    ok = (max_res <= 1e-9
          and all(0.4 < r < 0.6 for r in ratios)
          and sup[0] > sup[1] > sup[2])
    report(9, "variational-integrator consistency", ok,
           f"max residual {max_res:.2e}, halving ratios "
           + " ".join(f"{r:.3f}" for r in ratios))
    assert ok


def test_criterion_10_log_density_bookkeeping(params):
    """||psi||_D0 <= recorded b0 over the run; per-step D2 increment of Psi
    bounded by C h with finite fitted C."""
    st = problems.random_band_state(params, 3, 0.3, seed=106)
    h = 2e-3
    d0_list, d2_list = [], []
    s = st
    for _ in range(50):
        s, rep = jko_step(s, h)
        d0_list.append(rep.d0_psi)
        d2_list.append(rep.norm_delta_d2)
    b0 = max(d0_list)
    c_fit = max(d2_list) / h
    ok = (all(v <= b0 * (1 + 1e-12) for v in d0_list)
          and np.isfinite(c_fit)
          and all(v <= c_fit * h * (1 + 1e-12) for v in d2_list))
    report(10, "log-density bookkeeping", ok,
           f"b0={b0:.4e}, fitted C={c_fit:.4e}")
    assert ok


def test_criterion_11_metric_layer(params):
    """Dense oracle at M = 32; zero self-distance; linear scaling; the
    g^2 L2 bound on the path distance; forward/reverse symmetry."""
    checks = {}
    # dense oracle
    grid32 = Grid.make(1, 1.0, 32)
    k32 = make_smoothed_indicator(grid32, 1.0, 0.1, 0.04)
    p32 = make_params(grid32, k32, KAPPA, m0=M0)
    s32 = problems.random_band_state(p32, 3, 0.3, seed=107)
    n32 = s32.n
    om = omega(n32, p32).values
    A = np.zeros((32, 32))
    for j in range(32):
        e = np.zeros(32)
        e[j] = 1.0
        q = RealField(grid32, e)
        flux = RealField(grid32, n32.values * gradient(q)[0].values)
        A[:, j] = divergence((flux,)).values - om * e
    rng = np.random.default_rng(108)
    target = RealField(grid32, rng.standard_normal((32,)))
    q_it, _ = solve_driving_potential(s32, target, tol=1e-13)
    checks["dense"] = float(np.max(np.abs(q_it.values - np.linalg.solve(A, target.values))))

    st = problems.random_band_state(params, 3, 0.3, seed=109)
    checks["self"] = path_distance_upper(st, st, 4).value_sq

    target = RealField(params.grid, rng.standard_normal(params.grid.shape))
    q1, _ = solve_driving_potential(st, target, tol=1e-13)
    q3, _ = solve_driving_potential(
        st, RealField(params.grid, 3.0 * target.values), tol=1e-13)
    checks["linear"] = float(
        np.max(np.abs(q3.values - 3.0 * q1.values)) / max(1.0, np.max(np.abs(q3.values)))
    )

    rc = rate_constants(params)
    uniform = SimState.from_density(
        0.0, RealField(params.grid, np.full(params.grid.shape, M0)), params)
    bound_ok = True
    for seed in (110, 111, 112):
        s0 = problems.random_band_state(params, 3, 0.5, seed=seed)
        n0 = s0.n
        assert in_corridor(n0, params)
        dev = l2_norm(RealField(params.grid, n0.values - M0))
        val = path_distance_upper(s0, uniform, 16).value_sq
        bound_ok = bound_ok and val <= rc.gsq * dev**2 * 1.02
    checks["l2_bound"] = bound_ok

    sb = problems.random_band_state(params, 3, 0.3, seed=113)
    fwd = path_distance_upper(st, sb, 16).value_sq
    rev = path_distance_upper(sb, st, 16).value_sq
    checks["symmetry"] = abs(fwd - rev) / max(1.0, fwd)

    ok = (checks["dense"] < 1e-8 and checks["self"] < 1e-24
          and checks["linear"] < 1e-10 and checks["l2_bound"]
          and checks["symmetry"] < 1e-8)
    report(11, "metric layer", ok,
           f"dense={checks['dense']:.2e} self={checks['self']:.2e} "
           f"linear={checks['linear']:.2e} l2_bound={checks['l2_bound']} "
           f"symmetry={checks['symmetry']:.2e}")
    assert ok


def test_criterion_12_spectral_battery():
    """Full self-check battery green (round trips, Parseval, norm
    inequalities, convolution oracle, and the rest)."""
    results = selftest.run_checks()
    failures = [(n, d) for n, okk, d in results if not okk]
    ok = not failures
    report(12, "self-check battery", ok,
           f"{len(results) - len(failures)}/{len(results)} checks"
           + (f"; failing: {failures}" if failures else ""))
    assert ok
