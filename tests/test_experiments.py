"""Experiment harness: rate fitting, gating, reproducibility."""

import numpy as np
import pytest

from gcflow import dynamics, experiments, problems
from gcflow.dynamics import DiagnosticsRecord, Trajectory
from gcflow.errors import ConfigError, InsufficientData
from gcflow.experiments import (
    corridor_check,
    fit_decay_rate,
    jko_convergence_study,
    linearized_rate,
    rate_guarantee_check,
)
from gcflow.kernels import make_positive_type, make_smoothed_indicator
from gcflow.jko import JkoConfig, jko_step
from gcflow.spectral import Grid, RealField, dnorm
from gcflow.thermo import make_params, rate_constants


@pytest.fixture
def params():
    grid = Grid.make(1, 1.0, 64)
    kernel = make_smoothed_indicator(grid, 1.0, 0.1, 0.02)
    return make_params(grid, kernel, 0.4, m0=0.05)


def synthetic_traj(lam, n=100, dt=0.01, amp=1.0):
    recs = [
        DiagnosticsRecord(i, i * dt, 1.0, 0.0, amp * np.exp(-lam * i * dt),
                          0, 0, 0, 0.05, 0.05, 0.0)
        for i in range(n)
    ]
    return Trajectory(records=recs)


def test_fit_exact_exponential():
    fit = fit_decay_rate(synthetic_traj(2.5))
    assert abs(fit.lambda_hat - 2.5) < 1e-10
    assert fit.r_squared > 1 - 1e-12


def test_fit_window_selects_tail():
    # rate changes halfway: default window (last 60%) must see mostly the tail
    recs = []
    for i in range(200):
        t = i * 0.01
        gap = np.exp(-1.0 * t) if t < 1.0 else np.exp(-1.0) * np.exp(-4.0 * (t - 1.0))
        recs.append(DiagnosticsRecord(i, t, 1.0, 0.0, gap, 0, 0, 0, 0.05, 0.05, 0.0))
    fit = fit_decay_rate(Trajectory(records=recs), window=(1.2, 1.99))
    assert abs(fit.lambda_hat - 4.0) < 1e-8


def test_fit_scale_covariance():
    # multiplying the gap by a constant does not change the fitted rate
    a = fit_decay_rate(synthetic_traj(3.0, amp=1.0))
    b = fit_decay_rate(synthetic_traj(3.0, amp=1e-6))
    assert abs(a.lambda_hat - b.lambda_hat) < 1e-10


def test_fit_drops_floored_records():
    traj = synthetic_traj(5.0, n=400, dt=0.02)  # tail far below 1e-13
    fit = fit_decay_rate(traj, window=(0.0, 8.0))
    assert abs(fit.lambda_hat - 5.0) < 1e-6


def test_fit_insufficient_data():
    with pytest.raises(InsufficientData):
        fit_decay_rate(synthetic_traj(3.0, n=5))


def test_linearized_rate_values(params):
    # lambda(0) = m0^{-1/2} (1 + m0 w)
    w = params.kernel.w
    expect = 0.05**-0.5 * (1 + 0.05 * w)
    assert abs(linearized_rate(0.0, params) - expect) < 1e-12
    # canonical zero mode carries no decay
    assert linearized_rate(0.0, params, canonical=True) == 0.0


def test_corridor_check(params):
    st = problems.random_band_state(params, 3, 0.3, seed=71)
    traj = dynamics.evolve(st, 0.2, 1e-3, stride=10)
    rep = corridor_check(traj, params)
    assert rep.ok and rep.first_violation_t is None
    assert rep.lower < rep.worst_min <= rep.worst_max < rep.upper


def test_rate_guarantee_positive_type():
    grid = Grid.make(1, 1.0, 64)
    kernel = make_positive_type(grid, 1.0, 0.05)
    params = make_params(grid, kernel, 0.4, m0=0.05)
    st = problems.random_band_state(params, 3, 0.3, seed=72)
    traj = dynamics.evolve(st, 1.2, 1e-3, stride=5, snapshot_every=100)
    rep = rate_guarantee_check(traj, params)
    assert rep.applicable
    assert rep.fit.lambda_hat >= 0.95 * rep.rates.lambda_dagger
    assert rep.l2_bound_ok


def test_rate_guarantee_not_applicable_sigma(params):
    # adversarially large m0: sigma <= 0 -> check is skipped, not failed
    grid = params.grid
    kernel = params.kernel
    big = make_params(grid, kernel, 0.4, m0=2.0 * 0.4 * kernel.stats.theta_sharp)
    st = problems.uniform_state(big)
    traj = dynamics.evolve(st, 0.05, 1e-3, stride=5)
    rep = rate_guarantee_check(traj, big)
    assert not rep.applicable
    assert rep.fit is None


def test_jko_study_first_order(params):
    st = problems.random_band_state(params, 2, 0.2, seed=73)
    rep = jko_convergence_study(st, 0.04, (4e-3, 2e-3, 1e-3))
    assert 0.8 < rep.order_d0 < 1.2
    d0 = [p.endpoint_d0 for p in rep.points]
    assert 0.4 < d0[1] / d0[0] < 0.6
    assert 0.4 < d0[2] / d0[1] < 0.6
    sup = [p.sup_d0 for p in rep.points]
    assert sup[0] > sup[1] > sup[2]
    assert np.isfinite(rep.b0)


def test_jko_study_matches_hand_stepping(params):
    # the study's errors equal those of stepping step_imex / jko_step by hand
    st0 = problems.random_band_state(params, 2, 0.2, seed=73)
    T, hs = 0.02, (4e-3, 2e-3)
    rep = jko_convergence_study(st0, T, hs)
    h_ref, n_cmp = hs[1] / 20, 5
    ref, st = [], st0
    for _ in range(n_cmp):
        for _ in range(round(hs[0] / h_ref)):
            st = dynamics.step_imex(st, h_ref)
        ref.append(st.n.values)
    for h, point in zip(hs, rep.points):
        st, sup = st0, 0.0
        for r in ref:
            for _ in range(round(hs[0] / h)):
                st, _ = jko_step(st, JkoConfig(h=h))
            sup = max(sup, dnorm(RealField(params.grid, st.n.values - r), 0))
        end = dnorm(RealField(params.grid, st.n.values - ref[-1]), 0)
        assert point.endpoint_d0 == pytest.approx(end, rel=1e-13)
        assert point.sup_d0 == pytest.approx(sup, rel=1e-13)


@pytest.mark.parametrize("T, hs", [(0.002, (4e-3, 2e-3)), (0.01, (2e-3,)),
                                   (0.01, (3e-3, 2e-3)), (0.01, (2e-3, -1e-3))])
def test_jko_study_rejects_bad_steps(params, T, hs):
    # a step beyond T used to end in an IndexError; one step fitted no order
    st = problems.single_mode_state(params, 1, 1e-3)
    with pytest.raises(ConfigError, match="h_values"):
        jko_convergence_study(st, T, hs)


def test_mode_decay_window_ends_at_T(params):
    # T / h = 16.67 is not an integer: the last step is shortened to end at T
    fit = experiments.measure_mode_decay(params, 1, 1e-4, T=0.05, h=0.003, integrator="imex")
    assert fit.window[1] == 0.05


def test_volume_sweep_reproducible(params):
    kw = dict(amplitude=1.0, radius=0.1, mollifier_width=0.02)
    a = experiments.volume_sweep((1.0,), 64, kw, 0.4, 0.05, T=0.6, h=2e-3, seed=9)
    b = experiments.volume_sweep((1.0,), 64, kw, 0.4, 0.05, T=0.6, h=2e-3, seed=9)
    assert a.points[0].fit.lambda_hat == b.points[0].fit.lambda_hat


def test_random_band_state_in_corridor(params):
    from gcflow.thermo import in_corridor

    for seed in range(5):
        st = problems.random_band_state(params, 3, 1.0, seed=seed)
        assert in_corridor(st.n, params)
