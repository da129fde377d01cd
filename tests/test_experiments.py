"""Experiment harness: rate fitting, gating, reproducibility."""

import numpy as np
import pytest

from gcflow import dynamics, experiments, problems, thermo
from gcflow.dynamics import DiagnosticsRecord
from gcflow.errors import InsufficientData
from gcflow.experiments import (
    corridor_check,
    fit_decay_rate,
    jko_convergence_study,
    linearized_rate,
    rate_guarantee_check,
)
from gcflow.kernels import make_positive_type, make_smoothed_indicator
from gcflow.jko import jko_step
from gcflow.spectral import Grid, RealField, dnorm
from gcflow.thermo import make_params, rate_constants


@pytest.fixture
def params():
    grid = Grid.make(1, 1.0, 64)
    kernel = make_smoothed_indicator(grid, 1.0, 0.1, 0.02)
    return make_params(grid, kernel, 0.4, m0=0.05)


def keep_state(step, state, canonical, report):
    return state


def synthetic_traj(lam, n=100, dt=0.01, amp=1.0):
    return [
        DiagnosticsRecord(i, i * dt, 1.0, 0.0, amp * np.exp(-lam * i * dt),
                          0, 0, 0, 0.05, 0.05, 0.0)
        for i in range(n)
    ]


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
    fit = fit_decay_rate(recs, window=(1.2, 1.99))
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


def test_linearized_rate_folds_negative_wavenumbers(params):
    # the kernel symbol holds the half spectrum: a negative last component
    # reads the conjugate mode, whose W_hat is the same
    k = 2 * np.pi * 5 / params.grid.L
    ref = linearized_rate(k, params)
    assert abs(linearized_rate(-k, params) - ref) <= 1e-12 * ref
    grid = Grid.make(2, 1.0, 64)
    p2 = make_params(grid, make_smoothed_indicator(grid, 1.0, 0.1, 0.02), 0.4, m0=0.05)
    k1, k2 = 2 * np.pi * 3, 2 * np.pi * 5
    ref = linearized_rate((k1, k2), p2)
    for k in ((k1, -k2), (-k1, k2)):
        assert abs(linearized_rate(k, p2) - ref) <= 1e-12 * ref


def test_corridor_check(params):
    st = problems.random_band_state(params, 3, 0.3, seed=71)
    traj = dynamics.evolve(st, 0.2, 1e-3, stride=10)
    rep = corridor_check(traj, params)
    assert rep.ok and rep.first_violation_t is None
    assert rep.lower < rep.worst_min <= rep.worst_max < rep.upper


def test_corridor_check_reports_first_violation(params):
    # n_min reaches kappa m0 at t = 0.2 and both bounds are crossed later:
    # the check fails at t = 0.2 and reports the worst min and max of all
    lo, hi = params.kappa * params.m0, params.m0 / params.kappa
    bounds = [(0.03, 0.08), (0.025, 0.1), (lo, 0.09), (0.01, 0.13), (0.03, 0.08)]
    records = [DiagnosticsRecord(i, 0.1 * i, 1.0, 0.0, 0.0, 0, 0, 0, n_min, n_max, 0.0)
               for i, (n_min, n_max) in enumerate(bounds)]
    rep = corridor_check(records, params)
    assert not rep.ok and rep.first_violation_t == 0.1 * 2
    assert (rep.lower, rep.upper) == (lo, hi)
    assert rep.worst_min == 0.01 and rep.worst_max == 0.13 > hi


def test_rate_guarantee_positive_type():
    grid = Grid.make(1, 1.0, 64)
    kernel = make_positive_type(grid, 1.0, 0.05)
    params = make_params(grid, kernel, 0.4, m0=0.05)
    st = problems.random_band_state(params, 3, 0.3, seed=72)
    traj = dynamics.evolve(st, 1.2, 1e-3, stride=5, record=keep_state)
    assert len(traj) == 240
    rep = rate_guarantee_check(traj, params)
    assert rep.applicable
    assert rep.fit.lambda_hat >= 0.95 * rep.rates.lambda_dagger
    assert rep.l2_bound_ok


def test_rate_guarantee_l2_bound_fails_at_some_state(monkeypatch):
    # the L2 bound is replayed at every state: a sigma too large for it
    # fails it, and the fit is still made
    grid = Grid.make(1, 1.0, 64)
    params = make_params(grid, make_positive_type(grid, 1.0, 0.05), 0.4, m0=0.05)
    st = problems.random_band_state(params, 3, 0.3, seed=3)
    states = dynamics.evolve(st, 0.07, 1e-3, record=keep_state)
    huge = thermo.RateConstants(sigma=1e6, gsq=1.0, lambda_dagger=0.0, sigma_nonpositive=False)
    monkeypatch.setattr(thermo, "rate_constants", lambda p: huge)
    rep = rate_guarantee_check(states, params)
    assert rep.applicable and rep.l2_bound_ok is False
    assert rep.fit is not None and rep.fit.n_points == 42  # the last 60% of 70 states


def test_rate_guarantee_not_applicable_sigma(params):
    # adversarially large m0: sigma <= 0 -> check is skipped, not failed
    grid = params.grid
    kernel = params.kernel
    big = make_params(grid, kernel, 0.4, m0=2.0 * 0.4 * kernel.stats.theta_sharp)
    st = problems.uniform_state(big)
    traj = dynamics.evolve(st, 0.05, 1e-3, stride=5, record=keep_state)
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
                st, _ = jko_step(st, h)
            sup = max(sup, dnorm(RealField(params.grid, st.n.values - r), 0))
        end = dnorm(RealField(params.grid, st.n.values - ref[-1]), 0)
        assert point.endpoint_d0 == pytest.approx(end, rel=1e-13)
        assert point.sup_d0 == pytest.approx(sup, rel=1e-13)


def test_jko_study_b0_covers_every_step(params):
    # b0 is the max of d0_psi over every step of every JKO march, replayed here
    # by hand; the 2e-3 march keeps only every 2nd state, and its step 1, the
    # largest increment, is not kept (over kept steps only, b0 reads 15.2, not 18.6)
    st0 = problems.random_band_state(params, 2, 0.2, seed=73)
    T, hs = 0.02, (4e-3, 2e-3)
    d0 = []
    for h in hs:
        st = st0
        for _ in range(round(T / h)):
            st, rep = jko_step(st, h)
            d0.append(rep.d0_psi)
    assert jko_convergence_study(st0, T, hs).b0 == max(d0)


@pytest.mark.parametrize("T, hs", [(0.002, (4e-3, 2e-3)), (0.01, (2e-3,)),
                                   (0.01, (3e-3, 2e-3)), (0.01, (2e-3, -1e-3)),
                                   (1e300, (2e-300, 1e-300))])
def test_jko_study_rejects_bad_steps(params, T, hs):
    # a step beyond T used to end in an IndexError; one step fitted no order;
    # T / h beyond float range was an OverflowError
    st = problems.single_mode_state(params, 1, 1e-3)
    with pytest.raises(ValueError, match="expected two or more distinct steps|reference steps"):
        jko_convergence_study(st, T, hs)


def test_states_every_drops_shortened_last_step(params):
    # T / h = 10.5: 11 steps, the last one shortened to end at T; every 5th
    # step's state is kept, and step 11 (no multiple of 5) is not
    st = problems.random_band_state(params, 3, 0.2, seed=74)
    traj = dynamics.evolve(st, 0.0105, 1e-3, record=experiments._states_every(5))
    assert [round(s.t, 12) for s in traj] == [0.005, 0.01]
    assert all(isinstance(s, dynamics.SimState) for s in traj)
    # a multiple of k at the last step keeps it
    traj = dynamics.evolve(st, 0.0105, 1e-3, record=experiments._states_every(11))
    assert [s.t for s in traj] == [0.0105]


def test_mode_decay_window_ends_at_T(params):
    # T / h = 16.67 is not an integer: the last step is shortened to end at T
    fit = experiments.measure_mode_decay(params, 1, 1e-4, T=0.05, h=0.003, integrator="imex")
    assert fit.window[1] == 0.05


def test_mode_decay_rejects_overflowing_step_count(params):
    # T / h = 1e600 is no step count: a ValueError, not an OverflowError
    with pytest.raises(ValueError, match="overflows"):
        experiments.measure_mode_decay(params, 1, 1e-4, T=1e300, h=1e-300, integrator="imex")


def test_mode_decay_floored_amplitude_is_insufficient_data(params):
    # a mode of amplitude 1e-14 starts below GAP_FLOOR: no record is kept to fit
    with pytest.raises(InsufficientData, match="hit the floor too quickly"):
        experiments.measure_mode_decay(params, 1, 1e-14, T=0.05, h=1e-3, integrator="imex")


def test_volume_sweep_reproducible(params):
    a = experiments.volume_sweep([problems.random_band_state(params, 3, 0.25, 9)], T=0.6, h=2e-3)
    b = experiments.volume_sweep([problems.random_band_state(params, 3, 0.25, 9)], T=0.6, h=2e-3)
    assert a.points[0].fit.lambda_hat == b.points[0].fit.lambda_hat


@pytest.mark.parametrize("integrator, h", [("imex", 2e-3), ("jko", 4e-3)])
def test_volume_sweep_fit_matches_full_records(params, integrator, h):
    # the sweep fits gap records; the gap is the full record's, bit for bit
    st = problems.random_band_state(params, 3, 0.25, 9)
    point = experiments.volume_sweep([st], T=0.6, h=h, integrator=integrator).points[0]
    traj = dynamics.evolve(st, 0.6, h, integrator, stride=5)
    assert isinstance(traj[0], DiagnosticsRecord)
    full = fit_decay_rate(traj)
    assert point.fit.lambda_hat == full.lambda_hat
    assert point.fit.r_squared == full.r_squared


def test_random_band_state_in_corridor(params):
    from gcflow.thermo import in_corridor

    for seed in range(5):
        st = problems.random_band_state(params, 3, 1.0, seed=seed)
        assert in_corridor(st.n, params)


@pytest.mark.parametrize("amp", [-0.3, -1.0, -5.0])
def test_random_band_state_negative_amp_keeps_corridor(params, amp):
    # a negative amp flips the band's sign; its size is clamped like a
    # positive one's (it once bypassed the clamp: amp = -5 gave 5.0)
    from gcflow.thermo import in_corridor

    limit = 0.9 * np.log(1.0 / params.kappa)
    log_m0 = np.log(params.m0)
    st = problems.random_band_state(params, 3, amp, seed=7)
    flipped = problems.random_band_state(params, 3, -amp, seed=7)
    assert abs(np.max(np.abs(st.psi - log_m0)) - min(-amp, limit)) <= 1e-14
    assert np.allclose(st.psi - log_m0, -(flipped.psi - log_m0), rtol=0, atol=1e-15)
    assert in_corridor(st.n, params)
