"""Variational (implicit) integrator in log-density variables."""

import numpy as np
import pytest

from gcflow import jko, problems
from gcflow.dynamics import rhs_grand, step_imex
from gcflow.errors import InnerDivergence, NoConvergence
from gcflow.experiments import linearized_rate
from gcflow.jko import JkoConfig, assemble_A, jko_evolve, jko_step, residual_implicit
from gcflow.kernels import make_smoothed_indicator
from gcflow.spectral import Grid, RealField, dnorm, forward
from gcflow.thermo import free_energy_grand, make_params


@pytest.fixture
def params():
    grid = Grid.make(1, 1.0, 64)
    kernel = make_smoothed_indicator(grid, 1.0, 0.1, 0.02)
    return make_params(grid, kernel, 0.4, m0=0.05)


def test_assemble_A_zero_at_uniform(params):
    st = problems.uniform_state(params)
    assert np.max(np.abs(assemble_A(st).values)) < 1e-11


def test_assemble_A_is_scaled_rhs(params):
    # A = e^{-Psi0} * rhs(N0): the log-variable drift equals the density
    # drift divided by N0
    st = problems.random_band_state(params, 3, 0.3, seed=41)
    a = assemble_A(st)
    expect = rhs_grand(st).values / st.n.values
    scale = max(1.0, np.max(np.abs(expect)))
    assert np.max(np.abs(a.values - expect)) < 1e-9 * scale


def test_uniform_state_is_fixed_point(params):
    st = problems.uniform_state(params)
    st1, rep = jko_step(st, JkoConfig(h=1e-2))
    assert np.max(np.abs(st1.n.values - params.m0)) < 1e-12
    assert rep.inner_iters <= 2


def test_symmetry_preservation(params):
    # an even initial profile stays even under the implicit step
    grid = params.grid
    x = grid.points()[0]
    n0 = RealField(grid, params.m0 * np.exp(0.2 * np.cos(2 * np.pi * x)))
    st = jko.SimState.from_density(0.0, n0, params)
    st1, _ = jko_step(st, JkoConfig(h=2e-3))
    v = st1.n.values
    assert np.max(np.abs(v[1:] - v[1:][::-1])) < 1e-12


def test_implicit_residual_small(params):
    st = problems.random_band_state(params, 3, 0.3, seed=42)
    st1, rep = jko_step(st, JkoConfig(h=1e-3))
    assert rep.residual < 1e-9
    replay = residual_implicit(st.n, st1.n, 1e-3, params)
    assert abs(replay - rep.residual) < 1e-12


def test_single_mode_decay_factor(params):
    # linearization: mode amplitude multiplies by 1/(1 + h lambda(k)) per step
    grid = params.grid
    eps, mode, h = 1e-5, 2, 2e-3
    st = problems.single_mode_state(params, mode, eps)
    st1, _ = jko_step(st, JkoConfig(h=h))
    k = 2 * np.pi * mode / grid.L
    amp0 = abs(forward(st.n).coeffs[mode]) / grid.volume
    amp1 = abs(forward(st1.n).coeffs[mode]) / grid.volume
    expected = 1.0 / (1.0 + h * linearized_rate(k, params))
    assert abs(amp1 / amp0 - expected) < 0.02 * expected


def test_zero_mode_decay_factor(params):
    eps, h = 1e-5, 2e-3
    st = problems.single_mode_state(params, 0, eps)
    st1, _ = jko_step(st, JkoConfig(h=h))
    dev0 = abs(float(np.mean(st.n.values)) - params.m0)
    dev1 = abs(float(np.mean(st1.n.values)) - params.m0)
    expected = 1.0 / (1.0 + h * linearized_rate(0.0, params))
    assert abs(dev1 / dev0 - expected) < 0.02 * expected


def test_matches_imex_at_first_order(params):
    # one implicit step and one IMEX step agree to O(h^2)
    st = problems.random_band_state(params, 3, 0.2, seed=43)
    errs = []
    for h in (2e-3, 5e-4):
        a, _ = jko_step(st, JkoConfig(h=h))
        b = step_imex(st, h)
        errs.append(np.max(np.abs(a.n.values - b.n.values)))
    # both methods are consistent: their difference vanishes superlinearly
    # (quartering h shrinks it by much more than 4)
    assert errs[1] < errs[0] / 5


def test_free_energy_monotone(params):
    st = problems.random_band_state(params, 3, 0.4, seed=44)
    g_prev = free_energy_grand(st.n, params)
    for _ in range(50):
        st, _ = jko_step(st, JkoConfig(h=2e-3))
        g = free_energy_grand(st.n, params)
        assert g <= g_prev + 1e-10 * max(1.0, abs(g_prev))
        g_prev = g


def test_inner_iteration_tolerance_respected(params):
    st = problems.random_band_state(params, 3, 0.3, seed=45)
    _, loose = jko_step(st, JkoConfig(h=1e-3, inner_tol=1e-6))
    _, tight = jko_step(st, JkoConfig(h=1e-3, inner_tol=1e-13))
    assert tight.inner_iters >= loose.inner_iters


def test_max_inner_raises(params):
    st = problems.random_band_state(params, 3, 0.3, seed=46)
    with pytest.raises(NoConvergence):
        jko_step(st, JkoConfig(h=1e-3, inner_tol=1e-30, max_inner=2))


def test_large_step_is_inner_divergence(params):
    # h = 1 overflows the inner iterate; that is a divergence, not a crash
    st = problems.random_band_state(params, 3, 0.3, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InnerDivergence):
            jko_step(st, JkoConfig(h=1.0))


def test_jko_evolve_ends_at_T(params):
    traj = jko_evolve(problems.uniform_state(params), 0.01, JkoConfig(h=4e-3))
    assert traj.error is None
    assert [r.step for r in traj.records] == [1, 2, 3]
    assert traj.records[-1].t == 0.01


def test_jko_evolve_tracks_b0(params):
    st = problems.random_band_state(params, 3, 0.3, seed=47)
    traj = jko_evolve(st, 0.02, JkoConfig(h=1e-3), stride=1)
    assert traj.error is None
    assert traj.psi_d0_bound is not None and np.isfinite(traj.psi_d0_bound)
    recs = traj.records
    assert all(r.inner_iters is not None and r.residual is not None for r in recs)


def test_d2_increment_bounded_linearly_in_h(params):
    # per-step D2 increment of Psi is O(h): halving h halves the increment
    st = problems.random_band_state(params, 3, 0.3, seed=48)
    incs = []
    for h in (2e-3, 1e-3, 5e-4):
        st1, rep = jko_step(st, JkoConfig(h=h))
        incs.append(rep.norm_delta_d2)
    assert 0.35 < incs[1] / incs[0] < 0.65
    assert 0.35 < incs[2] / incs[1] < 0.65
