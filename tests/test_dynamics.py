"""Direct time-stepping: right-hand sides, integrators, diagnostics."""

import inspect
import json

import numpy as np
import pytest

from gcflow import dynamics, jko, problems, spectral, thermo
from gcflow.dynamics import (
    SimState,
    diagnostics,
    evolve,
    rhs_canonical,
    rhs_grand,
    rhs_grand_advective,
    step_imex,
    step_rk4,
    step_rk4_canonical,
)
from gcflow.errors import NonpositiveDensity, PositivityLoss, StabilityViolation
from gcflow.experiments import linearized_rate
from gcflow.kernels import make_smoothed_indicator
from gcflow.spectral import Grid, RealField
from gcflow.thermo import free_energy_grand, make_params


@pytest.fixture
def params():
    grid = Grid.make(1, 1.0, 64)
    kernel = make_smoothed_indicator(grid, 1.0, 0.1, 0.02)
    return make_params(grid, kernel, 0.4, m0=0.05)


def perturbed_state(params, seed=31, amp=0.1):
    return problems.random_band_state(params, 3, amp, seed)


def model(d, M):
    grid = Grid.make(d, 1.0, M)
    return make_params(grid, make_smoothed_indicator(grid, 1.0, 0.1, 0.04), 0.4, m0=0.05)


@pytest.fixture
def fft_calls(monkeypatch):
    """Counts calls of numpy's real transforms, which gcflow looks up on
    np.fft at each call, so the patch sees every one."""
    calls = []
    for name in ("rfft", "irfft", "rfftn", "irfftn"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, _t=transform, **k: calls.append(1) or _t(*a, **k))
    return calls


def test_rhs_vanishes_at_uniform(params):
    st = problems.uniform_state(params)
    assert np.max(np.abs(rhs_grand(st).values)) < 1e-12
    assert np.max(np.abs(rhs_canonical(st).values)) < 1e-12


def test_rhs_assemblies_agree(params):
    # direct form lap N + div(N grad w_N) - N e^{-(mu-w)/2} + e^{(mu-w)/2}
    # vs advective form div(N grad Phi) - Omega Phi
    st = perturbed_state(params)
    a, b = rhs_grand(st), rhs_grand_advective(st)
    scale = max(1.0, np.max(np.abs(a.values)))
    assert np.max(np.abs(a.values - b.values)) < 1e-10 * scale


def test_rhs_assemblies_agree_2d():
    grid = Grid.make(2, 1.0, 32)
    kernel = make_smoothed_indicator(grid, 1.0, 0.1, 0.04)
    p = make_params(grid, kernel, 0.4, m0=0.05)
    st = problems.random_band_state(p, 3, 0.3, seed=32)
    a, b = rhs_grand(st), rhs_grand_advective(st)
    scale = max(1.0, np.max(np.abs(a.values)))
    assert np.max(np.abs(a.values - b.values)) < 1e-10 * scale


def test_linearized_rate_vs_fd_jacobian(params):
    # independent validation of the lambda(k) oracle: the Jacobian of the
    # discretized right-hand side at the uniform state is diagonal in Fourier,
    # acting on cos(kx) as multiplication by -lambda(k)
    grid = params.grid
    x = grid.points()[0]
    t = 1e-7
    for mode in range(0, 5):
        k = 2 * np.pi * mode / grid.L
        pert = np.cos(k * x) if mode else np.ones(grid.shape)
        sp = SimState.from_density(0.0, RealField(grid, params.m0 + t * pert), params)
        sm = SimState.from_density(0.0, RealField(grid, params.m0 - t * pert), params)
        jac = (rhs_grand(sp).values - rhs_grand(sm).values) / (2 * t)
        lam = linearized_rate(k, params)
        assert np.max(np.abs(jac + lam * pert)) < 1e-5 * lam


def test_linearized_rate_canonical_vs_fd_jacobian(params):
    grid = params.grid
    x = grid.points()[0]
    t = 1e-7
    for mode in (1, 2, 3):
        k = 2 * np.pi * mode / grid.L
        pert = np.cos(k * x)
        sp = SimState.from_density(0.0, RealField(grid, params.m0 + t * pert), params)
        sm = SimState.from_density(0.0, RealField(grid, params.m0 - t * pert), params)
        jac = (rhs_canonical(sp).values - rhs_canonical(sm).values) / (2 * t)
        lam = linearized_rate(k, params, canonical=True)
        assert np.max(np.abs(jac + lam * pert)) < 1e-5 * lam


def test_imex_stationary(params):
    st = problems.uniform_state(params)
    for _ in range(50):
        st = step_imex(st, 1e-2)
    assert np.max(np.abs(st.n.values - params.m0)) < 1e-12


def test_imex_first_order_accuracy(params):
    # error vs a fine RK4 reference halves with h
    st0 = problems.single_mode_state(params, 1, 0.005)
    T = 0.02
    h_ref = 2.5e-5
    ref = st0
    for _ in range(int(T / h_ref)):
        ref = step_rk4(ref, h_ref)
    errs = []
    for h in (2e-3, 1e-3, 5e-4):
        st = st0
        for _ in range(int(round(T / h))):
            st = step_imex(st, h)
        errs.append(np.max(np.abs(st.n.values - ref.n.values)))
    r1, r2 = errs[1] / errs[0], errs[2] / errs[1]
    assert 0.4 < r1 < 0.6 and 0.4 < r2 < 0.6


def test_rk4_high_order():
    # halving h shrinks the RK4 error by ~16; just check it is << first order.
    # Coarse grid so the stability cap h < 2.7/max|k|^2 leaves truncation
    # error above roundoff.
    grid = Grid.make(1, 1.0, 16)
    kernel = make_smoothed_indicator(grid, 1.0, 0.1, 0.04)
    p = make_params(grid, kernel, 0.4, m0=0.05)
    st0 = problems.single_mode_state(p, 1, 0.02)
    T = 0.04
    h_ref = 2.5e-5
    ref = st0
    for _ in range(int(round(T / h_ref))):
        ref = step_rk4(ref, h_ref)
    errs = []
    for h in (8e-4, 4e-4):
        st = st0
        for _ in range(int(round(T / h))):
            st = step_rk4(st, h)
        errs.append(np.max(np.abs(st.n.values - ref.n.values)))
    assert errs[1] < errs[0] / 8


def test_rk4_stability_guard(params):
    st = problems.uniform_state(params)
    kmax2 = float(np.max(params.grid.k2))
    with pytest.raises(StabilityViolation):
        step_rk4(st, 3.0 / kmax2)


def test_canonical_mass_conservation(params):
    st = problems.single_mode_state(params, 1, 0.01)
    h = 2.0 / float(np.max(params.grid.k2))
    mass0 = st.n.integral()
    for _ in range(200):
        st = step_rk4_canonical(st, h)
    assert abs(st.n.integral() - mass0) < 1e-13


def test_grand_does_not_conserve_mass(params):
    # a uniform shift relaxes back to m0: mass moves through the reservoir
    st = problems.single_mode_state(params, 0, 0.01)
    mass0 = st.n.integral()
    traj = evolve(st, 0.2, 1e-3, integrator="imex", stride=10)
    assert traj.error is None
    assert abs(traj.records[-1].mass * params.grid.volume - mass0) > 1e-4


def test_free_energy_monotone_along_run(params):
    st = perturbed_state(params, seed=33, amp=0.3)
    traj = evolve(st, 0.5, 1e-3, integrator="imex", stride=1)
    assert traj.error is None
    g = np.array([r.g_mu for r in traj.records])
    assert np.all(np.diff(g) <= 1e-10 * np.maximum(1.0, np.abs(g[:-1])))


def test_gap_nonnegative_and_decaying(params):
    st = perturbed_state(params, seed=34, amp=0.3)
    traj = evolve(st, 1.0, 1e-3, integrator="imex", stride=10)
    gaps = np.array([r.gap for r in traj.records])
    assert np.all(gaps >= -1e-13)
    assert gaps[-1] < gaps[0] * 1e-2


def test_dissipation_identity_first_order(params):
    # |Delta G / h + <<grad Phi, grad Phi>>_N| = O(h) from a fixed state
    grid = Grid.make(1, 1.0, 128)
    kernel = make_smoothed_indicator(grid, 1.0, 0.1, 0.02)
    p = make_params(grid, kernel, 0.4, m0=0.05)
    st0 = problems.random_band_state(p, 3, 0.3, seed=35)
    d0 = thermo.dissipation(st0.n, p)
    g0 = free_energy_grand(st0.n, p)
    errs = []
    for h in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
        st1 = step_imex(st0, h)
        dg = (free_energy_grand(st1.n, p) - g0) / h
        errs.append(abs(dg + d0))
    for a, b in zip(errs, errs[1:]):
        assert 0.4 < b / a < 0.6


def test_evolve_records_and_snapshots(params):
    st = perturbed_state(params, seed=36)
    traj = evolve(st, 0.05, 1e-3, stride=10, snapshot_every=25)
    assert len(traj.records) == 5
    assert len(traj.snapshots) == 2
    assert traj.records[-1].step == 50


def test_diagnostics_record_json(params):
    st = perturbed_state(params, seed=37)
    rec = diagnostics(3, st)
    payload = json.loads(rec.to_json())
    for key in ("step", "t", "mass", "g_mu", "gap", "d0", "d1", "d2",
                "n_min", "n_max", "dissipation", "inner_iters", "residual"):
        assert key in payload
    assert payload["step"] == 3
    assert payload["inner_iters"] is None


def test_evolve_reproducible(params):
    st = perturbed_state(params, seed=38)
    a = evolve(st, 0.05, 1e-3, stride=5)
    b = evolve(st, 0.05, 1e-3, stride=5)
    assert [r.to_json() for r in a.records] == [r.to_json() for r in b.records]


def test_steppers_are_public_functions():
    # the benchmark tracer replaces each stepper by the wrapper of the module function
    for name, fn in dynamics._STEPPERS.items():
        assert inspect.isfunction(fn) and fn.__module__ == "gcflow.dynamics", name
        assert not fn.__name__.startswith("_") and getattr(dynamics, fn.__name__) is fn, name


def test_default_h(params):
    lam = linearized_rate(2 * np.pi * 31, params)
    h = dynamics.default_h(params, lam)
    assert h == min(0.1 * params.grid.dx, 0.01 / lam)


@pytest.mark.parametrize("T, h, steps", [(1.0, 0.3, 4), (0.01, 0.5, 1), (1.0, 1e-3, 1000)])
def test_evolve_ends_at_T(params, T, h, steps):
    # a non-integer T/h shortens the last step; an integer one keeps every
    # step at h, and t is t0 + k h rather than a running sum
    traj = evolve(problems.uniform_state(params), T, h, stride=steps)
    assert traj.error is None
    assert traj.records[-1].step == steps
    assert traj.records[-1].t == T


def test_evolve_propagates_programming_errors(params, monkeypatch):
    def broken(state, h):
        raise TypeError("not a numerical failure")

    monkeypatch.setitem(dynamics._STEPPERS, "imex", broken)
    with pytest.raises(TypeError):
        evolve(problems.uniform_state(params), 0.01, 1e-3)


def test_nan_density_is_positivity_loss(params):
    st = problems.uniform_state(params)
    with pytest.raises(PositivityLoss):
        dynamics._advance_density(st, np.full(params.grid.shape, np.nan), 1e-3)


@pytest.mark.parametrize("canonical", [False, True], ids=["grand", "canonical"])
@pytest.mark.parametrize("built_from", ["psi", "density"])
@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_record_matches_reference_functionals(d, M, built_from, canonical):
    # the one-pass record against the validated functionals of thermo/spectral
    p = model(d, M)
    st = problems.random_band_state(p, 3, 0.3, seed=39)  # built by from_psi
    if built_from == "density":
        st = SimState.from_density(0.0, st.n, p)
    rec = diagnostics(0, st, canonical=canonical)
    g_mu = thermo.free_energy_grand(st.n, p)
    reference = {
        "mass": st.n.integral(),
        "g_mu": g_mu,
        "d0": spectral.dnorm(st.psi, 0),
        "d1": spectral.dnorm(st.psi, 1),
        "d2": spectral.dnorm(st.psi, 2),
        "n_min": float(np.min(st.n.values)),
        "n_max": float(np.max(st.n.values)),
        "dissipation": thermo.dissipation(st.n, p),
    }
    for key, value in reference.items():
        assert abs(getattr(rec, key) - value) <= 1e-12 * abs(value), key
    if canonical:
        nbar = st.n.integral() / p.grid.volume
        gap = (thermo.free_energy_canonical(st.n, p.kernel)
               - dynamics._uniform_energy(p, nbar, 0.0))
    else:
        gap = g_mu - dynamics._uniform_energy(p, p.m0, p.mu)
    assert abs(rec.gap - gap) <= 1e-14 * abs(g_mu)


def test_record_rejects_underflowed_density(params):
    psi = np.full(params.grid.shape, np.log(params.m0))
    psi[5] = -1000.0  # exp underflows to 0
    st = SimState.from_psi(0.0, RealField(params.grid, psi), params)
    assert st.n.values[5] == 0.0
    with pytest.raises(NonpositiveDensity):
        diagnostics(0, st)


@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_transforms_per_step_and_record(d, M, fft_calls):
    # a step starts from the state's cached spectrum; IMEX gets N and W*N of
    # the new state from one batched inverse, and a record transforms
    # (Psi, Phi) forward and grad Phi back in one call each
    st = problems.random_band_state(model(d, M), 3, 0.3, seed=40)
    for name, count in {"imex": 4, "rk4": 17, "rk4_canonical": 17}.items():
        del fft_calls[:]
        dynamics._STEPPERS[name](st, 1e-5)
        assert len(fft_calls) == count, name
    for canonical in (False, True):
        del fft_calls[:]
        diagnostics(1, st, canonical=canonical)
        assert len(fft_calls) == 2, canonical


@pytest.mark.parametrize("integrator", ["imex", "rk4", "rk4_canonical", "jko"])
@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_cached_spectrum_matches_density(d, M, integrator):
    st = problems.random_band_state(model(d, M), 3, 0.3, seed=41)
    for _ in range(3):
        if integrator == "jko":
            st = jko.jko_step(st, 1e-3)[0]
        else:
            st = dynamics._STEPPERS[integrator](st, 1e-5)
    fresh = spectral._hat(st.n.values, st.n.grid)
    assert st.n_hat.shape == fresh.shape
    assert np.max(np.abs(st.n_hat - fresh)) <= 1e-12 * np.max(np.abs(fresh))
