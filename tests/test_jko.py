"""Variational (implicit) integrator in log-density variables."""

import numpy as np
import pytest

from gcflow import config, dynamics, jko, problems, spectral, thermo
from gcflow.dynamics import evolve, rhs_grand, step_imex
from gcflow.errors import InnerDivergence, NoConvergence
from gcflow.experiments import linearized_rate
from gcflow.jko import JkoConfig, jko_step, residual_implicit
from gcflow.kernels import make_positive_type, make_smoothed_indicator
from gcflow.spectral import Grid, RealField, dnorm
from gcflow.thermo import make_params
from oracles import approx_distance, free_energy_grand, potential_phi, weighted_inner


@pytest.fixture
def params():
    grid = Grid.make(1, 1.0, 64)
    kernel = make_smoothed_indicator(grid, 1.0, 0.1, 0.02)
    return make_params(grid, kernel, 0.4, m0=0.05)


def test_assemble_A_zero_at_uniform(params):
    st = problems.uniform_state(params)
    assert np.max(np.abs(spectral._real(jko._step(st, 1e-3).a_hat, params.grid))) < 1e-11


def test_assemble_A_is_scaled_rhs(params):
    # A = e^{-Psi0} * rhs(N0): the log-variable drift equals the density
    # drift divided by N0
    st = problems.random_band_state(params, 3, 0.3, seed=41)
    a = spectral._real(jko._step(st, 1e-3).a_hat, params.grid)
    expect = rhs_grand(st).values / st.n.values
    scale = max(1.0, np.max(np.abs(expect)))
    assert np.max(np.abs(a - expect)) < 1e-9 * scale


def test_uniform_state_is_fixed_point(params):
    st = problems.uniform_state(params)
    st1, rep = jko_step(st, 1e-2)
    assert np.max(np.abs(st1.n.values - params.m0)) < 1e-12
    assert rep.inner_iters <= 2


def test_symmetry_preservation(params):
    # an even initial profile stays even under the implicit step
    grid = params.grid
    x = grid.points()[0]
    n0 = RealField(grid, params.m0 * np.exp(0.2 * np.cos(2 * np.pi * x)))
    st = jko.SimState.from_density(0.0, n0, params)
    st1, _ = jko_step(st, 2e-3)
    v = st1.n.values
    assert np.max(np.abs(v[1:] - v[1:][::-1])) < 1e-12


def test_implicit_residual_small(params):
    st = problems.random_band_state(params, 3, 0.3, seed=42)
    st1, rep = jko_step(st, 1e-3)
    assert rep.residual < 1e-9
    replay = residual_implicit(st, st1, 1e-3)
    assert abs(replay - rep.residual) < 1e-12


def test_single_mode_decay_factor(params):
    # linearization: mode amplitude multiplies by 1/(1 + h lambda(k)) per step
    grid = params.grid
    eps, mode, h = 1e-5, 2, 2e-3
    st = problems.single_mode_state(params, mode, eps)
    st1, _ = jko_step(st, h)
    k = 2 * np.pi * mode / grid.L
    amp0 = abs(np.fft.fftn(st.n.values)[mode] * grid.cell_volume) / grid.volume
    amp1 = abs(np.fft.fftn(st1.n.values)[mode] * grid.cell_volume) / grid.volume
    expected = 1.0 / (1.0 + h * linearized_rate(k, params))
    assert abs(amp1 / amp0 - expected) < 0.02 * expected


def test_zero_mode_decay_factor(params):
    eps, h = 1e-5, 2e-3
    st = problems.single_mode_state(params, 0, eps)
    st1, _ = jko_step(st, h)
    dev0 = abs(float(np.mean(st.n.values)) - params.m0)
    dev1 = abs(float(np.mean(st1.n.values)) - params.m0)
    expected = 1.0 / (1.0 + h * linearized_rate(0.0, params))
    assert abs(dev1 / dev0 - expected) < 0.02 * expected


def test_matches_imex_at_first_order(params):
    # one implicit step and one IMEX step agree to O(h^2)
    st = problems.random_band_state(params, 3, 0.2, seed=43)
    errs = []
    for h in (2e-3, 5e-4):
        a, _ = jko_step(st, h)
        b = step_imex(st, h)
        errs.append(np.max(np.abs(a.n.values - b.n.values)))
    # both methods are consistent: their difference vanishes superlinearly
    # (quartering h shrinks it by much more than 4)
    assert errs[1] < errs[0] / 5


def test_free_energy_monotone(params):
    st = problems.random_band_state(params, 3, 0.4, seed=44)
    g_prev = free_energy_grand(st.n, params)
    for _ in range(50):
        st, _ = jko_step(st, 2e-3)
        g = free_energy_grand(st.n, params)
        assert g <= g_prev + 1e-10 * max(1.0, abs(g_prev))
        g_prev = g


def test_inner_iteration_tolerance_respected(params):
    st = problems.random_band_state(params, 3, 0.3, seed=45)
    _, loose = jko_step(st, 1e-3, JkoConfig(inner_tol=1e-6))
    _, tight = jko_step(st, 1e-3, JkoConfig(inner_tol=1e-13))
    assert tight.inner_iters >= loose.inner_iters


def test_max_inner_raises(params):
    st = problems.random_band_state(params, 3, 0.3, seed=46)
    with pytest.raises(NoConvergence):
        jko_step(st, 1e-3, JkoConfig(inner_tol=1e-30, max_inner=2))


def far_state(params, a):
    """N0 = m0 exp(a cos 2 pi x): a density ratio e^{2a} across the box."""
    x = params.grid.points()[0]
    return jko.SimState.from_psi(0.0, np.log(params.m0) + a * np.cos(2 * np.pi * x), params)


def test_large_step_is_inner_divergence(params):
    # h = 100 from a state far from uniform overflows the inner iterate; that
    # is a divergence, not a crash
    st = far_state(params, 5.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InnerDivergence, match="blew up"):
            jko_step(st, 100.0)


def test_growing_residual_is_inner_divergence():
    # at m0 = 20 the step h = 10 makes the fixed-point residual grow for five
    # iterations in a row, which the step reports before any iterate
    # overflows; from the same state h = 100 overflows first and h = 1
    # converges
    grid = Grid.make(1, 1.0, 64)
    p = make_params(grid, make_smoothed_indicator(grid, 1.0, 0.1, 0.02), 0.4, m0=20.0)
    st = problems.random_band_state(p, 3, 0.3, seed=1)
    with pytest.raises(InnerDivergence, match=r"^fixed-point residual grew for 5 consecutive "
                                              r"iterations \(h = 10\.0 too large\)$"):
        jko_step(st, 10.0)
    with pytest.raises(InnerDivergence, match="blew up"):
        jko_step(st, 100.0)
    _, rep = jko_step(st, 1.0)
    assert rep.residual <= JkoConfig().residual_tol


def test_large_step_from_band_converges(params):
    # the symbol preconditioner keeps the reaction implicit: from a band
    # inside the corridor, even h = 100 converges to an accepted step
    st = problems.random_band_state(params, 3, 0.3, seed=0)
    st1, rep = jko_step(st, 100.0)
    assert rep.residual <= JkoConfig().residual_tol
    assert rep.inner_iters < 30


@pytest.mark.parametrize("h", [0.01, 0.1, 1.0])
def test_far_from_uniform_step_converges(params, h):
    # N0 spans a factor e^4: the preconditioner's symbol at min N0 keeps the
    # low-density regions implicit, and Anderson mixing the nonlinear part
    st1, rep = jko_step(far_state(params, 2.0), h)
    assert rep.residual <= JkoConfig().residual_tol
    assert rep.inner_iters < 60


def test_inner_iterations_independent_of_volume():
    # criterion model, h = 1, T = 3, M = 64 L, bands of amp 1.0: every run
    # converges, and the mean inner iterations a step stay under one bound at
    # every L (preconditioned by (1 - h lap)^{-1} alone, the map takes 12, 26
    # and 86 at L = 1, 4, 16, and 3 of the 18 runs diverge)
    for L in (1, 4, 16):
        grid = Grid.make(1, float(L), 64 * L)
        p = make_params(grid, make_smoothed_indicator(grid, 1.0, 0.1, 0.02), 0.4, m0=0.05)
        iters = []
        for seed in range(6):
            traj = evolve(problems.random_band_state(p, 3, 1.0, seed=seed), 3.0, 1.0, "jko")
            iters += [r.inner_iters for r in traj]
        assert np.mean(iters) < 12, L


@pytest.mark.parametrize("h", [0.5, 1.0])
def test_large_step_converges(params, h):
    st = problems.random_band_state(params, 3, 0.3, seed=0)
    st1, rep = jko_step(st, h)
    assert rep.residual <= JkoConfig().residual_tol
    assert rep.inner_iters < 30
    assert st1.t == h


def test_residual_reuses_cached_convolutions(params, transform_calls):
    # log N and W*N come from the states' caches: one residual costs 4
    # transforms (d = 1) and matches states rebuilt from their densities
    st = problems.random_band_state(params, 3, 0.3, seed=49)
    st1, _ = jko_step(st, 1e-3)
    recomputed = residual_implicit(jko.SimState.from_density(st.t, st.n, params),
                                   jko.SimState.from_density(st1.t, st1.n, params), 1e-3)
    del transform_calls[:]
    cached = residual_implicit(st, st1, 1e-3)
    assert len(transform_calls) == 4
    assert abs(cached - recomputed) <= 1e-14 * recomputed


@pytest.mark.parametrize("h", [1e-3, 1.0])
def test_step_transforms_per_inner_iteration(params, transform_calls, h):
    # a step costs 10 transforms (d = 1: 3 frozen terms, psi back, N1's
    # state 2, the residual 4) and 4 an inner iteration; the preconditioner
    # is an array on the half spectrum and adds none
    st = problems.random_band_state(params, 3, 0.3, seed=49)
    del transform_calls[:]
    _, rep = jko_step(st, h)
    assert len(transform_calls) == 10 + 4 * rep.inner_iters


def test_step_forms_omega_once(params, monkeypatch):
    # Omega_{N0} is formed once per step, for the frozen terms, and the
    # residual reads it from the state; in a march a record does not form it
    calls = []
    form = thermo._omega
    monkeypatch.setattr(thermo, "_omega", lambda *a: calls.append(1) or form(*a))
    st = problems.random_band_state(params, 3, 0.3, seed=49)
    jko_step(st, 1e-3)
    assert len(calls) == 1
    del calls[:]
    evolve(problems.random_band_state(params, 3, 0.3, seed=49), 4e-3, 1e-3, "jko", stride=1)
    assert len(calls) == 4


def _fresh_map(st, h, x_hat):
    """G(x) of the module docstring with every intermediate freshly
    allocated, in the operation order of `jko._step` and `jko._map`."""
    p, g = st.params, st.n.grid
    psi0_hat = spectral._hat(st.psi, g)
    grad_psi0 = spectral._real(g.ik * psi0_hat, g)
    omega0 = np.exp(-st.psi) * st.omega
    local0 = np.sum(grad_psi0 * (grad_psi0 + st.grad_wn), axis=0) - st.phi * omega0
    a_hat = g.lap * (psi0_hat + st.n_hat * p.kernel.symbol) + spectral._hat(local0, g)
    lam = dynamics._decay_symbol(p, float(st.n.values.min()))
    psi = spectral._real(x_hat, g)
    e = np.expm1(psi * h)
    wp_hat = p.kernel.symbol * spectral._hat(st.n.values * e / h, g)
    back = spectral._real(np.concatenate([wp_hat[None], g.ik * (x_hat + wp_hat)]), g)
    local = np.sum(back[1:] * grad_psi0, axis=0) - (psi + back[0]) * omega0
    local = local * h - (e - psi * h) / h
    rhs = h * g.lap * wp_hat + a_hat + spectral._hat(local, g) + h * (lam + g.lap) * x_hat
    return 1.0 / (1.0 + h * lam) * rhs


@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_map_matches_fresh_allocation_bit_for_bit(d, M):
    # G written into the step's arrays gives the bits of G written with fresh
    # arrays, at the first iterate P_h(A) and again at the next, once the
    # arrays hold the first evaluation's intermediates
    grid = Grid.make(d, 1.0, M)
    p = make_params(grid, make_smoothed_indicator(grid, 1.0, 0.1, 0.04), 0.4, m0=0.05)
    st = problems.random_band_state(p, 3, 0.3, seed=49)
    h = 0.01
    step = jko._step(st, h)
    x_hat = step.a_hat * step.precond
    for _ in range(2):
        expected = _fresh_map(st, h, x_hat)
        x_hat = jko._map(step, x_hat)
        assert np.array_equal(x_hat, expected)


def test_jko_evolve_ends_at_T(params):
    traj = evolve(problems.uniform_state(params), 0.01, 4e-3, "jko")
    assert [r.step for r in traj] == [1, 2, 3]
    assert traj[-1].t == 0.01


def test_d2_increment_bounded_linearly_in_h(params):
    # per-step D2 increment of Psi is O(h): halving h halves the increment
    st = problems.random_band_state(params, 3, 0.3, seed=48)
    incs = []
    for h in (2e-3, 1e-3, 5e-4):
        st1, rep = jko_step(st, h)
        incs.append(rep.norm_delta_d2)
    assert 0.35 < incs[1] / incs[0] < 0.65
    assert 0.35 < incs[2] / incs[1] < 0.65


@pytest.mark.parametrize("family", ["smoothed_indicator", "positive_type"])
def test_step_energy_inequality_and_rate(family):
    # the theorem at the level of the scheme: each step lowers G by at least
    # d_a^2 / h, with d_a^2 = h^2 <<Phi_{N1}, Phi_{N1}>>_{N0} the squared
    # short-time distance, and shrinks the gap by 1 + 2 lambda_dagger h
    for L in (1.0, 4.0):
        grid = Grid.make(1, L, int(64 * L))
        kernel = (make_smoothed_indicator(grid, 1.0, 0.1, 0.02) if family == "smoothed_indicator"
                  else make_positive_type(grid, 1.0, 0.05))
        p = make_params(grid, kernel, 0.4, m0=0.05)
        lam = thermo.rate_constants(p).lambda_dagger
        g_eq = free_energy_grand(problems.uniform_state(p).n, p)
        assert lam > 0
        for h in (2e-3, 2e-2):
            st = problems.random_band_state(p, 3, 0.3, seed=103)
            g0 = free_energy_grand(st.n, p)
            for step in range(40):
                st1, _ = jko_step(st, h)
                g1 = free_energy_grand(st1.n, p)
                phi1 = potential_phi(st1.n, p)
                da_sq = h * h * weighted_inner(st.n, p, phi1, phi1)
                assert g0 - g1 >= da_sq / h
                assert (g1 - g_eq) / (g0 - g_eq) * (1.0 + 2.0 * lam * h) <= 1.0
                if step < 2:
                    d_a, _ = approx_distance(st, st1)
                    assert abs(d_a**2 - da_sq) <= 1e-10 * da_sq
                st, g0 = st1, g1


def test_jko_config_lives_in_config():
    # the [jko] section's dataclass is defined with the config, so that loading
    # a config does not import the implicit step; gcflow.jko re-exports it
    assert jko.JkoConfig is config.JkoConfig and JkoConfig is config.JkoConfig


@pytest.mark.parametrize("field, value", [
    ("inner_tol", float("nan")), ("inner_tol", float("inf")),
    ("residual_tol", float("nan")), ("residual_tol", float("inf")),
    ("max_inner", 0), ("max_inner", -1),
])
def test_config_rejects_bad_solver_settings(field, value):
    # a programming error, raised when the config is made, not reported by
    # jko_step as a numerical failure (InnerDivergence, ResidualTooLarge)
    with pytest.raises(ValueError, match=field):
        JkoConfig(**{field: value})


def test_anderson_repeated_differences_give_finite_step():
    # exactly repeated differences make the Gram matrix singular, where
    # np.linalg.solve raises; lstsq takes the minimum-norm combination
    rng = np.random.default_rng(5)
    out, r_out, r_res = rng.standard_normal((3, 20))
    d_out, d_res = np.stack([r_out] * 3), np.stack([r_res] * 3)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(d_res @ d_res.T, d_res @ (2.0 * r_res))
    x = jko._anderson(out, 2.0 * r_res, d_out, d_res)
    assert np.all(np.isfinite(x))
    np.testing.assert_allclose(x, out - 2.0 * r_out, rtol=1e-12, atol=1e-12)


def test_anderson_march_where_plain_gram_solve_is_singular():
    # the benchmark's JKO march (d = 1, M = 256, amp 1, h = 0.04, T = 2) at
    # seed 4, where a plain Gram solve meets a singular matrix: every step
    # converges and passes the residual bound
    grid = Grid.make(1, 1.0, 256)
    p = make_params(grid, make_smoothed_indicator(grid, 1.0, 0.1, 0.02), 0.4, m0=0.05)
    records = evolve(problems.random_band_state(p, 3, 1.0, seed=4), 2.0, 0.04, "jko")
    assert len(records) == 50
    assert max(r.residual for r in records) <= 1e-9
