"""Free energy, uniform state, mobility, rate constants."""

import math
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import configuration, given, settings
from hypothesis import strategies as st

from gcflow import thermo
from gcflow.errors import GridMismatch, NoConvergence, PositivityLoss
from gcflow.kernels import make_positive_type, make_smoothed_indicator
from gcflow.spectral import Grid, RealField, convolve
from gcflow.thermo import (
    ModelParams,
    convexity_quadratic_form,
    dissipation,
    free_energy_canonical,
    free_energy_grand,
    in_corridor,
    interaction_energy,
    make_params,
    omega,
    potential_phi,
    rate_constants,
    sinhc_half,
    solve_uniform_density,
    weighted_inner,
)


# database=None stores no examples, but hypothesis still caches the source constants
# it draws from while collecting; that cache goes to a directory removed at exit
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@pytest.fixture
def setup():
    grid = Grid.make(1, 1.0, 64)
    kernel = make_smoothed_indicator(grid, 1.0, 0.1, 0.02)
    params = make_params(grid, kernel, 0.4, m0=0.05)
    return grid, kernel, params


# -- uniform state ----------------------------------------------------------


def test_uniform_density_lambert_oracle():
    # mu = 0, w = 1: m0 solves log m0 + m0 = 0, i.e. m0 = W(1) (Lambert W)
    m0 = solve_uniform_density(0.0, 1.0)
    assert abs(m0 - 0.5671432904097838) < 1e-12


def test_uniform_density_no_interaction():
    # w = 0 reduces to m0 = e^mu
    for mu in (-2.0, 0.0, 1.5):
        assert abs(solve_uniform_density(mu, 0.0) - np.exp(mu)) < 1e-12


@pytest.mark.parametrize("mu, w", [(0.0, 1e3), (10.0, 1.0), (10.0, 0.203125), (50.0, 0.203125)])
def test_uniform_density_large_w_exp_mu(mu, w):
    # w e^mu large: exp(mu - w e^mu) underflows, which once failed the solve with log(0)
    x = solve_uniform_density(mu, w)
    assert x > 0 and abs(math.log(x) + w * x - mu) <= 1e-14 * max(1.0, abs(mu), w * x)


def test_uniform_density_relative_residual(setup):
    # at mu = -700 the root is e^-700 (w x ~ 1e-304); an absolute residual check
    # accepted half of it
    assert abs(solve_uniform_density(-700.0, 1.0) / math.exp(-700.0) - 1.0) <= 1e-15
    grid, kernel, _ = setup
    with pytest.raises(ValueError, match="inconsistent"):
        ModelParams(grid, kernel, -700.0, 0.5 * math.exp(-700.0), 0.4)


def test_uniform_density_errors():
    with pytest.raises(ValueError):
        solve_uniform_density(0.0, -1.0)
    with pytest.raises(NoConvergence):
        solve_uniform_density(0.0, 1.0, max_iter=0)
    with pytest.raises(OverflowError):  # w = 0: the root e^mu is beyond the float range
        solve_uniform_density(800.0, 0.0)


@pytest.mark.parametrize("amplitude, mu, m0", [
    (1e4, 800.0, 0.3943043112881), (1e8, 1015622.004, 0.05)])
def test_uniform_density_large_mu_needs_no_exp_mu(setup, amplitude, mu, m0):
    # e^mu overflows, but the root is representable: the solve in t = log x
    # needs only mu + log w, where forming e^mu first raised OverflowError;
    # the second model is the one m0 = 0.05 builds at amplitude 1e8
    grid = setup[0]
    kernel = make_smoothed_indicator(grid, amplitude, 0.1, 0.02)
    x = solve_uniform_density(mu, kernel.w)
    assert abs(math.log(x) + kernel.w * x - mu) <= 1e-14 * max(1.0, abs(mu), kernel.w * x)
    assert abs(x / m0 - 1.0) <= 1e-9
    assert make_params(grid, kernel, 0.4, mu=mu).m0 == x


@pytest.mark.parametrize("mu, w, m0", [
    # m0 as the brentq-based solver gave it, so that mu configs keep their numbers
    # (w = 0.203125 is the criterion kernel's integral)
    (-2.5, 1.0, 0.07607221340790256), (-2.0, 1.0, 0.12002823898764121),
    (-1.0, 1.0, 0.2784645427610738), (0.0, 1.0, 0.5671432904097838),
    (-2.5, 0.203125, 0.08074960063175948), (-2.0, 0.203125, 0.13176121179785386),
    (-1.0, 0.203125, 0.3431131962661587), (0.0, 0.203125, 0.8426790032663706),
])
def test_uniform_density_pinned(setup, mu, w, m0):
    _, kernel, _ = setup
    assert kernel.w == 0.203125
    assert abs(solve_uniform_density(mu, w) / m0 - 1.0) <= 1e-15


_W = st.one_of(st.just(0.0), st.floats(math.log(1e-6), math.log(1e6)).map(math.exp))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.floats(-700.0, 709.0), st.floats(-700.0, 709.0), _W)
def test_uniform_density_property(mu_a, mu_b, w):
    # the log-form residual is rounded at the scale of its largest term
    lo, hi = sorted((mu_a, mu_b))
    x_lo, x_hi = solve_uniform_density(lo, w), solve_uniform_density(hi, w)
    for mu, x in ((lo, x_lo), (hi, x_hi)):
        assert math.isfinite(x) and x > 0
        assert abs(math.log(x) + w * x - mu) <= 2e-15 * max(1.0, abs(mu), w * x)
    assert x_lo <= x_hi


def test_mu_m0_inverse_map(setup):
    grid, kernel, params = setup
    # mu = log m0 + w m0
    assert abs(params.mu - (np.log(0.05) + kernel.w * 0.05)) < 1e-12
    # round trip through mu
    params2 = make_params(grid, kernel, 0.4, mu=params.mu)
    assert abs(params2.m0 - 0.05) < 1e-12


def test_make_params_rejects_overflowed_mu(setup):
    # mu = log m0 + w m0 overflows to inf: the residual |m0 - exp(inf - inf)|
    # is NaN, which the > check passed; w m0 = inf keeps no digit of mu - W*N
    grid = setup[0]
    kernel = make_smoothed_indicator(grid, 1e10, 0.1, 0.02)
    with pytest.raises(ValueError, match="cannot keep its digits: w m0 = inf"):
        make_params(grid, kernel, 0.4, m0=1e300)


@pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan])
def test_model_params_rejects_nonfinite_mu(setup, mu):
    # the log-space scale max(1, |mu|, w m0) is inf too, and inf <= inf
    grid, kernel, _ = setup
    with pytest.raises(ValueError, match="inconsistent"):
        ModelParams(grid, kernel, mu, 0.05, 0.4)


def test_uniform_state_judged_in_log_space(setup):
    # mu = log m0 + w m0 is rounded at the scale of w m0 = 1e6: the residual
    # |m0 - exp(mu - w m0)| of 1.6e-13 failed an absolute 1e-12 m0 check
    grid = setup[0]
    kernel = make_smoothed_indicator(grid, 1e8, 0.1, 0.02)
    params = make_params(grid, kernel, 0.4, m0=0.05)
    assert params.m0 == 0.05 and kernel.w * params.m0 > 1e6
    assert abs(params.m0 - math.exp(params.mu - kernel.w * params.m0)) > 1e-12 * params.m0


def test_model_params_rejects_exponent_without_digits(setup):
    # w m0 = 1e98: mu - W*N is rounded at 2e82, so exp(mu - W*N) keeps no digit;
    # the log-space residual alone passes such a model
    grid = setup[0]
    kernel = make_smoothed_indicator(grid, 1e100, 0.1, 0.02)
    with pytest.raises(ValueError, match="cannot keep its digits"):
        make_params(grid, kernel, 0.4, m0=0.05)
    wm0 = kernel.w * 0.05
    with pytest.raises(ValueError, match="cannot keep its digits"):
        ModelParams(grid, kernel, math.log(0.05) + wm0, 0.05, 0.4)


def test_make_params_exclusivity(setup):
    grid, kernel, _ = setup
    with pytest.raises(ValueError):
        make_params(grid, kernel, 0.4, mu=0.0, m0=0.05)
    with pytest.raises(ValueError):
        make_params(grid, kernel, 0.4)


@pytest.mark.parametrize("L, M", [(2.0, 64), (1.0, 32)], ids=["other-L", "other-M"])
def test_make_params_rejects_kernel_of_other_grid(L, M):
    # the kernel's symbol belongs to its own box; a params on another box rejects it
    kernel = make_smoothed_indicator(Grid.make(1, 1.0, 64), 1.0, 0.1, 0.02)
    with pytest.raises(GridMismatch):
        make_params(Grid.make(1, L, M), kernel, 0.4, m0=0.05)


def test_kappa_range(setup):
    grid, kernel, _ = setup
    with pytest.raises(ValueError):
        make_params(grid, kernel, 0.6, m0=0.05)


# -- free energy ------------------------------------------------------------


def test_free_energy_uniform_closed_form(setup):
    grid, kernel, params = setup
    # G_mu(m0) = L^d (m0 log m0 - (1 + mu) m0 + w m0^2 / 2)
    n = RealField(grid, np.full(grid.shape, params.m0))
    expect = grid.volume * (
        params.m0 * np.log(params.m0)
        - (1 + params.mu) * params.m0
        + 0.5 * kernel.w * params.m0**2
    )
    assert abs(free_energy_grand(n, params) - expect) < 1e-12


def test_entropy_only_case(setup):
    # with W = 0 and mu = 0 the minimizer is N = 1 and G_0(1) = -L^d
    grid = setup[0]
    kernel = make_smoothed_indicator(grid, 0.0, 0.1, 0.02)
    params = make_params(grid, kernel, 0.4, mu=0.0)
    n = RealField(grid, np.ones(grid.shape))
    assert abs(free_energy_grand(n, params) + grid.volume) < 1e-12


def test_interaction_energy_quadrature_oracle(setup):
    grid, kernel, _ = setup
    rng = np.random.default_rng(21)
    n = RealField(grid, 0.05 + 0.01 * rng.standard_normal(grid.shape))
    direct = 0.5 * np.sum(convolve(kernel, n).values * n.values) * grid.dx
    assert abs(interaction_energy(n, kernel) - direct) < 1e-12


def test_grand_vs_canonical_relation(setup):
    grid, kernel, params = setup
    rng = np.random.default_rng(22)
    n = RealField(grid, 0.05 * np.exp(0.1 * rng.standard_normal(grid.shape)))
    g = free_energy_grand(n, params)
    f = free_energy_canonical(n, kernel)
    # G_mu = F - mu * mass
    assert abs(g - (f - params.mu * n.integral())) < 1e-12


def test_free_energy_rejects_nonpositive(setup):
    grid, _, params = setup
    vals = np.full(grid.shape, 0.05)
    vals[3] = -1e-3
    with pytest.raises(PositivityLoss):
        free_energy_grand(RealField(grid, vals), params)


def test_phi_is_frechet_derivative(setup):
    # G_mu(N + t R) - G_mu(N) = t <Phi_N, R> + O(t^2), checked at 2nd order
    grid, _, params = setup
    rng = np.random.default_rng(23)
    n = RealField(grid, 0.05 * np.exp(0.2 * rng.standard_normal(grid.shape)))
    r = RealField(grid, rng.standard_normal(grid.shape) * 0.01)
    phi = potential_phi(n, params)
    pairing = np.sum(phi.values * r.values) * grid.dx
    errs = []
    for t in (1e-3, 5e-4, 2.5e-4):
        np_t = RealField(grid, n.values + t * r.values)
        nm_t = RealField(grid, n.values - t * r.values)
        # centered difference kills the O(t^2) term: residue is O(t^2) in slope
        slope = (free_energy_grand(np_t, params) - free_energy_grand(nm_t, params)) / (2 * t)
        errs.append(abs(slope - pairing))
    assert errs[0] < 1e-6
    # second-order decay of the centered-difference error
    assert errs[2] < errs[0] / 8


def test_phi_zero_at_uniform(setup):
    grid, _, params = setup
    n = RealField(grid, np.full(grid.shape, params.m0))
    assert np.max(np.abs(potential_phi(n, params).values)) < 1e-13


# -- mobility ---------------------------------------------------------------


def test_sinhc_half_values():
    # phi = 2: sinh(1)/1 = 1.1752011936438014
    assert abs(sinhc_half(np.array([2.0]))[0] - 1.1752011936438014) < 1e-12
    assert abs(sinhc_half(np.array([0.0]))[0] - 1.0) < 1e-15
    # exactly 1 at +-0 and at the smallest subnormal, without a 0/0 warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = sinhc_half(np.array([0.0, -0.0, 5e-324]))
    assert values.tolist() == [1.0, 1.0, 1.0]


def test_sinhc_half_series_matches_direct():
    # near 0 the direct quotient must agree with the series 1 + x^2/6 + x^4/120
    # (x = phi/2; the next term is below 1e-23 here)
    phi = np.array([1e-5, 5e-5, 9e-5, 2e-4, 1e-3])
    x = phi / 2
    series = 1.0 + x * x / 6.0 + x**4 / 120.0
    assert np.max(np.abs(sinhc_half(phi) - series)) < 1e-14


def test_omega_lower_bound(setup):
    grid, _, params = setup
    rng = np.random.default_rng(24)
    n = RealField(grid, 0.05 * np.exp(0.5 * rng.standard_normal(grid.shape)))
    om = omega(n, params)
    assert np.all(om.values >= np.sqrt(n.values) * (1 - 1e-12))


def test_omega_uniform_is_sqrt(setup):
    grid, _, params = setup
    n = RealField(grid, np.full(grid.shape, params.m0))
    om = omega(n, params)
    assert np.max(np.abs(om.values - np.sqrt(params.m0))) < 1e-13


def test_omega_closed_form(setup):
    # Omega * Phi = e^{(w_N - mu)/2} (N - e^{mu - w_N}), checked away from Phi = 0
    grid, _, params = setup
    rng = np.random.default_rng(25)
    n = RealField(grid, 0.05 * np.exp(0.3 * rng.standard_normal(grid.shape)))
    wn = convolve(params.kernel, n)
    phi = potential_phi(n, params)
    om = omega(n, params)
    expect = (
        np.exp((wn.values - params.mu) / 2)
        * (n.values - np.exp(params.mu - wn.values))
        / phi.values
    )
    mask = np.abs(phi.values) > 1e-3
    assert np.max(np.abs(om.values[mask] - expect[mask])) < 1e-10


def test_weighted_inner_symmetric_positive(setup):
    grid, _, params = setup
    rng = np.random.default_rng(26)
    n = RealField(grid, 0.05 * np.exp(0.2 * rng.standard_normal(grid.shape)))
    f = RealField(grid, rng.standard_normal(grid.shape))
    g = RealField(grid, rng.standard_normal(grid.shape))
    assert abs(weighted_inner(n, params, f, g) - weighted_inner(n, params, g, f)) < 1e-12
    assert weighted_inner(n, params, f, f) > 0


def test_dissipation_zero_at_uniform(setup):
    grid, _, params = setup
    n = RealField(grid, np.full(grid.shape, params.m0))
    assert abs(dissipation(n, params)) < 1e-20


# -- corridor and convexity -------------------------------------------------


def test_in_corridor(setup):
    grid, _, params = setup
    assert in_corridor(RealField(grid, np.full(grid.shape, 0.05)), params)
    assert not in_corridor(RealField(grid, np.full(grid.shape, 0.05 * 0.3)), params)
    assert not in_corridor(RealField(grid, np.full(grid.shape, 0.05 / 0.3)), params)


def test_convexity_quadratic_form_fd_oracle(setup):
    # d^2/ds^2 G_mu((1-s) Na + s Nb) equals the quadratic form
    grid, _, params = setup
    rng = np.random.default_rng(27)
    base = 0.05 * np.exp(0.1 * rng.standard_normal(grid.shape))
    na = RealField(grid, base)
    nb = RealField(grid, 0.05 * np.exp(0.1 * rng.standard_normal(grid.shape)))
    s = 0.5
    t = 1e-4

    def g_at(sv):
        n = RealField(grid, (1 - sv) * na.values + sv * nb.values)
        return free_energy_grand(n, params)

    fd = (g_at(s + t) - 2 * g_at(s) + g_at(s - t)) / t**2
    form = convexity_quadratic_form(na, nb, s, params)
    assert abs(fd - form) < 1e-5 * max(1.0, abs(form))


def test_convexity_positive_in_corridor(setup):
    # inside B_kappa with small m0 the entropy term dominates: form > 0
    grid, _, params = setup
    rng = np.random.default_rng(28)
    na = RealField(grid, 0.05 * np.exp(0.3 * (rng.random(grid.shape) - 0.5)))
    nb = RealField(grid, 0.05 * np.exp(0.3 * (rng.random(grid.shape) - 0.5)))
    assert in_corridor(na, params) and in_corridor(nb, params)
    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert convexity_quadratic_form(na, nb, s, params) > 0


# -- rate constants ---------------------------------------------------------


def test_rate_constants_positive_type(setup):
    # theta_sharp = inf: sigma = kappa / (2 m0), g^2 = (kappa m0)^{-1/2}
    grid = setup[0]
    kernel = make_positive_type(grid, 1.0, 0.05)
    params = make_params(grid, kernel, 0.4, m0=0.05)
    rc = rate_constants(params)
    assert abs(rc.sigma - 0.5 * 0.4 / 0.05) < 1e-12
    assert abs(rc.gsq - (0.4 * 0.05) ** -0.5) < 1e-12
    assert abs(rc.lambda_dagger - rc.sigma / rc.gsq) < 1e-12
    assert not rc.sigma_nonpositive


def test_rate_constants_with_negative_modes(setup):
    grid, kernel, params = setup
    rc = rate_constants(params)
    ts = kernel.stats.theta_sharp
    assert abs(rc.sigma - 0.5 * (0.4 / 0.05 - 1.0 / ts)) < 1e-12


def test_rate_constants_sigma_nonpositive(setup):
    # adversarially large m0 pushes sigma below zero; flagged, not an error
    grid, kernel, _ = setup
    ts = kernel.stats.theta_sharp
    m0_big = 2.0 * 0.4 * ts  # kappa/m0 = 1/(2 theta_sharp) < 1/theta_sharp
    params = ModelParams.__new__(ModelParams)  # bypass: construct via make_params
    params = thermo.make_params(grid, kernel, 0.4, m0=m0_big)
    rc = rate_constants(params)
    assert rc.sigma_nonpositive
    assert rc.lambda_dagger == 0.0
