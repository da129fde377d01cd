"""Transport-with-reaction metric: elliptic solve and path distance."""

import math

import numpy as np
import pytest

from gcflow import metric, problems, thermo
from gcflow.dynamics import SimState
from gcflow.errors import GridMismatch, NoConvergence
from gcflow.kernels import make_smoothed_indicator
from gcflow.metric import (
    approx_distance,
    metric_axiom_checks,
    path_distance_upper,
    solve_driving_potential,
)
from gcflow.spectral import Grid, RealField, gradient, l2_norm
from gcflow.thermo import make_params, omega, rate_constants


@pytest.fixture
def params():
    grid = Grid.make(1, 1.0, 64)
    kernel = make_smoothed_indicator(grid, 1.0, 0.1, 0.02)
    return make_params(grid, kernel, 0.4, m0=0.05)


@pytest.fixture
def params32():
    grid = Grid.make(1, 1.0, 32)
    kernel = make_smoothed_indicator(grid, 1.0, 0.1, 0.04)
    return make_params(grid, kernel, 0.4, m0=0.05)


def dense_operator(n, params):
    """Dense matrix of q -> div(N grad q) - Omega q built column by column."""
    grid = params.grid
    om = omega(n, params).values
    m = grid.M
    A = np.zeros((m, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        q = RealField(grid, e)
        flux = RealField(grid, n.values * gradient(q)[0].values)
        from gcflow.spectral import divergence

        A[:, j] = divergence((flux,)).values - om * e
    return A


def test_zero_target_gives_zero(params):
    st = problems.random_band_state(params, 3, 0.3, seed=51)
    zero = RealField(params.grid, np.zeros(params.grid.shape))
    q, rep = solve_driving_potential(st, zero)
    assert np.max(np.abs(q.values)) == 0.0
    assert rep.iterations == 0


def test_solve_matches_dense_oracle(params32):
    # M = 32: invert the dense matrix directly and compare
    grid = params32.grid
    st = problems.random_band_state(params32, 3, 0.3, seed=52)
    rng = np.random.default_rng(53)
    target = RealField(grid, rng.standard_normal(grid.shape))
    q, rep = solve_driving_potential(st, target, tol=1e-13)
    A = dense_operator(st.n, params32)
    q_dense = np.linalg.solve(A, target.values)
    assert np.max(np.abs(q.values - q_dense)) < 1e-8
    assert rep.relative_residual < 1e-10


def test_uniform_density_diagonal_oracle(params):
    # at N = m0 the operator is diagonal in Fourier:
    # target eps cos(kx) gives Q = -eps cos(kx) / (m0 k^2 + sqrt(m0))
    grid = params.grid
    x = grid.points()[0]
    eps, mode = 1e-3, 4
    k = 2 * np.pi * mode
    n = RealField(grid, np.full(grid.shape, params.m0))
    target = RealField(grid, eps * np.cos(k * x))
    q, _ = solve_driving_potential(SimState.from_density(0.0, n, params), target, tol=1e-13)
    expect = -eps * np.cos(k * x) / (params.m0 * k**2 + np.sqrt(params.m0))
    assert np.max(np.abs(q.values - expect)) < 1e-12


def test_linear_scaling(params):
    # Q is linear in the target; distance scales linearly in the rate
    grid = params.grid
    st = problems.random_band_state(params, 3, 0.3, seed=54)
    rng = np.random.default_rng(55)
    target = RealField(grid, rng.standard_normal(grid.shape))
    q1, _ = solve_driving_potential(st, target, tol=1e-13)
    target3 = RealField(grid, 3.0 * target.values)
    q3, _ = solve_driving_potential(st, target3, tol=1e-13)
    scale = np.max(np.abs(q3.values))
    assert np.max(np.abs(q3.values - 3.0 * q1.values)) < 1e-10 * max(1.0, scale)


def test_solve_adjointness(params):
    # the operator is symmetric: <f, A^{-1} g> = <g, A^{-1} f>
    grid = params.grid
    st = problems.random_band_state(params, 3, 0.3, seed=56)
    rng = np.random.default_rng(57)
    f = RealField(grid, rng.standard_normal(grid.shape))
    g = RealField(grid, rng.standard_normal(grid.shape))
    qf, _ = solve_driving_potential(st, f, tol=1e-13)
    qg, _ = solve_driving_potential(st, g, tol=1e-13)
    a = np.sum(f.values * qg.values) * grid.dx
    b = np.sum(g.values * qf.values) * grid.dx
    assert abs(a - b) < 1e-9 * max(1.0, abs(a))


def test_energy_identity(params):
    # <<grad Q, grad Q>>_N = -int target * Q (integration by parts)
    grid = params.grid
    st = problems.random_band_state(params, 3, 0.3, seed=58)
    n = st.n
    rng = np.random.default_rng(59)
    target = RealField(grid, rng.standard_normal(grid.shape))
    q, _ = solve_driving_potential(st, target, tol=1e-13)
    gq = gradient(q)[0]
    om = omega(n, params)
    lhs = np.sum(n.values * gq.values**2 + om.values * q.values**2) * grid.dx
    rhs = -np.sum(target.values * q.values) * grid.dx
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


def test_self_distance_zero(params):
    # +0.0: -<target, Q> is -0.0 for Q = 0, and max(-0.0, 0.0) keeps the -0.0
    st = problems.random_band_state(params, 3, 0.3, seed=60)
    d_a, path = approx_distance(st, st)[0], path_distance_upper(st, st, 4)
    assert d_a == 0.0
    assert path.value_sq < 1e-24
    for value in (d_a, path.d_a, path.value_sq):
        assert math.copysign(1.0, value) == 1.0


def test_nonfinite_residual_fails_fast(params):
    # a density of 1e300 overflows Omega and the residual: the solve stops
    # at once, without warnings, instead of running 10 M^d NaN iterations
    st = problems.random_band_state(params, 3, 0.3, seed=60)
    n = st.n
    big = RealField(params.grid, np.full(params.grid.shape, 1e300))
    rate = RealField(params.grid, big.values - n.values)
    with pytest.raises(NoConvergence, match="not finite at iteration 0"):
        solve_driving_potential(st, rate)
    with pytest.raises(NoConvergence, match="not finite at iteration 0"):
        solve_driving_potential(SimState.from_density(0.0, big, params),
                                RealField(params.grid, n.values - big.values))


def test_path_node_zero_gives_short_time_distance(params):
    # node 0 solves A Q0 = N1 - N0, the equation of approx_distance, so d_a = sqrt(E_0)
    sa = problems.random_band_state(params, 3, 0.3, seed=71)
    sb = problems.random_band_state(params, 3, 0.3, seed=72)
    path = path_distance_upper(sa, sb, 8)
    assert len(path.reports) == 9
    assert all(rep.relative_residual <= 1e-10 for rep in path.reports)
    d_a, rep = approx_distance(sa, sb)
    assert d_a == path.d_a
    assert rep.iterations == path.reports[0].iterations


def test_distance_positive(params):
    sa = problems.single_mode_state(params, 1, 0.004)
    sb = problems.single_mode_state(params, 2, 0.004)
    assert approx_distance(sa, sb)[0] > 0
    assert path_distance_upper(sa, sb, 8).value_sq > 0


def test_forward_reverse_symmetry(params):
    sa = problems.random_band_state(params, 2, 0.2, seed=61)
    sb = problems.random_band_state(params, 2, 0.2, seed=62)
    fwd = path_distance_upper(sa, sb, 16).value_sq
    rev = path_distance_upper(sb, sa, 16).value_sq
    assert abs(fwd - rev) < 1e-8 * max(1.0, fwd)


def test_warm_started_path_matches_cold(params, monkeypatch):
    # each node's solve starts from the previous nodes' Q; from zero at
    # every node the path gives the same value with more PCG iterations
    sa = problems.random_band_state(params, 3, 0.3, seed=59)
    sb = problems.random_band_state(params, 3, 0.3, seed=60)
    solve = metric.solve_driving_potential

    def path(warm):
        iters = []

        def counting(state, rate, x0=None):
            q, rep = solve(state, rate, x0=x0 if warm else None)
            iters.append(rep.iterations)
            return q, rep

        monkeypatch.setattr(metric, "solve_driving_potential", counting)
        return path_distance_upper(sa, sb, 16).value_sq, sum(iters)

    (warm, warm_iters), (cold, cold_iters) = path(True), path(False)
    assert abs(warm - cold) <= 1e-10 * cold
    assert warm_iters < cold_iters


def test_extrapolation_exact_for_polynomials():
    # from k consecutive equispaced values of a polynomial of degree k - 1
    # (up to cubic), the warm start is its value at the next node; integer
    # samples make the arithmetic exact
    coeffs = np.array([[2.0, -1.0, 3.0, 1.0], [-5.0, 4.0, 0.0, -2.0]])  # two fields
    for k in range(1, 5):
        def p(s):
            return coeffs[:, :k] @ (float(s) ** np.arange(k))
        for i in range(k, 8):
            guess = metric._extrapolate([p(j) for j in range(i - k, i)])
            assert np.array_equal(guess, p(i))


def test_cubic_warm_start_beats_linear(params, monkeypatch):
    # a 32-segment path takes at most 0.8x the PCG iterations of warm starts
    # by linear extrapolation (120 against 188 here), for the same value
    sa = problems.random_band_state(params, 3, 0.25, seed=59)
    sb = problems.random_band_state(params, 3, 0.25, seed=60)
    solve = metric.solve_driving_potential

    def path(linear):
        iters, history = [], []

        def counting(state, rate, x0=None):
            if linear and history:
                x0 = history[-1] if len(history) == 1 else 2.0 * history[-1] - history[-2]
            q, rep = solve(state, rate, x0=x0)
            history.append(q.values)
            iters.append(rep.iterations)
            return q, rep

        monkeypatch.setattr(metric, "solve_driving_potential", counting)
        return path_distance_upper(sa, sb, 32).value_sq, sum(iters)

    (cubic, cubic_iters), (linear, linear_iters) = path(False), path(True)
    assert abs(cubic - linear) <= 1e-10 * linear
    assert cubic_iters <= 0.8 * linear_iters


def test_warm_start_keeps_solution(params):
    # a starting guess changes the iterations, not the solution
    st = problems.random_band_state(params, 3, 0.3, seed=61)
    rate = RealField(params.grid, problems.random_band_state(params, 3, 0.3, seed=62).n.values
                     - st.n.values)
    q, rep = solve_driving_potential(st, rate)
    guess = 0.9 * q.values
    q_warm, rep_warm = solve_driving_potential(st, rate, x0=guess)
    assert rep_warm.relative_residual <= 1e-10
    assert np.max(np.abs(q_warm.values - q.values)) <= 1e-8 * np.max(np.abs(q.values))
    _, rep_exact = solve_driving_potential(st, rate, x0=q.values)
    assert rep_exact.iterations == 0


def test_path_refinement_stabilizes(params):
    sa = problems.random_band_state(params, 2, 0.2, seed=63)
    sb = problems.random_band_state(params, 2, 0.2, seed=64)
    v8 = path_distance_upper(sa, sb, 8).value_sq
    v16 = path_distance_upper(sa, sb, 16).value_sq
    v32 = path_distance_upper(sa, sb, 32).value_sq
    # trapezoid error is O(segments^-2)
    assert abs(v32 - v16) < abs(v16 - v8)
    assert abs(v32 - v16) < 1e-3 * abs(v32)


def test_distance_bound_by_l2(params):
    # squared distance to the uniform state <= g^2 ||N - m0||_L2^2 (with a
    # 2% quadrature allowance), for corridor samples
    rc = rate_constants(params)
    uniform = SimState.from_density(
        0.0, RealField(params.grid, np.full(params.grid.shape, params.m0)), params)
    for seed in (65, 66, 67):
        s0 = problems.random_band_state(params, 3, 0.5, seed=seed)
        n0 = s0.n
        assert thermo.in_corridor(n0, params)
        dev = l2_norm(RealField(params.grid, n0.values - params.m0))
        bound = rc.gsq * dev**2 * 1.02
        val = path_distance_upper(s0, uniform, 16).value_sq
        assert val <= bound


def test_metric_axiom_battery(params):
    samples = [
        problems.random_band_state(params, 2, 0.2, seed=s) for s in (68, 69, 70)
    ]
    report = metric_axiom_checks(samples, segments=8)
    assert report["ok"]
    for pair in report["pairs"]:
        assert pair["forward_sq"] >= pair["positivity_floor"] * 0.99


def test_metric_axiom_battery_enforces_floor(params, monkeypatch):
    # a tiny, symmetric, positive forward value below the coercivity floor fails
    samples = [problems.random_band_state(params, 2, 0.2, seed=s) for s in (68, 69)]

    def tiny(sa, sb, segments):
        same = np.array_equal(sa.n.values, sb.n.values)
        return metric.PathDistanceResult(0.0 if same else 1e-12, segments, [], [])

    monkeypatch.setattr(metric, "path_distance_upper", tiny)
    report = metric_axiom_checks(samples, segments=8)
    assert report["pairs"][0]["positivity_floor"] > 1e-12
    assert not report["ok"]


@pytest.mark.parametrize("L, M", [(2.0, 64), (1.0, 32)], ids=["other-L", "other-M"])
def test_densities_on_other_grid_rejected(params, L, M):
    # a state is built on its model's grid, a path joins states on one grid,
    # and a driving potential solves for a target rate on the state's grid
    grid = Grid.make(1, L, M)
    other = make_params(grid, make_smoothed_indicator(grid, 1.0, 0.1, 0.04), 0.4, m0=0.05)
    s_other = problems.random_band_state(other, 3, 0.3, seed=73)
    s_here = problems.random_band_state(params, 3, 0.3, seed=74)
    with pytest.raises(GridMismatch):
        SimState.from_density(0.0, s_other.n, params)
    for sa, sb in ((s_here, s_other), (s_other, s_here)):
        with pytest.raises(GridMismatch):
            path_distance_upper(sa, sb, 4)
        with pytest.raises(GridMismatch):
            approx_distance(sa, sb)
        with pytest.raises(GridMismatch):
            solve_driving_potential(sa, sb.n)


def test_path_forms_omega_once_per_node(params, monkeypatch):
    # each path node is a state whose Omega the solve forms once
    calls = []
    form = thermo._omega
    monkeypatch.setattr(thermo, "_omega", lambda *a: calls.append(1) or form(*a))
    sa = problems.random_band_state(params, 3, 0.3, seed=75)
    sb = problems.random_band_state(params, 3, 0.3, seed=76)
    path_distance_upper(sa, sb, 8)
    assert len(calls) == 8 + 1


def test_path_runs_in_model_of_first_state(params):
    # an endpoint of another model on the same grid enters the path as its density
    other = make_params(params.grid, params.kernel, 0.4, m0=0.06)
    sa = problems.random_band_state(params, 3, 0.3, seed=77)
    sb = problems.random_band_state(other, 3, 0.3, seed=78)
    same = SimState.from_density(0.0, sb.n, params)
    assert path_distance_upper(sa, sb, 8).value_sq == path_distance_upper(sa, same, 8).value_sq


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1.0, float("inf")])
def test_bad_tol_rejected(params, tol):
    # a tol outside (0, inf) is a caller's error, raised at entry: not a
    # ZeroDivisionError mid-solve (nan, 0, -1), nor Q = 0 at once (inf)
    st = problems.random_band_state(params, 3, 0.3, seed=79)
    target = RealField(params.grid, np.random.default_rng(80).standard_normal(params.grid.shape))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        solve_driving_potential(st, target, tol=tol)


def test_pcg_iteration_transforms_d2(transform_calls):
    # d = 2: an iteration applies K_N (3 transforms) and the preconditioner
    # (2); the set-up makes 4 for the first residual and 2 for the first
    # direction, and the last iteration stops before its preconditioner
    grid = Grid.make(2, 1.0, 16)
    p = make_params(grid, make_smoothed_indicator(grid, 1.0, 0.1, 0.04), 0.4, m0=0.05)
    sa = problems.random_band_state(p, 3, 0.3, seed=81)
    sb = problems.random_band_state(p, 3, 0.3, seed=82)
    target = RealField(grid, sb.n.values - sa.n.values)
    del transform_calls[:]
    _, rep = solve_driving_potential(sa, target)
    assert rep.iterations > 2
    assert len(transform_calls) == 4 + 2 + 5 * (rep.iterations - 1) + 3
