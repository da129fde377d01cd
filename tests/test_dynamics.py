"""Direct time-stepping: right-hand sides, integrators, diagnostics."""

import dataclasses
import gc
import inspect
import json
import warnings
import weakref

import numpy as np
import pytest

from gcflow import dynamics, experiments, jko, problems, spectral, thermo
from gcflow.dynamics import (
    SimState,
    diagnostics,
    evolve,
    gap_record,
    rhs_grand,
    rhs_grand_advective,
    step_imex,
    step_rk4,
    step_rk4_canonical,
)
from gcflow.errors import PositivityLoss, StabilityViolation
from gcflow.experiments import linearized_rate
from gcflow.kernels import make_positive_type, make_smoothed_indicator
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
    """Records the input shape of each call of numpy's real transforms,
    which gcflow looks up on np.fft at each call, so the patch sees every one."""
    calls = []
    for name in ("rfft", "irfft", "rfftn", "irfftn"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _t=transform, **k:
                            calls.append(np.shape(a[0])) or _t(*a, **k))
    return calls


@pytest.fixture
def realfield_calls(monkeypatch):
    """Counts RealField validations: calls of RealField.__post_init__, which
    the dataclass __init__ looks up on the class at each construction."""
    calls = []
    check = RealField.__post_init__
    monkeypatch.setattr(RealField, "__post_init__", lambda self: calls.append(1) or check(self))
    return calls


def canonical_rate(state):
    """Half spectrum of the mass-conserving rate lap N + div(N grad w_N), as
    an RK4 stage forms it from the state's fields."""
    p = state.params
    explicit = dynamics._explicit(p, dynamics._work(p), state.n.values, None, state.grad_wn, False)
    return p.grid.lap * state.n_hat + explicit


def test_rhs_vanishes_at_uniform(params):
    st = problems.uniform_state(params)
    assert np.max(np.abs(rhs_grand(st).values)) < 1e-12
    assert np.max(np.abs(spectral._real(canonical_rate(st), params.grid))) < 1e-12


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
        jac = spectral._real(canonical_rate(sp) - canonical_rate(sm), grid) / (2 * t)
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


@pytest.mark.parametrize("h", [-1e-5, 0.0, float("nan"), float("inf")],
                         ids=["negative", "zero", "nan", "inf"])
@pytest.mark.parametrize("stepper", [step_imex, step_rk4, step_rk4_canonical, jko.jko_step],
                         ids=["imex", "rk4", "rk4_canonical", "jko"])
def test_steppers_reject_bad_step(params, stepper, h):
    # one rule for every stepper: 0 < h < inf, checked before anything is
    # computed, so no warning is raised and no state at t <= 0 is returned
    st = perturbed_state(params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="h must be positive and finite"):
            stepper(st, h)


def test_evolve_rejects_overflowing_step_count(params):
    # T / h = 1e600 is no step count: a ValueError, not an OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows"):
            evolve(perturbed_state(params), 1e300, 1e-300)


def test_evolve_rejects_huge_step_count(params):
    # T / h = 1e303 is finite but would march for ever: a ValueError at once
    with pytest.raises(ValueError, match="more than 1e\\+09 steps"):
        evolve(perturbed_state(params), 1e300, 1e-3)
    assert dynamics._step_count(1e6, 1e-3) == (10**9, True)  # the cap itself passes


@pytest.mark.parametrize("canonical", [False, True], ids=["grand", "canonical"])
@pytest.mark.parametrize("d, M", [(1, 64), (2, 16)])
def test_decay_symbol_matches_linearized_rate(d, M, canonical):
    # every half-spectrum mode of the symbol is linearized_rate at its
    # wavenumber and the formula written out; the canonical zero mode is 0
    grid = Grid.make(d, 2.0, M)
    p = make_params(grid, make_smoothed_indicator(grid, 1.0, 0.1, 0.02), 0.4, m0=0.05)
    symbol = dynamics._decay_symbol(p, p.m0, not canonical)
    assert symbol.shape == grid.k2.shape
    for idx in np.ndindex(symbol.shape):
        n = [i - M if i > M // 2 else i for i in idx[:-1]] + [idx[-1]]
        k = tuple(2 * np.pi * ni / grid.L for ni in n)
        mult = 1 + p.m0 * p.kernel.symbol[idx].real
        k2 = sum(ki * ki for ki in k)
        formula = k2 * mult if canonical else (k2 + p.m0**-0.5) * mult
        for ref in (linearized_rate(k if d == 2 else k[0], p, canonical), formula):
            assert abs(symbol[idx] - ref) <= 1e-12 * abs(ref), idx
    if canonical:
        assert symbol.flat[0] == 0.0


@pytest.mark.parametrize("T, h", [(0.01, float("nan")), (0.01, float("inf")), (0.01, 0.0),
                                  (float("nan"), 1e-3), (float("inf"), 1e-3), (0.0, 1e-3)])
def test_evolve_rejects_bad_T_or_h(params, T, h):
    # no march of no steps and no bare float conversion error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be positive and finite"):
            evolve(perturbed_state(params), T, h)


def test_canonical_mass_conservation(params):
    st = problems.single_mode_state(params, 1, 0.01)
    h = 2.0 / float(np.max(params.grid.k2))
    mass0 = st.n.integral()
    for _ in range(200):
        st = step_rk4_canonical(st, h)
    assert abs(st.n.integral() - mass0) < 1e-13


@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_canonical_mass_exact(d, M):
    # every stage rate is 0 on the zero mode, so the mass mode of the
    # state's spectrum is carried through the steps bit for bit
    p = model(d, M)
    st = problems.random_band_state(p, 3, 0.3, seed=45)
    h = 2.0 / float(np.max(p.grid.k2))
    mass_mode = st.n_hat[(0,) * d]
    for _ in range(200):
        st = step_rk4_canonical(st, h)
    assert st.n_hat[(0,) * d] == mass_mode


def test_grand_does_not_conserve_mass(params):
    # a uniform shift relaxes back to m0: mass moves through the reservoir
    st = problems.single_mode_state(params, 0, 0.01)
    mass0 = st.n.integral()
    traj = evolve(st, 0.2, 1e-3, integrator="imex", stride=10)
    assert abs(traj[-1].mass * params.grid.volume - mass0) > 1e-4


def test_free_energy_monotone_along_run(params):
    st = perturbed_state(params, seed=33, amp=0.3)
    traj = evolve(st, 0.5, 1e-3, integrator="imex", stride=1)
    g = np.array([r.g_mu for r in traj])
    assert np.all(np.diff(g) <= 1e-10 * np.maximum(1.0, np.abs(g[:-1])))


def test_gap_nonnegative_and_decaying(params):
    st = perturbed_state(params, seed=34, amp=0.3)
    traj = evolve(st, 1.0, 1e-3, integrator="imex", stride=10)
    gaps = np.array([r.gap for r in traj])
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


def test_evolve_records_every_stride(params):
    # the record is called every stride steps and at the last, and what it
    # returns is kept: full records by default, or any object it makes
    st = perturbed_state(params, seed=36)
    traj = evolve(st, 0.05, 1e-3, stride=10)
    assert [r.step for r in traj] == [10, 20, 30, 40, 50]
    calls = []
    traj = evolve(st, 0.045, 1e-3, stride=10,
                  record=lambda step, s, canonical, report: calls.append(step) or s)
    assert calls == [10, 20, 30, 40, 45]
    assert [round(s.t, 12) for s in traj] == [0.01, 0.02, 0.03, 0.04, 0.045]


def test_evolve_drops_none_records(params):
    # a record that returns None keeps nothing for that step
    st = perturbed_state(params, seed=36)
    traj = evolve(st, 0.01, 1e-3, stride=2,
                  record=lambda step, s, canonical, report: step if step % 4 == 0 else None)
    assert traj == [4, 8]
    assert evolve(st, 0.01, 1e-3, record=lambda *args: None) == []


def test_diagnostics_record_json(params):
    st = perturbed_state(params, seed=37)
    rec = diagnostics(3, st)
    payload = json.loads(rec.to_json())
    for key in ("step", "t", "mass", "g_mu", "gap", "d0", "d1", "d2",
                "n_min", "n_max", "dissipation", "inner_iters", "residual"):
        assert key in payload
    assert payload["step"] == 3
    assert payload["inner_iters"] is None


def test_diagnostics_reads_jko_report(params):
    # a JKO step's report gives its inner iterations and residual to the
    # record; with no report (a direct step) both are None
    st, report = jko.jko_step(perturbed_state(params, seed=37), 1e-3)
    rec = diagnostics(1, st, False, report)
    assert (rec.inner_iters, rec.residual) == (report.inner_iters, report.residual)
    assert rec.inner_iters >= 1 and rec.residual <= 1e-9
    assert vars(rec) == {**vars(diagnostics(1, st)), "inner_iters": report.inner_iters,
                         "residual": report.residual}
    traj = evolve(perturbed_state(params, seed=37), 2e-3, 1e-3, "jko")
    assert all(r.inner_iters is not None and r.residual is not None for r in traj)


def test_evolve_reproducible(params):
    st = perturbed_state(params, seed=38)
    a = evolve(st, 0.05, 1e-3, stride=5)
    b = evolve(st, 0.05, 1e-3, stride=5)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]


def test_steppers_are_public_functions():
    # the benchmark tracer replaces each stepper by the wrapper of the module function
    for name, fn in dynamics._STEPPERS.items():
        assert inspect.isfunction(fn) and fn.__module__ == "gcflow.dynamics", name
        assert not fn.__name__.startswith("_") and getattr(dynamics, fn.__name__) is fn, name


@pytest.mark.parametrize("T, h, steps", [(1.0, 0.3, 4), (0.01, 0.5, 1), (1.0, 1e-3, 1000)])
def test_evolve_ends_at_T(params, T, h, steps):
    # a non-integer T/h shortens the last step; an integer one keeps every
    # step at h, and t is t0 + k h rather than a running sum
    traj = evolve(problems.uniform_state(params), T, h, stride=steps)
    assert traj[-1].step == steps
    assert traj[-1].t == T


def test_evolve_T_far_below_h(params):
    # T / h underflows to 0: one step of T, not a march of no steps
    traj = evolve(problems.uniform_state(params), 5e-324, 1e300)
    assert [(r.step, r.t) for r in traj] == [(1, 5e-324)]


@pytest.mark.parametrize("error", [TypeError, PositivityLoss],
                         ids=["TypeError", "PositivityLoss"])
def test_evolve_propagates_programming_errors(params, monkeypatch, error):
    # a step's exception leaves evolve as raised; the record has made every
    # record before the failing step (steps 2 and 4 of a stride-2 run)
    def broken(state, h):
        if state.t >= 5e-3 - 1e-12:
            raise error("raised by step 6")
        return step_imex(state, h)

    monkeypatch.setitem(dynamics._STEPPERS, "imex", broken)
    seen = []

    def record(step, state, canonical, report):
        seen.append(rec := diagnostics(step, state, canonical, report))
        return rec
    with pytest.raises(error, match="step 6"):
        evolve(problems.uniform_state(params), 0.01, 1e-3, stride=2, record=record)
    assert [rec.step for rec in seen] == [2, 4]


def test_nan_density_is_positivity_loss(params, monkeypatch):
    nan_hat = np.full(params.grid.shape[:-1] + (params.grid.M // 2 + 1,), np.nan, complex)
    with pytest.raises(PositivityLoss):
        SimState.from_spectrum(0.0, nan_hat, params)
    # an rk4 step whose stages stay positive but whose result is NaN
    st = problems.uniform_state(params)
    calls = []

    def explicit(p, n, *args):
        calls.append(1)
        return np.full(nan_hat.shape, np.nan if len(calls) == 4 else 0.0, complex)

    monkeypatch.setattr(dynamics, "_explicit", explicit)
    with pytest.raises(PositivityLoss):
        step_rk4(st, 1e-5)
    assert len(calls) == 4


def test_overflowing_spectrum_is_positivity_loss(params):
    # every mode finite and N positive, its inverse transform not: the state's
    # one check reports it (the march silences the transform's overflow warning)
    n_hat = np.zeros(params.grid.M // 2 + 1, complex)
    n_hat[:2] = 1.6e308, 4e307
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(PositivityLoss, match=r"^density overflowed at t = 0\.5$"):
        SimState.from_spectrum(0.5, n_hat, params)


def test_imex_denominator_cache_is_exact_and_bounded(params):
    # evolve's IMEX steps, each dividing by the model's cached 1 - h lap, are
    # bit for bit steps by hand with the uncached formula, the shortened last
    # step included, at two step sizes on one model; the cache keeps the last
    # two h
    st = perturbed_state(params)
    for h, T in ((3e-3, 0.01), (7e-4, 0.005)):
        n_steps, exact = dynamics._step_count(T, h)
        assert not exact
        by_hand, s = [], st
        for k in range(1, n_steps + 1):
            hk = h if k < n_steps else T - (n_steps - 1) * h
            ex = dynamics._explicit(params, dynamics._work(params), s.n.values, s.wn, s.grad_wn,
                                    True)
            s = SimState.from_spectrum(s.t + hk, (s.n_hat + hk * ex) / (1.0 - hk * params.grid.lap),
                                       params)
            by_hand.append(s)
        marched = evolve(st, T, h, "imex", record=lambda step, state, *_: state)
        assert len(marched) == n_steps
        for a, b in zip(marched, by_hand):
            assert np.array_equal(a.n_hat, b.n_hat) and np.array_equal(a.n.values, b.n.values)
        assert marched[-1].t == T
    hs = np.geomspace(1e-6, 1e-1, 100).tolist()
    for h in hs:
        step_imex(st, h)
    assert list(dynamics._work(params).denominators) == hs[-2:]


def test_rk4_stage_positivity_loss_names_stage_time(params, monkeypatch):
    # a rate of -4 N_hat_0 / h on the zero mode: the stage at t + h/2 holds
    # N_hat_0 - 2 N_hat_0, so N = -m0, and its inverse raises, naming t + h/2
    st = dataclasses.replace(problems.uniform_state(params), t=0.25)
    h = 1e-5
    explicit = dynamics._explicit

    def draining(p, work, n, wn, grad_wn, grand):
        out = explicit(p, work, n, wn, grad_wn, grand)
        out[0] -= 4.0 * st.n_hat[0] / h
        return out

    monkeypatch.setattr(dynamics, "_explicit", draining)
    with pytest.raises(PositivityLoss, match=r"-5\.000e-02 at t = 0\.250005$"):
        step_rk4(st, h)


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
    psi = RealField(p.grid, st.psi)
    reference = {
        "mass": st.n.integral(),
        "g_mu": g_mu,
        "d0": spectral.dnorm(psi, 0),
        "d1": spectral.dnorm(psi, 1),
        "d2": spectral.dnorm(psi, 2),
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


@pytest.mark.parametrize("integrator", ["imex", "rk4_canonical", "jko"])
@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_gap_record_matches_diagnostics(d, M, integrator):
    # both records take the gap from one helper: equal bit for bit, with the
    # canonical reference density for the mass-conserving flow
    p = model(d, M)
    h = {"imex": 1e-3, "rk4_canonical": 1e-5, "jko": 1e-3}[integrator]
    canonical = integrator == "rk4_canonical"
    traj = evolve(problems.random_band_state(p, 3, 0.3, seed=11), 3 * h, h, integrator,
                  record=lambda *args: (gap_record(*args), args))
    assert len(traj) == 3
    for step, (rec, args) in enumerate(traj, 1):
        s = args[1]
        full = diagnostics(*args)
        assert args[:3] == (step, s, canonical)
        assert vars(rec) == {"step": step, "t": s.t, "gap": full.gap}


def test_record_rejects_underflowed_density(params):
    # no state holds N = 0: from_psi rejects an underflowing psi, naming t
    psi = np.full(params.grid.shape, np.log(params.m0))
    psi[5] = -1000.0  # exp underflows to 0
    with pytest.raises(PositivityLoss, match="at t = 0.25"):
        SimState.from_psi(0.25, psi, params)


@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_transforms_per_step_and_record(d, M, fft_calls):
    # a step starts from the caches of a state made by a step: N_hat, and
    # grad W*N, which the IMEX step's one inverse gave with N and W*N; IMEX
    # sends flux and reaction forward in one call; an RK4 stage gets N (and
    # W*N when grand) and grad W*N from one inverse and its flux (and
    # reaction) spectrum from one forward (stage 1 reads the fields from the
    # state), and the step ends in one inverse; a record transforms Psi
    # forward and grad Phi back in one call each
    st = step_imex(problems.random_band_state(model(d, M), 3, 0.3, seed=40), 1e-5)
    for name, count in {"imex": 2, "rk4": 8, "rk4_canonical": 8}.items():
        del fft_calls[:]
        dynamics._STEPPERS[name](st, 1e-5)
        assert len(fft_calls) == count, name
    for canonical in (False, True):
        del fft_calls[:]
        diagnostics(1, st, canonical=canonical)
        assert len(fft_calls) == 2, canonical
        # a gap record reads the free energy from the state
        del fft_calls[:]
        gap_record(1, st, canonical)
        assert fft_calls == [], canonical
    # an rk4 state holds grad W*N too, so an rk4 march pays 8 a step
    del fft_calls[:]
    step_rk4(step_rk4(st, 1e-5), 1e-5)
    assert len(fft_calls) == 8 + 8
    # evolve re-times each state without dropping its caches: 10 IMEX steps
    # and one record
    del fft_calls[:]
    evolve(st, 1e-4, 1e-5, stride=10)
    assert len(fft_calls) == 10 * 2 + 2
    # a sweep point's march of n IMEX steps, stride 5, records the gap alone:
    # 2 n calls, and its fit and rate constants make none
    del fft_calls[:]
    experiments.volume_sweep([st], 100 * 1e-5, 1e-5)
    assert len(fft_calls) == 100 * 2
    # a from_density or from_psi build sends N forward and gets W*N and
    # grad W*N back in one call, so an RK4 step from it reads them: 8 calls
    for build in (lambda: SimState.from_density(0.0, st.n, st.params),
                  lambda: SimState.from_psi(0.0, st.psi, st.params)):
        del fft_calls[:]
        built = build()
        assert len(fft_calls) == 2
        for name in ("rk4", "rk4_canonical"):
            del fft_calls[:]
            dynamics._STEPPERS[name](built, 1e-5)
            assert len(fft_calls) == 8, name
    # a distance-path node mixes N_hat, W*N and grad W*N of its endpoints
    other = SimState.from_density(0.0, RealField(st.n.grid, st.n.values[::-1].copy()), st.params)
    del fft_calls[:]
    dynamics._mix(st, other, 0.25)
    assert fft_calls == []
    # the JKO step's frozen terms read W_hat N_hat and grad W*N from the
    # state: Psi0 forward, its d gradient rows back, the local part of A
    # forward; a JKO step is 10 calls plus 4 per inner iteration
    grid, half = st.n.grid.shape, st.n_hat.shape
    del fft_calls[:]
    jko._step(st, 1e-3)
    assert fft_calls == [grid, (d,) + half, grid]
    del fft_calls[:]
    report = jko.jko_step(st, 1e-3)[1]
    assert len(fft_calls) == 10 + 4 * report.inner_iters


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


@pytest.mark.parametrize("integrator", ["imex", "rk4", "rk4_canonical", "jko"])
@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_cached_grad_wn_matches_density(d, M, integrator):
    # grad W*N that from_spectrum gets from its batched inverse, or that
    # from_psi builds, against one formed from a fresh spectrum
    st = problems.random_band_state(model(d, M), 3, 0.3, seed=41)
    for _ in range(3):
        if integrator == "jko":
            st = jko.jko_step(st, 1e-3)[0]
        else:
            st = dynamics._STEPPERS[integrator](st, 1e-5)
    fresh = SimState.from_density(st.t, st.n, st.params).grad_wn
    assert st.grad_wn.shape == fresh.shape == (d,) + st.n.grid.shape
    assert np.max(np.abs(st.grad_wn - fresh)) <= 1e-12 * np.max(np.abs(fresh))


@pytest.mark.parametrize("s", [1 / 32, 0.5, 31 / 32])
@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_mixed_node_matches_density(d, M, s):
    # a path node mixed from its endpoint states holds the fields that
    # from_density makes for the same mixture
    p = model(d, M)
    s0 = problems.random_band_state(p, 3, 0.3, seed=42)
    s1 = problems.random_band_state(p, 3, 0.3, seed=43)
    node = dynamics._mix(s0, s1, s)
    ref = SimState.from_density(0.0, RealField(p.grid, (1 - s) * s0.n.values
                                               + s * s1.n.values), p)
    assert node.t == ref.t and node.params is ref.params
    for name in ("n_hat", "wn", "grad_wn", "psi", "phi", "omega"):
        a, b = getattr(node, name), getattr(ref, name)
        assert a.shape == b.shape, name
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name
    assert np.array_equal(node.n.values, ref.n.values)


@pytest.mark.parametrize("state", ["band", "single_mode"])
@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_record_dissipation_matches_reference(d, M, state):
    # the record's sinh form of the dissipation, from Phi_hat = Psi_hat +
    # W_hat N_hat, against thermo.dissipation (Omega_N through sinhc), on the
    # criterion matrix's model; also on a mode of size 1e-8, where Phi_N is
    # about 2e-7 and Psi_hat's roundoff, about 1e-16 |Psi_hat| in each mode,
    # is what separates the two routes (5.9e-13 in d = 1)
    grid = Grid.make(d, 1.0, M)
    p = make_params(grid, make_smoothed_indicator(grid, 1.0, 0.1, 0.02), 0.4, m0=0.05)
    st = (problems.random_band_state(p, 3, 0.3, seed=45) if state == "band"
          else problems.single_mode_state(p, 1, 1e-8))
    reference = thermo.dissipation(st.n, p)
    assert reference > 0.0
    assert abs(diagnostics(0, st).dissipation - reference) <= 1e-12 * reference


@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_one_check_per_built_state(d, M, realfield_calls, monkeypatch):
    # a march step validates no RealField: each state it builds gets one
    # positivity-and-finiteness check (`_positive`), and an RK4 step one more
    # for each of its three stage densities; a record checks nothing
    checks = []
    positive = dynamics._positive
    monkeypatch.setattr(dynamics, "_positive", lambda *a: checks.append(1) or positive(*a))
    st = problems.random_band_state(model(d, M), 3, 0.3, seed=42)
    for name, count in (("imex", 1), ("rk4", 4), ("rk4_canonical", 4)):
        del realfield_calls[:], checks[:]
        assert isinstance(dynamics._STEPPERS[name](st, 1e-5).n, RealField)
        assert (len(realfield_calls), len(checks)) == (0, count), name
    del realfield_calls[:], checks[:]
    jko.jko_step(st, 1e-3)
    assert (len(realfield_calls), len(checks)) == (0, 1)
    for canonical in (False, True):
        del realfield_calls[:], checks[:]
        diagnostics(1, st, canonical=canonical)
        assert not realfield_calls and not checks, canonical
    del realfield_calls[:], checks[:]
    traj = evolve(st, 1e-4, 1e-5, stride=1)
    assert len(traj) == 10
    assert (len(realfield_calls), len(checks)) == (0, 10)


@pytest.mark.parametrize("built_from", ["density", "psi", "spectrum"])
@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_state_caches_follow_density(d, M, built_from):
    p = model(d, M)
    base = problems.random_band_state(p, 3, 0.3, seed=43)
    if built_from == "density":
        st = SimState.from_density(0.0, base.n, p)
    elif built_from == "psi":
        st = SimState.from_psi(0.0, base.psi, p)
    else:
        st = SimState.from_spectrum(0.0, base.n_hat, p)
    assert isinstance(st.n, RealField)
    assert type(st.psi) is np.ndarray and type(st.wn) is np.ndarray
    if built_from == "psi":
        assert np.array_equal(st.psi, base.psi) and np.array_equal(st.n.values, np.exp(st.psi))
    else:
        assert np.array_equal(st.psi, np.log(st.n.values))
    wn = spectral.convolve(p.kernel, st.n).values
    assert np.max(np.abs(st.wn - wn)) <= 1e-14 * np.max(np.abs(wn))
    fresh = spectral._hat(st.n.values, p.grid)
    assert np.max(np.abs(st.n_hat - fresh)) <= 1e-12 * np.max(np.abs(fresh))
    # grad W*N comes from the state's own N_hat times the stacked multiplier's
    # i k W_hat rows, bit for bit as a lone inverse
    assert np.array_equal(st.grad_wn,
                          spectral._real(dynamics._work(p).multiplier[1:1 + d] * st.n_hat, p.grid))
    # re-timing keeps every field but t as the same object
    moved = dataclasses.replace(st, t=0.25)
    assert moved.t == 0.25
    for f in dataclasses.fields(st):
        assert f.name == "t" or getattr(moved, f.name) is getattr(st, f.name), f.name


@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_builders_and_stage_share_one_multiplier(d, M):
    # every state builder and an RK4 stage take W*N and grad W*N from the
    # same rows of the one stacked multiplier: bit for bit from one N_hat
    p = model(d, M)
    base = problems.random_band_state(p, 3, 0.3, seed=45)
    n_hat = spectral._hat(base.n.values, p.grid)
    built = [SimState.from_density(0.0, base.n, p), SimState.from_psi(0.0, base.psi, p),
             SimState.from_spectrum(0.0, n_hat, p)]
    n, wn, grad_wn = dynamics._invert(p, dynamics._work(p), n_hat, 0.0, True)
    for st in built:
        assert np.array_equal(st.n_hat, n_hat)
        assert np.array_equal(st.wn, wn) and np.array_equal(st.grad_wn, grad_wn)
    # the mass-conserving stage reads the same N and grad W*N rows
    n_c, wn_c, grad_c = dynamics._invert(p, dynamics._work(p), n_hat, 0.0, False)
    assert wn_c is None and np.array_equal(n_c, n) and np.array_equal(grad_c, grad_wn)


def test_stepped_params_freed_by_reference_counting():
    # the work arrays cached on a ModelParams form no reference cycle:
    # with the cycle collector off, the model dies with its last reference
    p = model(1, 32)
    st = problems.random_band_state(p, 3, 0.3, seed=46)
    for name in ("imex", "rk4", "rk4_canonical"):
        st = dynamics._STEPPERS[name](st, 1e-5)
    assert "_work" in vars(p)
    ref = weakref.ref(p)
    gc.disable()
    try:
        del p, st
        assert ref() is None
    finally:
        gc.enable()


def _state_arrays(st: SimState) -> list:
    return [st.psi, st.n.values, st.wn, st.grad_wn, st.n_hat]


@pytest.mark.parametrize("name", ["imex", "rk4", "rk4_canonical"])
@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_stage_buffers_never_escape(d, M, name):
    # a step writes its intermediates into the model's stage buffers, but
    # no array of a state it returns (nor of a record, nor Phi_N or Omega_N
    # formed from the state) is a view of them, and a state keeps its bits
    # while later steps overwrite the buffers; the grand flow (imex, rk4)
    # and the mass-conserving one (rk4_canonical)
    p = model(d, M)
    kept = []

    def record(step, st, canonical, report):
        rec = diagnostics(step, st, canonical)
        kept.append((st, [a.copy() for a in _state_arrays(st)], rec))
        return rec

    evolve(problems.random_band_state(p, 3, 0.3, seed=47), 4e-5, 1e-5, name, record=record)
    assert len(kept) == 4 and "_work" in vars(p)
    work = dynamics._work(p)
    buffers = list(work[:-1]) + list(work.denominators.values())
    for st, bits, rec in kept:
        arrays = _state_arrays(st) + [st.phi, st.omega] + [
            v for v in vars(rec).values() if isinstance(v, np.ndarray)]
        for a in arrays:
            assert not any(np.shares_memory(a, b) for b in buffers)
        for a, b in zip(_state_arrays(st), bits):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_stage_buffers_live_with_their_model(d, M):
    # the work arrays belong to the model and form no reference cycle: after
    # every stepper has used them, with the cycle collector off, the model,
    # its multiplier, each buffer and each IMEX denominator die with the
    # model's last reference, so no cache elsewhere (keyed by the model or
    # its id) holds them
    p = model(d, M)
    st = problems.random_band_state(p, 3, 0.3, seed=48)
    for name in ("imex", "rk4", "rk4_canonical"):
        st = dynamics._STEPPERS[name](st, 1e-5)
    work = vars(p)["_work"]
    arrays = list(work[:-1]) + list(work.denominators.values())
    assert len(arrays) == 7
    refs = [weakref.ref(p)] + [weakref.ref(a) for a in arrays]
    gc.disable()
    try:
        del p, st, work, arrays
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def _fresh_fields(p, nh, grand):
    """(N, W*N, grad W*N) of a stage, each product and transform in a fresh array."""
    mult = dynamics._work(p).multiplier
    fields = spectral._real((mult if grand else mult[:1 + p.grid.d]) * nh, p.grid)
    return (fields[0], fields[-1], fields[1:-1]) if grand else (fields[0], None, fields[1:])


def _fresh_explicit(p, n, wn, grad_wn, grand):
    """The explicit terms' half spectrum, every intermediate a fresh array."""
    g = p.grid
    fields = np.empty((g.d + 1 if grand else g.d,) + g.shape)
    np.multiply(n, grad_wn, out=fields[:g.d])
    if grand:
        half = 0.5 * (p.mu - wn)
        np.subtract(np.exp(half), n * np.exp(-half), out=fields[g.d])
    hats = spectral._hat(fields, g)
    hats[:g.d] *= g.ik
    return hats[0] + hats[1] if g.d == 1 and grand else hats.sum(axis=0)


def _fresh_imex(st, h):
    p = st.params
    explicit = _fresh_explicit(p, st.n.values, st.wn, st.grad_wn, True)
    return (st.n_hat + h * explicit) / (1.0 - h * p.grid.lap)


def _fresh_rk4(st, h, grand):
    p = st.params
    nh0 = st.n_hat

    def rate(nh, n, wn, grad_wn):
        return p.grid.lap * nh + _fresh_explicit(p, n, wn, grad_wn, grand)

    def stage(nh):
        return rate(nh, *_fresh_fields(p, nh, grand))

    k1 = rate(nh0, st.n.values, st.wn, st.grad_wn)
    k2 = stage(nh0 + 0.5 * h * k1)
    k3 = stage(nh0 + 0.5 * h * k2)
    k4 = stage(nh0 + h * k3)
    return nh0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_buffered_steps_match_fresh_allocation_bit_for_bit(d, M):
    # each stepper, writing into the model's stage buffers, gives the N_hat
    # of the same formulas with every intermediate freshly allocated, bit for
    # bit, over successive steps that reuse the buffers
    p = model(d, M)
    h = 0.5 * 2.7 / p.grid.k2_max
    fresh = {"imex": _fresh_imex, "rk4": lambda st, h: _fresh_rk4(st, h, True),
             "rk4_canonical": lambda st, h: _fresh_rk4(st, h, False)}
    for name, reference in fresh.items():
        st = step_imex(problems.random_band_state(p, 3, 0.3, seed=49), h)
        for _ in range(3):
            expected = reference(st, h)
            st = dynamics._STEPPERS[name](st, h)
            assert np.array_equal(st.n_hat, expected), name


@pytest.mark.parametrize("family", ["smoothed_indicator", "positive_type"])
@pytest.mark.parametrize("d, M", [(1, 64), (2, 32)])
def test_state_phi_omega_match_reference(d, M, family):
    # Phi_N and Omega_N of a state against the functionals of thermo
    grid = Grid.make(d, 1.0, M)
    kernel = (make_smoothed_indicator(grid, 1.0, 0.1, 0.04) if family == "smoothed_indicator"
              else make_positive_type(grid, 1.0, 0.05))
    p = make_params(grid, kernel, 0.4, m0=0.05)
    st = problems.random_band_state(p, 3, 0.3, seed=44)
    for cached, reference in ((st.phi, thermo.potential_phi(st.n, p)),
                              (st.omega, thermo.omega(st.n, p))):
        assert type(cached) is np.ndarray
        ref = reference.values
        assert np.max(np.abs(cached - ref)) <= 1e-14 * np.max(np.abs(ref))
