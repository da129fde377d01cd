"""User-runnable self-test battery (the `check` CLI subcommand).

Each check is a quick, deterministic property test on a small grid.  They
mirror the invariants covered by the full test suite but run in seconds.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from . import dynamics, experiments, fieldio, jko, kernels, metric, problems, thermo
from .dynamics import DiagnosticsRecord
from .spectral import Grid, RealField, _hat, _real, convolve, gradient, l2_norm


def _setup():
    grid = Grid.make(1, 1.0, 64)
    kern = kernels.make_smoothed_indicator(grid, 1.0, 0.1, 0.02)
    params = thermo.make_params(grid, kern, 0.4, m0=0.05)
    return grid, kern, params


def run_checks() -> list[tuple[str, bool, str]]:
    results: list[tuple[str, bool, str]] = []

    def check(name: str, fn) -> None:
        try:
            detail = fn()
            results.append((name, True, detail or ""))
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    grid, kern, params = _setup()
    rng = np.random.default_rng(12345)

    def spectral_roundtrip():
        f = RealField(grid, rng.standard_normal(grid.shape))
        err = l2_norm(RealField(grid, _real(_hat(f.values, grid), grid) - f.values))
        assert err < 1e-12, err
        return f"roundtrip error {err:.2e}"

    def parseval():
        f = RealField(grid, rng.standard_normal(grid.shape))
        power = np.abs(_hat(f.values, grid)).ravel() ** 2
        lhs = grid.cell_volume * float(grid.dnorm_weights[0] @ power)
        rhs = RealField(grid, f.values**2).integral()
        assert abs(lhs - rhs) < 1e-10 * max(1.0, rhs)
        return f"|sum - integral| {abs(lhs - rhs):.2e}"

    def cosine_gradient():
        x = grid.points()[0]
        k = 2.0 * np.pi * 3 / grid.L
        f = RealField(grid, np.cos(k * x))
        g = gradient(f)[0]
        err = float(np.max(np.abs(g.values + k * np.sin(k * x))))
        assert err < 1e-10, err
        return f"max error {err:.2e}"

    def convolution_theorem():
        f = RealField(grid, 0.05 + 0.01 * np.cos(2 * np.pi * grid.points()[0]))
        conv = convolve(kern, f)
        direct = np.array(
            [
                np.sum(np.roll(kern.values.values[::-1], i + 1) * f.values) * grid.dx
                for i in range(grid.M)
            ]
        )
        err = float(np.max(np.abs(conv.values - direct)))
        assert err < 1e-10, err
        return f"vs direct quadrature {err:.2e}"

    def kernel_properties():
        assert kern.stats.pointwise_nonneg
        assert abs(kern.w - kern.stats.v[0]) < 1e-12
        assert np.isfinite(kern.stats.theta_sharp)
        return f"w = {kern.w:.6f}, theta_sharp = {kern.stats.theta_sharp:.4f}"

    def uniform_fixed_point():
        resid = abs(np.log(params.m0) + params.kernel.w * params.m0 - params.mu)
        assert resid < 1e-12, resid
        return f"residual {resid:.2e}"

    def stationary_rhs():
        st = problems.uniform_state(params)
        r = dynamics.rhs_grand(st)
        err = float(np.max(np.abs(r.values)))
        assert err < 1e-11, err
        return f"max |rhs| {err:.2e}"

    def rhs_assemblies_agree():
        st = problems.single_mode_state(params, 2, 0.01)
        a = dynamics.rhs_grand(st)
        b = dynamics.rhs_grand_advective(st)
        err = float(np.max(np.abs(a.values - b.values)))
        assert err < 1e-9, err
        return f"max diff {err:.2e}"

    def mass_conserving_step():
        st = problems.single_mode_state(params, 1, 0.005)
        h = 0.5 * 2.7 / params.grid.k2_max
        st1 = dynamics.step_rk4_canonical(st, h)
        mode = (0,) * params.grid.d  # the zero mode of N_hat is the mass
        assert st1.n_hat[mode] == st.n_hat[mode], st1.n_hat[mode] - st.n_hat[mode]
        drift = abs(st1.n.integral() - st.n.integral())
        assert drift < 1e-13, drift
        return f"mass mode unchanged, mass drift {drift:.2e}"

    def jko_uniform():
        st = problems.uniform_state(params)
        st1, rep = jko.jko_step(st, 1e-3)
        err = float(np.max(np.abs(st1.n.values - params.m0)))
        assert err < 1e-12, err
        return f"drift {err:.2e}, {rep.inner_iters} inner iters"

    def jko_residual():
        st = problems.single_mode_state(params, 1, 0.002)
        _, rep = jko.jko_step(st, 1e-3)
        assert rep.residual < 1e-9, rep.residual
        return f"implicit residual {rep.residual:.2e}"

    def metric_axioms():
        sa = problems.single_mode_state(params, 1, 0.003)
        sb = problems.single_mode_state(params, 2, 0.003)
        rep = metric.metric_axiom_checks([sa, sb], segments=8)
        assert rep["ok"], rep
        defect = rep["pairs"][0]["symmetry_defect"]
        return f"symmetry defect {defect:.2e}"

    def rate_fit():
        recs = [
            DiagnosticsRecord(i, 0.01 * i, 1.0, 0.0, np.exp(-3.0 * 0.01 * i), 0, 0, 0, 1, 1, 0.0)
            for i in range(100)
        ]
        fit = experiments.fit_decay_rate(recs)
        assert abs(fit.lambda_hat - 3.0) < 1e-10
        return f"lambda_hat {fit.lambda_hat:.6f}"

    def serialization():
        f = RealField(grid, rng.standard_normal(grid.shape))
        with tempfile.TemporaryDirectory() as td:
            pc, pb = os.path.join(td, "f.csv"), os.path.join(td, "f.bin")
            fieldio.save_csv(pc, f, "test")
            fieldio.save_binary(pb, f)
            g1, _ = fieldio.load_csv(pc)
            g2 = fieldio.load_binary(pb)
        assert np.array_equal(g1.values, f.values)
        assert np.array_equal(g2.values, f.values)
        return "csv and binary round trips exact"

    check("spectral_roundtrip", spectral_roundtrip)
    check("parseval", parseval)
    check("cosine_gradient", cosine_gradient)
    check("convolution_theorem", convolution_theorem)
    check("kernel_properties", kernel_properties)
    check("uniform_fixed_point", uniform_fixed_point)
    check("stationary_rhs", stationary_rhs)
    check("rhs_assemblies_agree", rhs_assemblies_agree)
    check("mass_conserving_step", mass_conserving_step)
    check("jko_uniform_step", jko_uniform)
    check("jko_implicit_residual", jko_residual)
    check("metric_axioms", metric_axioms)
    check("rate_fit_synthetic", rate_fit)
    check("field_serialization", serialization)
    return results
