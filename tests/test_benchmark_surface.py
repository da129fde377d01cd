"""The parts of gcflow that the benchmark in `perfbench/` calls directly.

The benchmark's own tests are not part of this suite, so these checks keep
its entry points in place: the density of a state is a RealField with
`integral()`, it round-trips through both field formats, RealField
validation is a patchable method, `evolve` reaches its default record, the
implicit step its residual and `distance` its elliptic solves through the
module attributes the tracer times, and each solve returns the report whose
`.iterations` the tracer reads.
"""

import numpy as np
import pytest

from gcflow import cli, dynamics, fieldio, jko, metric, problems
from gcflow.kernels import make_smoothed_indicator
from gcflow.spectral import Grid, RealField
from gcflow.thermo import make_params


@pytest.fixture
def state():
    grid = Grid.make(1, 1.0, 64)
    params = make_params(grid, make_smoothed_indicator(grid, 1.0, 0.1, 0.02), 0.4, m0=0.05)
    return problems.random_band_state(params, 3, 0.3, seed=7)


def test_state_density_is_a_field(state):
    assert isinstance(state.n, RealField)
    assert state.n.integral() == float(np.sum(state.n.values)) * state.n.grid.cell_volume


def test_state_density_round_trips(state, tmp_path):
    fieldio.save_binary(str(tmp_path / "a.gcf"), state.n)
    assert np.array_equal(fieldio.load_binary(str(tmp_path / "a.gcf")).values, state.n.values)
    fieldio.save_csv(str(tmp_path / "b.csv"), state.n, name="b")
    field, name = fieldio.load_csv(str(tmp_path / "b.csv"))
    assert name == "b" and np.array_equal(field.values, state.n.values)


def test_realfield_validation_is_a_method():
    assert "__post_init__" in vars(RealField)


def test_evolve_calls_diagnostics_through_module(state, monkeypatch):
    # the default record is looked up when evolve runs, not bound when it is defined
    calls = []
    diagnostics = dynamics.diagnostics
    monkeypatch.setattr(dynamics, "diagnostics",
                        lambda *a: calls.append(1) or diagnostics(*a))
    traj = dynamics.evolve(state, 4e-3, 1e-3, stride=2)
    assert len(calls) == len(traj) == 2


def test_jko_step_calls_residual_through_module(state, monkeypatch):
    calls = []
    residual = jko.residual_implicit
    monkeypatch.setattr(jko, "residual_implicit",
                        lambda *a: calls.append(1) or residual(*a))
    jko.jko_step(state, 1e-3)
    assert len(calls) == 1


def test_distance_calls_solver_through_module(state, tmp_path, monkeypatch):
    # one solve per path node, each returning (Q, report with .iterations)
    config = tmp_path / "c.ini"
    config.write_text("[grid]\nd = 1\nL = 1.0\nM = 64\n\n[model]\nkappa = 0.4\nm0 = 0.05\n\n"
                      "[kernel]\nfamily = smoothed_indicator\namplitude = 1.0\nradius = 0.1\n"
                      "mollifier_width = 0.02\n")
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    fieldio.save_binary(a, state.n)
    fieldio.save_binary(b, RealField(state.n.grid, state.n.values[::-1].copy()))
    results = []
    solve = metric.solve_driving_potential
    monkeypatch.setattr(metric, "solve_driving_potential",
                        lambda *a, **k: results.append(solve(*a, **k)) or results[-1])
    assert cli.main(["distance", a, b, "--config", str(config), "--segments", "4"]) == 0
    assert len(results) == 4 + 1
    assert all(isinstance(report.iterations, int) for _, report in results)
