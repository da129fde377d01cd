"""Config parsing and the command-line surface."""

import itertools
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import gcflow
from gcflow import dynamics, fieldio, metric, problems
from gcflow.cli import main
from gcflow.config import build_params, dump_config, load_config, parse_config
from gcflow.errors import ConfigError
from gcflow.experiments import linearized_rate

BASE = """
[grid]
d = 1
L = 1.0
M = 64

[model]
kappa = 0.4
m0 = 0.05

[kernel]
family = smoothed_indicator
amplitude = 1.0
radius = 0.1
mollifier_width = 0.02

[run]
integrator = imex
h = 0.001
T = 0.05
stride = 10
out_dir = {out}

[initial]
kind = uniform
"""


def write_config(tmp_path, text=None):
    p = tmp_path / "c.ini"
    p.write_text((text or BASE).format(out=tmp_path / "out"))
    return str(p)


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.integrator == "imex"
    assert cfg.initial.kind == "uniform"
    assert cfg.jko.inner_tol == 1e-12
    # derived mu resolved through the uniform-state equation
    params = build_params(cfg)
    assert abs(params.mu - (np.log(0.05) + params.kernel.w * 0.05)) < 1e-12


def test_config_roundtrip(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert parse_config(dump_config(cfg)) == cfg


def test_both_mu_and_m0_rejected(tmp_path):
    text = BASE.replace("m0 = 0.05", "m0 = 0.05\nmu = -1.0")
    with pytest.raises(ConfigError, match="mu"):
        load_config(write_config(tmp_path, text))


def test_neither_mu_nor_m0_rejected(tmp_path):
    text = BASE.replace("m0 = 0.05", "")
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, text))


def test_kappa_out_of_range(tmp_path):
    text = BASE.replace("kappa = 0.4", "kappa = 0.6")
    with pytest.raises(ConfigError, match="kappa"):
        load_config(write_config(tmp_path, text))


def test_bad_integrator(tmp_path):
    text = BASE.replace("integrator = imex", "integrator = euler")
    with pytest.raises(ConfigError, match="integrator"):
        load_config(write_config(tmp_path, text))


def test_unparseable_value(tmp_path):
    text = BASE.replace("M = 64", "M = sixty-four")
    with pytest.raises(ConfigError, match="grid.M"):
        load_config(write_config(tmp_path, text))


def test_error_message_has_field_path(tmp_path):
    text = BASE.replace("M = 64", "M = 63")
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(tmp_path, text))
    assert "grid.M" in str(exc.value)


def test_run_section_optional(tmp_path):
    text = BASE[: BASE.index("[run]")] + BASE[BASE.index("[initial]"):]
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.h is None and cfg.integrator == "imex"


def test_roundtrip_over_config_variants():
    kernels = {"smoothed_indicator": "radius = 0.1\nmollifier_width = 0.02",
               "positive_type": "width = 0.05"}
    runs = {"absent": "", "partial": "[run]\nT = 0.5\n",
            "full": "[run]\nintegrator = jko\nh = 0.002\nT = 0.0\nstride = 3\n"
                    "out_dir = runs/50%\nseed = 11\n"}
    initials = {"uniform": "kind = uniform",
                "single_mode": "kind = single_mode\nmode = 2\neps = 0.01",
                "random_band": "kind = random_band\nk_c = 4\namp = 0.1"}
    jkos = {"absent": "",
            "present": "[jko]\ninner_tol = 1e-10\nmax_inner = 50\nresidual_tol = 1e-8\n"}
    variants = itertools.product((1, 2), ("m0 = 0.05", "mu = -2.5"), kernels, runs, initials, jkos)
    for d, density, family, run, initial, jko in variants:
        text = (f"[grid]\nd = {d}\nL = 1.0\nM = 32\n[model]\nkappa = 0.3\n{density}\n"
                f"[kernel]\nfamily = {family}\namplitude = 0.5\n{kernels[family]}\n"
                f"{runs[run]}[initial]\n{initials[initial]}\n{jkos[jko]}")
        cfg = parse_config(text)
        assert parse_config(dump_config(cfg)) == cfg, text


def test_zero_end_time_loads(tmp_path, capsys):
    # distance marches nothing, so its configs may set T = 0
    cfgp = write_config(tmp_path, BASE.replace("T = 0.05", "T = 0.0"))
    params = build_params(load_config(cfgp))
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    fieldio.save_binary(a, problems.single_mode_state(params, 1, 0.003).n)
    fieldio.save_binary(b, problems.single_mode_state(params, 2, 0.003).n)
    assert main(["distance", a, b, "--config", cfgp, "--segments", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["d_a"] > 0


def test_readme_example_parses():
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    cfg = parse_config(block)
    assert cfg.initial.kind == "random_band" and cfg.stride == 10


@pytest.mark.parametrize("old, new, field", [
    ("T = 0.05", "T = 0", "run.T"),
    ("T = 0.05", "T = inf", "run.T"),
    ("stride = 10", "stride = 0", "run.stride"),
    ("h = 0.001", "h = -1e-3", "run.h"),
    ("kind = uniform", "kind = uniform\n[jko]\ninner_tol = 0", "jko.inner_tol"),
    ("amplitude = 1.0", "amplitude = -1", "kernel.amplitude"),
    ("family = smoothed_indicator", "family = positive_type\nwidth = 0", "kernel.width"),
    ("stride = 10", "stirde = 10", "run.stirde"),
    ("kind = uniform", "kind = uniform\nseed = 0", "initial.seed"),
    ("kind = uniform", "kind = uniform\n[output]\nformat = csv", "output"),
    ("kind = uniform", "kind = uniform\n[jko]\nrelaxation = 0.5", "jko.relaxation"),
    ("radius = 0.1", "radius = 0.1\nwidth = 0.1", "kernel.width"),
], ids=["T-zero", "T-inf", "stride-zero", "h-negative", "inner-tol-zero", "amplitude-negative",
        "positive-type-width-zero", "misspelled-key", "seed-in-initial", "unknown-section",
        "relaxation", "other-family-key"])
def test_bad_config_exit_2(tmp_path, capsys, old, new, field):
    text = BASE.replace(old, new)
    if "positive_type" in new:
        text = text.replace("radius = 0.1\n", "").replace("mollifier_width = 0.02\n", "")
    assert main(["evolve", "--config", write_config(tmp_path, text)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError" and err["message"].startswith(field + ":")


@pytest.mark.parametrize("command, old, new, field", [
    ("evolve", "out_dir = {out}", "out_dir = {file}/x", "run.out_dir"),
    ("evolve", "radius = 0.1", "radius = 0.3", "kernel.radius"),
    ("evolve", "mollifier_width = 0.02", "mollifier_width = 0.2", "kernel.mollifier_width"),
    ("evolve", "family = smoothed_indicator\namplitude = 1.0\nradius = 0.1\n"
               "mollifier_width = 0.02",
     "family = positive_type\namplitude = 1.0\nwidth = 0.2", "kernel.width"),
    ("sweep", "radius = 0.1", "radius = 0.12", "kernel.radius"),  # too wide for L = 0.5
    ("evolve", "m0 = 0.05", "m0 = 1e300", "model.m0"),  # mu is not representable
    ("evolve", "m0 = 0.05", "mu = 800", "model.mu"),  # exp(mu) overflows
    # the sweep builds each box's model the way evolve builds its one
    ("sweep", "radius = 0.1", "radius = 0.3", "kernel.radius"),
    ("sweep", "family = smoothed_indicator\namplitude = 1.0\nradius = 0.1\n"
              "mollifier_width = 0.02",
     "family = positive_type\namplitude = 1.0\nwidth = 0.2", "kernel.width"),
    ("sweep", "m0 = 0.05", "m0 = 1e300", "model.m0"),
    ("sweep", "m0 = 0.05", "mu = 800", "model.mu"),
    ("evolve", "kind = uniform", "kind = single_mode\neps = -1.0", "initial.eps"),
    # the band edge must lie in 0..M/2; the sweep's L = 0.5 box has M = 32
    ("evolve", "kind = uniform", "kind = random_band\nk_c = 100000", "initial.k_c"),
    ("evolve", "kind = uniform", "kind = random_band\nk_c = -1", "initial.k_c"),
    ("sweep", "kind = uniform", "kind = random_band\nk_c = 20", "initial.k_c"),
], ids=["out-dir-under-file", "radius-too-large", "mollifier-too-wide", "gaussian-too-wide",
        "sweep-box-too-small", "m0-huge", "mu-huge", "sweep-radius-too-large",
        "sweep-gaussian-too-wide", "sweep-m0-huge", "sweep-mu-huge", "single-mode-nonpositive",
        "band-edge-huge", "band-edge-negative", "sweep-band-edge-above-nyquist"])
def test_config_value_failure_exit_2(tmp_path, capsys, command, old, new, field):
    # values that parse but fail later, while building the model, kernels or output
    text = BASE.replace(old, new).replace("{file}", str(tmp_path / "c.ini"))
    argv = [command, "--config", write_config(tmp_path, text)]
    if command == "sweep":
        argv += ["--axis", "L=0.5,1"]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError" and err["message"].startswith(field + ":")


# -- CLI --------------------------------------------------------------------


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


def test_no_subcommand():
    assert main([]) == 2


def test_missing_config_file_exit_2(capsys):
    assert main(["evolve", "--config", "/nonexistent/c.ini"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "ConfigError"


def test_evolve_stationary_exit_0(tmp_path, capsys):
    code = main(["evolve", "--config", write_config(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["gap"] <= 1e-13
    # every NDJSON record reports a gap at the floor
    for line in open(tmp_path / "out" / "diag.ndjson"):
        assert json.loads(line)["gap"] <= 1e-13


def test_evolve_jko_integrator(tmp_path, capsys):
    text = BASE.replace("integrator = imex", "integrator = jko").replace(
        "kind = uniform", "kind = single_mode\nmode = 1\neps = 0.001"
    )
    code = main(["evolve", "--config", write_config(tmp_path, text), "--stdout"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rec = json.loads(lines[0])
    assert rec["inner_iters"] is not None and rec["residual"] is not None


def test_kernel_info_json(tmp_path, capsys):
    assert main(["kernel-info", "--config", write_config(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["positive_type"] is False
    assert payload["w"] > 0


def test_zero_amplitude_gaussian_kernel(tmp_path, capsys):
    # amplitude 0 (no interaction) is accepted by both kernel families
    text = BASE.replace("amplitude = 1.0", "amplitude = 0.0").replace(
        "family = smoothed_indicator", "family = positive_type\nwidth = 0.05").replace(
        "radius = 0.1\nmollifier_width = 0.02\n", "")
    assert main(["kernel-info", "--config", write_config(tmp_path, text)]) == 0
    assert json.loads(capsys.readouterr().out)["w"] == 0.0


def test_distance_subcommand(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    params = build_params(load_config(cfgp))
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    fieldio.save_binary(a, problems.single_mode_state(params, 1, 0.003).n)
    fieldio.save_binary(b, problems.single_mode_state(params, 2, 0.003).n)
    assert main(["distance", a, b, "--config", cfgp, "--segments", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d_a"] > 0 and payload["path_upper_sq"] > 0
    assert payload["segments"] == 8


def test_distance_solves_once_per_node(tmp_path, capsys, monkeypatch):
    # one solve for d_a, then one per path node (segments + 1)
    cfgp = write_config(tmp_path)
    params = build_params(load_config(cfgp))
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    fieldio.save_binary(a, problems.single_mode_state(params, 1, 0.003).n)
    fieldio.save_binary(b, problems.single_mode_state(params, 2, 0.003).n)
    solve = metric.solve_driving_potential
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(metric, "solve_driving_potential", counting)
    assert main(["distance", a, b, "--config", cfgp, "--segments", "8"]) == 0
    assert len(calls) == 1 + 8 + 1


def test_evolve_d2_default_h(tmp_path, capsys):
    text = (BASE.replace("d = 1", "d = 2").replace("M = 64", "M = 16")
            .replace("h = 0.001\n", "").replace("T = 0.05", "T = 2e-5"))
    assert main(["evolve", "--config", write_config(tmp_path, text)]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["t"] == 2e-5


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main_argv = ["--version"]
        from gcflow.cli import build_parser

        build_parser().parse_args(main_argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "gcflow" in out and "schema" in out


def test_evolve_ndjson_deterministic(tmp_path):
    text = BASE.replace("kind = uniform", "kind = random_band\nk_c = 3\namp = 0.25")
    cfgp = write_config(tmp_path, text)
    assert main(["evolve", "--config", cfgp]) == 0
    first = open(tmp_path / "out" / "diag.ndjson").read()
    assert main(["evolve", "--config", cfgp]) == 0
    second = open(tmp_path / "out" / "diag.ndjson").read()
    assert first == second


@pytest.mark.parametrize("old, new, error", [
    # h = 100 overflows the inner iterate of the implicit step
    ("integrator = imex\nh = 0.001\nT = 0.05", "integrator = jko\nh = 100.0\nT = 100.0",
     "InnerDivergence"),
    # the interaction term overflows an IMEX step
    ("amplitude = 1.0", "amplitude = 1e6", "PositivityLoss"),
], ids=["jko-h100", "imex-amplitude-1e6"])
def test_jko_divergence_prints_one_line(tmp_path, old, new, error):
    # a numerical failure puts its JSON error line, and nothing else, on stderr
    text = BASE.replace(old, new).replace("stride = 10", "stride = 10\nseed = 0").replace(
        "kind = uniform", "kind = random_band\nk_c = 3\namp = 0.3")
    src = os.path.dirname(os.path.dirname(gcflow.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gcflow.cli", "evolve", "--config",
         write_config(tmp_path, text), "--stdout"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == error


def test_sweep_runs_jko(tmp_path, capsys):
    # the sweep runs [run] integrator: the implicit scheme's rate is volume independent
    text = (BASE.replace("integrator = imex", "integrator = jko").replace("h = 0.001", "h = 0.01")
            .replace("T = 0.05", "T = 1.5"))
    assert main(["sweep", "--config", write_config(tmp_path, text), "--axis", "L=1,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [p["L"] for p in report["points"]] == [1.0, 2.0]
    assert report["max_ratio"] <= 1.10


@pytest.mark.parametrize("integrator, T", [("jko", 3e-3), ("imex", 3e-6), ("rk4", 3e-6)])
def test_evolve_default_h(tmp_path, capsys, integrator, T):
    # without [run] h, jko steps at 1e-3 and the direct steppers at dynamics.default_h
    text = BASE.replace("integrator = imex", f"integrator = {integrator}").replace(
        "h = 0.001\n", "").replace("T = 0.05", f"T = {T}").replace("stride = 10", "stride = 1")
    cfgp = write_config(tmp_path, text)
    params = build_params(load_config(cfgp))
    lam = linearized_rate(2.0 * np.pi * 31, params)
    h = 1e-3 if integrator == "jko" else dynamics.default_h(params, lam)
    assert main(["evolve", "--config", cfgp, "--stdout"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()[:-1]]
    assert records[0]["t"] == h
    assert len(records) == math.ceil(T / h - 1e-9)


@pytest.mark.parametrize("key, value, error", [
    ("max_inner", "1", "InnerDivergence"), ("residual_tol", "1e-30", "ResidualTooLarge")])
def test_jko_study_honours_jko_section(tmp_path, capsys, key, value, error):
    # each value alone makes the first implicit step fail
    text = BASE.replace("T = 0.05", "T = 0.004").replace(
        "kind = uniform", "kind = random_band\nk_c = 3\namp = 0.3") + f"[jko]\n{key} = {value}\n"
    argv = ["jko-study", "--config", write_config(tmp_path, text), "--h-list", "2e-3,1e-3"]
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == error


@pytest.mark.parametrize("old, new", [
    ("m0 = 0.05", "mu = -2.0"),
    ("family = smoothed_indicator\namplitude = 1.0\nradius = 0.1\nmollifier_width = 0.02",
     "family = positive_type\namplitude = 1.0\nwidth = 0.05"),
], ids=["mu", "positive-type"])
def test_sweep_any_model(tmp_path, capsys, old, new):
    # the sweep takes every model evolve takes: mu instead of m0, either kernel family
    text = BASE.replace(old, new).replace("h = 0.001", "h = 0.002").replace("T = 0.05", "T = 0.3")
    assert main(["sweep", "--config", write_config(tmp_path, text), "--axis", "L=1,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [p["M"] for p in report["points"]] == [64, 128]
    assert report["max_ratio"] <= 1.10


def test_sweep_failure_is_one_json_line(tmp_path, capsys):
    text = (BASE.replace("kappa = 0.4", "kappa = 0.05").replace("h = 0.001", "h = 1.0")
            .replace("T = 0.05", "T = 60\nseed = 0").replace(
                "kind = uniform", "kind = random_band\nk_c = 3\namp = 1.0"))
    assert main(["sweep", "--config", write_config(tmp_path, text), "--axis", "L=1,2"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "PositivityLoss"


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "L=1,abc"],
    ["sweep", "--axis", "L=0.3"],  # M = 19 points
    ["jko-study", "--h-list", "1e-3,x"],
    ["jko-study", "--h-list", "1e-3"],  # one step gives no order
    ["jko-study", "--h-list", "3e-3,2e-3,1e-3"],  # 2e-3 does not divide 3e-3
    ["distance", "{nan}.missing", "{nan}"],
    ["distance", "{nan}", "{nan}"],
    ["distance", "{ok}", "{ok}", "--segments", "1"],
    ["distance", "{off}", "{off}"],  # both fields on M = 32, the config on M = 64
    ["distance", "{ok}", "{off}"],  # the two fields on different grids
], ids=["axis-text", "axis-bad-M", "h-text", "one-h", "h-not-dividing", "missing-field",
        "nan-field", "one-segment", "fields-off-grid", "fields-on-two-grids"])
def test_bad_cli_input_exit_2(tmp_path, capsys, argv):
    cfgp = write_config(tmp_path)
    ok_path, nan_path = str(tmp_path / "ok.bin"), str(tmp_path / "nan.bin")
    off_path = str(tmp_path / "off.bin")
    params = build_params(load_config(cfgp))
    fieldio.save_binary(ok_path, problems.uniform_state(params).n)
    fieldio.save_binary(nan_path, problems.uniform_state(params).n)
    with open(nan_path, "r+b") as fh:  # overwrite the first sample with NaN
        fh.seek(32)
        fh.write(np.array([np.nan], dtype="<f8").tobytes())
    off = build_params(parse_config(BASE.replace("M = 64", "M = 32")))
    fieldio.save_binary(off_path, problems.uniform_state(off).n)
    argv = [argv[0], "--config", cfgp] + [a.format(nan=nan_path, ok=ok_path, off=off_path)
                                          for a in argv[1:]]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ConfigError"
