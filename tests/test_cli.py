"""Config parsing and the command-line surface."""

import itertools
import json
import math
import os
import pathlib
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gcflow
from gcflow import experiments, fieldio, metric, problems
from gcflow.cli import build_parser, main
from gcflow.config import build_params, dump_config, load_config, parse_config
from gcflow.errors import ConfigError
from gcflow.experiments import linearized_rate
from gcflow.spectral import Grid, RealField

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
    readme = pathlib.Path(__file__).parent.parent.joinpath("README.md").read_text()
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


@pytest.mark.parametrize("key, value", [("inner_tol", "0"), ("max_inner", "0"),
                                        ("residual_tol", "-1e-9")])
@pytest.mark.parametrize("integrator", ["imex", "rk4", "rk4_canonical", "jko"])
def test_jko_section_refused_for_every_integrator(tmp_path, capsys, integrator, key, value):
    # [jko] is read with the rest of the config (its dataclass lives in
    # gcflow.config), so a bad value exits 2 whichever integrator runs
    text = (BASE.replace("integrator = imex", f"integrator = {integrator}")
            + f"[jko]\n{key} = {value}\n")
    assert main(["evolve", "--config", write_config(tmp_path, text)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError" and err["message"].startswith(f"jko.{key}:")


SMOOTHED = "family = smoothed_indicator\namplitude = 1.0\nradius = 0.1\nmollifier_width = 0.02"
GAUSSIAN = "family = positive_type\namplitude = 1.0\nwidth = {}"


@pytest.mark.parametrize("command, old, new, field", [
    ("evolve", "out_dir = {out}", "out_dir = {file}/x", "run.out_dir"),
    ("evolve", "radius = 0.1", "radius = 0.3", "kernel.radius"),
    ("evolve", "mollifier_width = 0.02", "mollifier_width = 0.2", "kernel.mollifier_width"),
    ("evolve", "family = smoothed_indicator\namplitude = 1.0\nradius = 0.1\n"
               "mollifier_width = 0.02",
     "family = positive_type\namplitude = 1.0\nwidth = 0.2", "kernel.width"),
    ("sweep", "radius = 0.1", "radius = 0.12", "kernel.radius"),  # too wide for L = 0.5
    ("evolve", "m0 = 0.05", "m0 = 1e300", "model.m0"),  # mu is not representable
    # with no interaction (w = 0) the root is exp(mu), which overflows
    ("evolve", ("amplitude = 1.0", "m0 = 0.05"), ("amplitude = 0.0", "mu = 800"), "model.mu"),
    # the sweep builds each box's model the way evolve builds its one
    ("sweep", "radius = 0.1", "radius = 0.3", "kernel.radius"),
    ("sweep", "family = smoothed_indicator\namplitude = 1.0\nradius = 0.1\n"
              "mollifier_width = 0.02",
     "family = positive_type\namplitude = 1.0\nwidth = 0.2", "kernel.width"),
    ("sweep", "m0 = 0.05", "m0 = 1e300", "model.m0"),
    ("sweep", ("amplitude = 1.0", "m0 = 0.05"), ("amplitude = 0.0", "mu = 800"), "model.mu"),
    ("evolve", "kind = uniform", "kind = single_mode\neps = -1.0", "initial.eps"),
    # the band edge must lie in 0..M/2; the sweep's L = 0.5 box has M = 32
    ("evolve", "kind = uniform", "kind = random_band\nk_c = 100000", "initial.k_c"),
    ("evolve", "kind = uniform", "kind = random_band\nk_c = -1", "initial.k_c"),
    ("sweep", "kind = uniform", "kind = random_band\nk_c = 20", "initial.k_c"),
    # a single mode must lie in 0..M/2 too; mode 100 was sampled as its alias 28
    ("evolve", "kind = uniform", "kind = single_mode\nmode = 100", "initial.mode"),
    ("evolve", "kind = uniform", "kind = single_mode\nmode = -1", "initial.mode"),
    # with no interaction (w = 0), m0 = exp(-800) underflows to 0
    ("evolve", ("amplitude = 1.0", "m0 = 0.05"), ("amplitude = 0.0", "mu = -800"), "model.mu"),
    ("evolve", ("amplitude = 1.0", "m0 = 0.05", "kind = uniform"),
     ("amplitude = 0.0", "mu = -800", "kind = random_band"), "model.mu"),
    ("sweep", ("amplitude = 1.0", "m0 = 0.05"), ("amplitude = 0.0", "mu = -800"), "model.mu"),
    # a box whose L^d or |k|^4 overflows: 1/spacing divided by 0, a numpy
    # warning on |k|^2 or |k|^4, or L^2 overflowed under exit 1
    ("evolve", "L = 1.0", "L = 5e-324", "grid.L"),
    ("evolve", "L = 1.0", "L = 1e-310", "grid.L"),
    ("evolve", "L = 1.0", "L = 1e-300", "grid.L"),
    ("evolve", "L = 1.0", "L = 1e-150", "grid.L"),
    ("evolve", ("d = 1", "L = 1.0"), ("d = 2", "L = 1e200"), "grid.L"),
    # a positive-type width whose 2 width^2 underflows to 0 or overflows made
    # a NaN kernel
    ("evolve", SMOOTHED, GAUSSIAN.format("1e-200"), "kernel.width"),
    ("evolve", SMOOTHED, GAUSSIAN.format("5e-324"), "kernel.width"),
    ("evolve", (SMOOTHED, "L = 1.0"), (GAUSSIAN.format("1e290"), "L = 1e300"), "kernel.width"),
    # images 1e300 away squared to inf, with a warning; the sampled delta
    # kernel then has no uniform state at m0
    ("evolve", (SMOOTHED, "L = 1.0"), (GAUSSIAN.format("0.1"), "L = 1e300"), "model.m0"),
    # every sample finite, but their sum over the grid past float range: the
    # zero mode of N's transform overflows before any step
    ("evolve", ("m0 = 0.05", "amplitude = 1.0"), ("m0 = 1e307", "amplitude = 1e-320"),
     "model.m0"),
    ("jko-study", ("m0 = 0.05", "amplitude = 1.0"), ("mu = 706.9", "amplitude = 1e-320"),
     "model.mu"),
    ("evolve", ("m0 = 0.05", "amplitude = 1.0", "kind = uniform"),
     ("m0 = 1e307", "amplitude = 1e-320", "kind = single_mode\nmode = 1\neps = 0.01"),
     "model.m0"),
    ("evolve", ("amplitude = 1.0", "kind = uniform"),
     ("amplitude = 1e-320", "kind = single_mode\nmode = 0\neps = 1e307"), "initial.eps"),
    ("sweep", ("m0 = 0.05", "amplitude = 1.0", "kind = uniform"),
     ("m0 = 1e307", "amplitude = 1e-320", "kind = random_band\nk_c = 3\namp = 0.1"),
     "model.m0"),
    # a kernel whose transform overflows: "density hit nan" under exit 1, a
    # kernel-info of Infinity and NaN, or a key the family does not have
    *[(command, "amplitude = 1.0", "amplitude = 2e307", "kernel.amplitude")
      for command in ("evolve", "sweep", "kernel-info")],
    *[(command, (SMOOTHED, "m0 = 0.05"),
       (GAUSSIAN.format("0.05").replace("1.0", "1e308"), "mu = 0"), "kernel.amplitude")
      for command in ("evolve", "sweep", "kernel-info")],
    *[(command, ("d = 1", old), ("d = 2", new), "kernel.amplitude")
      for command in ("evolve", "kernel-info")
      for old, new in [("amplitude = 1.0", "amplitude = 1.7976931348623157e308"),
                       (SMOOTHED, GAUSSIAN.format("0.1").replace("1.0", "1.7976931348623157e308"))]],
    # mu = log m0 + w m0 overflows: the fixed-point residual is NaN
    *[(command, ("m0 = 0.05", "amplitude = 1.0"), ("m0 = 1e300", "amplitude = 1e10"), "model.m0")
      for command in ("evolve", "sweep", "kernel-info")],
    # w m0 = 1e98 rounds mu - W*N at 2e82: no digit of the reaction's exponent is left
    *[(command, "amplitude = 1.0", "amplitude = 1e100", "model.m0")
      for command in ("evolve", "sweep", "kernel-info")],
], ids=["out-dir-under-file", "radius-too-large", "mollifier-too-wide", "gaussian-too-wide",
        "sweep-box-too-small", "m0-huge", "mu-huge", "sweep-radius-too-large",
        "sweep-gaussian-too-wide", "sweep-m0-huge", "sweep-mu-huge", "single-mode-nonpositive",
        "band-edge-huge", "band-edge-negative", "sweep-band-edge-above-nyquist",
        "single-mode-above-nyquist", "single-mode-negative",
        "m0-underflow-uniform", "m0-underflow-band", "sweep-m0-underflow",
        "L-5e-324", "L-1e-310", "L-1e-300", "L-1e-150", "d2-L-1e200", "width-1e-200",
        "width-5e-324", "width-1e290", "L-1e300-width-0.1", "m0-sum-overflows",
        "jko-study-mu-sum-overflows", "single-mode-m0-sum-overflows",
        "single-mode-eps-sum-overflows", "sweep-band-m0-sum-overflows",
        "amplitude-2e307", "sweep-amplitude-2e307", "kernel-info-amplitude-2e307",
        "positive-type-amplitude-1e308", "sweep-positive-type-amplitude-1e308",
        "kernel-info-positive-type-amplitude-1e308", "d2-amplitude-max",
        "d2-positive-type-amplitude-max", "kernel-info-d2-amplitude-max",
        "kernel-info-d2-positive-type-amplitude-max", "m0-1e300-mu-overflows",
        "sweep-m0-1e300-mu-overflows", "kernel-info-m0-1e300-mu-overflows",
        "amplitude-1e100", "sweep-amplitude-1e100", "kernel-info-amplitude-1e100"])
def test_config_value_failure_exit_2(tmp_path, capsys, command, old, new, field):
    # values that parse but fail later, while building the model, kernels or output,
    # exit 2 with one JSON line and no numpy warning; `old` and `new` may be
    # tuples of replacements made in turn
    text = BASE
    for o, n in zip(old, new) if isinstance(old, tuple) else [(old, new)]:
        text = text.replace(o, n)
    text = text.replace("{file}", str(tmp_path / "c.ini"))
    argv = [command, "--config", write_config(tmp_path, text)]
    if command == "sweep":
        argv += ["--axis", "L=0.5,1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError" and err["message"].startswith(field + ":")


def test_large_interaction_uniform_state_is_a_model(tmp_path, capsys):
    # amplitude 1e8 (w m0 = 1e6): mu = log m0 + w m0 is rounded at 1e-10, so
    # the uniform state is judged in log space and kernel-info exits 0, where
    # |m0 - exp(mu - w m0)| > 1e-12 m0 exited 2 with "(mu, m0) inconsistent";
    # an IMEX march of that model is a numerical failure, exit 1
    cfgp = write_config(tmp_path, BASE.replace("amplitude = 1.0", "amplitude = 1e8"))
    assert main(["kernel-info", "--config", cfgp]) == 0
    assert json.loads(capsys.readouterr().out)["w"] == pytest.approx(2.03e7, rel=1e-2)
    assert main(["evolve", "--stdout", "--config", cfgp]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "PositivityLoss"
    # at 1e100 the refusal says why: the reaction's exponent keeps no digit
    cfgp = write_config(tmp_path, BASE.replace("amplitude = 1.0", "amplitude = 1e100"))
    assert main(["kernel-info", "--config", cfgp]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.startswith("model.m0: reaction exponent mu - W*N cannot keep its digits")


@pytest.mark.parametrize("amplitude, mu, m0", [
    (1e4, 800.0, 0.3943043112881), (1e8, 1015622.004, 0.05)])
def test_large_mu_with_interaction_is_a_model(tmp_path, capsys, amplitude, mu, m0):
    # e^mu overflows but the uniform density is representable: kernel-info
    # exited 2 with "model.mu: math range error"; the second model is the one
    # m0 = 0.05 builds at amplitude 1e8, given by its own mu
    text = BASE.replace("amplitude = 1.0", f"amplitude = {amplitude}")
    cfgp = write_config(tmp_path, text.replace("m0 = 0.05", f"mu = {mu}"))
    assert main(["kernel-info", "--config", cfgp]) == 0
    assert json.loads(capsys.readouterr().out)["w"] == pytest.approx(0.203125 * amplitude)
    assert build_params(load_config(cfgp)).m0 == pytest.approx(m0, rel=1e-9)


@pytest.mark.parametrize("mu", ["1e18", "1e300"])
def test_huge_mu_with_interaction_is_refused(tmp_path, capsys, mu):
    # the root m0 = mu / w is representable, but w m0 keeps no digit of
    # mu - W*N; a Newton step past the root overflowed w e^t, and the last
    # step in x formed exp(mu - w m0) from cancelled digits: exit 2 with
    # "model.mu: math range error" instead of the refusal
    cfgp = write_config(tmp_path, BASE.replace("m0 = 0.05", f"mu = {mu}"))
    assert main(["kernel-info", "--config", cfgp]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert message.startswith("model.mu: reaction exponent mu - W*N cannot keep its digits")


@pytest.mark.parametrize("amplitude, mu", [("1e-10", "1e300"), ("0.0", "800")])
def test_uniform_density_past_float_range_exit_2(tmp_path, capsys, amplitude, mu):
    # the root m0 is past the float range (about 4.9e310, and e^800): exit 2
    # with a message that says so, where it read "model.mu: math range error"
    text = BASE.replace("amplitude = 1.0", f"amplitude = {amplitude}")
    cfgp = write_config(tmp_path, text.replace("m0 = 0.05", f"mu = {mu}"))
    assert main(["kernel-info", "--config", cfgp]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert re.fullmatch(r"model\.mu: uniform density for mu = \S+, w = \S+ overflows the "
                        r"float range", err["message"])


@pytest.mark.parametrize("mu", [10.0, 50.0])
def test_evolve_mu_large_activity(tmp_path, capsys, mu):
    # w e^mu is large: m0 is about 32 and 220; the uniform state's solve once
    # underflowed its bracket and exited 2 with "math domain error"
    cfgp = write_config(tmp_path, BASE.replace("m0 = 0.05", f"mu = {mu}"))
    m0 = build_params(load_config(cfgp)).m0
    assert main(["evolve", "--config", cfgp]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # the uniform state is stationary: the gap is roundoff of energies of order m0^2
    assert abs(summary["gap"]) <= 1e-14 * m0**2 and abs(summary["mass"] / m0 - 1.0) < 1e-12


@pytest.mark.parametrize("integrator, h", [("imex", "0.001"), ("rk4_canonical", "5e-05")])
def test_evolve_huge_uniform_state_writes_finite_gaps(tmp_path, capsys, integrator, h):
    # m0 = 1e306: the density sum is finite, but m0 log m0 and mu times the
    # mass are not; every record and the summary still carry a finite gap,
    # the roundoff of free energies of order 1e306
    text = (BASE.replace("m0 = 0.05", "m0 = 1e306").replace("amplitude = 1.0", "amplitude = 1e-320")
            .replace("integrator = imex", f"integrator = {integrator}")
            .replace("h = 0.001", f"h = {h}").replace("T = 0.05", "T = 0.005"))
    assert main(["evolve", "--stdout", "--config", write_config(tmp_path, text)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == (2 if integrator == "imex" else 11)
    for line in lines:
        assert abs(json.loads(line, parse_constant=_reject_constant)["gap"]) <= 1e-14 * 1e306


def test_kernel_info_overflowed_stats_are_null(tmp_path, capsys):
    # the symbol is finite, but |k|^m W_hat for m >= 2 and d2norm overflow:
    # written as null, not as an Infinity that is not JSON, and with no warning
    text = BASE.replace("amplitude = 1.0", "amplitude = 1e307").replace("m0 = 0.05", "mu = 0")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["kernel-info", "--config", write_config(tmp_path, text)]) == 0
    stats = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert [stats[key] for key in ("v2", "v3", "v4", "d2norm")] == [None] * 4
    assert 0 < stats["w"] == stats["v0"] < stats["v1"] < math.inf


def test_evolve_jko_nan_residual_exit_1(tmp_path, capsys):
    # at m0 = 1e306 the weak residual of step 1 is NaN: the step is rejected,
    # not recorded with a "residual": NaN that is not strict JSON
    text = (BASE.replace("m0 = 0.05", "m0 = 1e306").replace("amplitude = 1.0", "amplitude = 1e-320")
            .replace("integrator = imex", "integrator = jko").replace("h = 0.001", "h = 5e-4")
            .replace("T = 0.05", "T = 0.005").replace("stride = 10", "stride = 1"))
    assert main(["evolve", "--stdout", "--config", write_config(tmp_path, text)]) == 1
    out, err = capsys.readouterr()
    for line in out.splitlines():
        json.loads(line, parse_constant=_reject_constant)
    assert out == ""  # step 1 fails: no record is written
    err = json.loads(err.strip().splitlines()[-1])
    assert err["error"] == "ResidualTooLarge" and "nan" in err["message"]


@pytest.mark.parametrize("integrator", ["rk4", "rk4_canonical"])
def test_explicit_step_above_cap_exit_2(tmp_path, capsys, integrator):
    # h max|k|^2 = 1e-4 (64 pi)^2 = 4.04 > 2.7: the config alone decides it,
    # so evolve stops before it opens diag.ndjson
    text = BASE.replace("integrator = imex", f"integrator = {integrator}").replace(
        "h = 0.001", "h = 1e-4")
    assert main(["evolve", "--config", write_config(tmp_path, text)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("run.h: h * max|k|^2 = 4.04 > 2.7")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evolve", "sweep", "jko-study"])
def test_overflowing_step_count_exit_2(tmp_path, capsys, command):
    # T / h beyond float range is no step count: the config alone decides it,
    # so the command stops with one ConfigError line before any output opens
    text = BASE.replace("h = 0.001", "h = 1e-300").replace("T = 0.05", "T = 1e300")
    argv = [command, "--config", write_config(tmp_path, text)]
    argv += {"evolve": [], "sweep": ["--axis", "L=1,2"],
             "jko-study": ["--h-list", "2e-300,1e-300"]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    field = "--h-list" if command == "jko-study" else "run.T"
    assert err["error"] == "ConfigError" and err["message"].startswith(field + ":")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["evolve", "sweep", "jko-study"])
def test_huge_step_count_exit_2(tmp_path, capsys, command):
    # T / h = 1e303 (1e300 / 1e-3, or the jko-study reference step) is finite
    # but would march for ever: a ConfigError line before any output opens
    text = BASE.replace("T = 0.05", "T = 1e300")
    argv = [command, "--config", write_config(tmp_path, text)]
    argv += ["--axis", "L=1,2"] if command == "sweep" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    field = "--h-list" if command == "jko-study" else "run.T"
    assert err["error"] == "ConfigError" and err["message"].startswith(field + ":")
    assert "more than 1e+09 steps" in err["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("h", [None, "1e-4"], ids=["default-h", "h-above-cap"])
@pytest.mark.parametrize("integrator", ["rk4", "rk4_canonical"])
def test_sweep_explicit_step_above_cap_exit_2(tmp_path, capsys, integrator, h):
    # the sweep's step (2e-3 when run.h is unset) against the cap of each
    # box is decided by the config alone, as in evolve: exit 2 before any step
    text = BASE.replace("integrator = imex", f"integrator = {integrator}").replace(
        "kind = uniform", "kind = random_band\nk_c = 3\namp = 0.25").replace(
        "h = 0.001\n", "" if h is None else f"h = {h}\n")
    argv = ["sweep", "--config", write_config(tmp_path, text), "--axis", "L=1,2"]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError" and err["message"].startswith("run.h: h * max|k|^2")


def test_cli_run_imports_no_scipy(tmp_path):
    # gcflow needs numpy and the stdlib only: whole `evolve`, `distance` and
    # `sweep` runs, uniform-state solve included, leave no scipy module loaded;
    # and each command imports only its own layers, so the set-up of an IMEX
    # `evolve` (the cold start of every short run) compiles none of the others,
    # also when it takes its default step from the linearized decay symbol
    cfgp = write_config(tmp_path, BASE.replace("m0 = 0.05", "mu = -1.0").replace(
        "T = 0.05", "T = 0.002"))
    sweep_cfg = tmp_path / "sweep.ini"
    sweep_cfg.write_text(pathlib.Path(cfgp).read_text().replace("T = 0.002", "T = 0.3")
                         .replace("h = 0.001", "h = 0.002"))
    default_h_cfg = tmp_path / "default_h.ini"
    default_h_cfg.write_text(pathlib.Path(cfgp).read_text().replace("T = 0.002", "T = 2e-5")
                             .replace("h = 0.001\n", ""))
    params = build_params(load_config(cfgp))
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.csv")
    fieldio.save_binary(a, problems.single_mode_state(params, 1, 0.003).n)
    fieldio.save_csv(b, problems.single_mode_state(params, 2, 0.003).n)
    runs = [["evolve", "--config", cfgp],
            ["evolve", "--config", str(default_h_cfg)],
            ["distance", a, b, "--config", cfgp, "--segments", "2"],
            ["sweep", "--config", str(sweep_cfg), "--axis", "L=1"]]
    script = ("import json, sys\n"
              "from gcflow.cli import main\n"
              "print(json.dumps([[main(argv), sorted(m for m in sys.modules\n"
              "                   if m.split('.')[0] in ('gcflow', 'scipy'))]\n"
              "                  for argv in json.loads(sys.argv[1])]))")
    src = os.path.dirname(os.path.dirname(gcflow.__file__))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    ((evolve, after_evolve), (default_h, after_default_h), (distance, after_distance),
     (sweep, after_sweep)) = json.loads(proc.stdout.splitlines()[-1])
    assert evolve == default_h == distance == sweep == 0, proc.stderr
    for after in (after_evolve, after_default_h):
        assert not {"gcflow.experiments", "gcflow.metric", "gcflow.selftest",
                    "gcflow.jko"} & set(after)
    assert {"gcflow.metric", "gcflow.fieldio"} <= set(after_distance)
    assert "gcflow.experiments" not in after_distance and "gcflow.experiments" in after_sweep
    assert "gcflow.jko" not in after_sweep  # an IMEX sweep needs no implicit step
    assert not [m for m in after_sweep if m.split(".")[0] == "scipy"]


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
    for line in (tmp_path / "out" / "diag.ndjson").read_text().splitlines():
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


def test_check_runs_every_check(capsys):
    assert main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:-1]] == [["ok", name] for name in (
        "spectral_roundtrip", "parseval", "cosine_gradient", "convolution_theorem",
        "kernel_properties", "uniform_fixed_point", "stationary_rhs", "rhs_assemblies_agree",
        "mass_conserving_step", "jko_uniform_step", "jko_implicit_residual", "metric_axioms",
        "rate_fit_synthetic", "field_serialization")]
    assert lines[-1] == "14/14 checks passed"


def test_check_reports_a_failed_check(capsys, monkeypatch):
    # a check that fails is printed as FAIL with its error, and `check` exits 1
    monkeypatch.setattr(experiments, "fit_decay_rate",
                        lambda records: experiments.RateFit(2.0, 1.0, (0.0, 1.0), 100))
    assert main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split()[:2] for line in lines[:-1] if not line.startswith("ok")]
    assert failed == [["FAIL", "rate_fit_synthetic"]]
    assert lines[-1] == "13/14 checks passed"


def test_check_fails_under_optimize():
    # `python -O` strips `assert`: the battery reports a failed check all the
    # same, here of a real transform that adds 1e-3 to its samples
    script = ("import sys\n"
              "from gcflow import spectral\n"
              "real = spectral._real\n"
              "spectral._real = lambda *a, **k: real(*a, **k) + 1e-3\n"
              "from gcflow.cli import main\n"
              "sys.exit(main(['check']))\n")
    src = os.path.dirname(os.path.dirname(gcflow.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1, proc.stderr
    status = {line.split()[1]: line.split()[0] for line in proc.stdout.splitlines()[:-1]}
    for name in ("spectral_roundtrip", "cosine_gradient", "convolution_theorem",
                 "stationary_rhs", "mass_conserving_step"):
        assert status[name] == "FAIL"


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
    # one solve per path node (segments + 1); node 0's also gives d_a
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
    assert len(calls) == 8 + 1


def test_distance_identical_fields_is_positive_zero(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    params = build_params(load_config(cfgp))
    a = str(tmp_path / "a.bin")
    fieldio.save_binary(a, problems.single_mode_state(params, 1, 0.003).n)
    assert main(["distance", a, a, "--config", cfgp, "--segments", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert math.copysign(1.0, payload["d_a"]) == 1.0
    assert math.copysign(1.0, payload["path_upper_sq"]) == 1.0


@pytest.mark.parametrize("which, value", [("b", 0.0), ("a", -1.5e-3)],
                         ids=["zero-in-b", "negative-a"])
def test_distance_nonpositive_field_exit_2(tmp_path, capsys, which, value):
    # a nonpositive field is an input error naming its file and minimum, not
    # a numerical failure at an interior path node
    cfgp = write_config(tmp_path)
    params = build_params(load_config(cfgp))
    paths = {"a": str(tmp_path / "a.bin"), "b": str(tmp_path / "b.bin")}
    for name, mode in (("a", 1), ("b", 2)):
        values = problems.single_mode_state(params, mode, 0.003).n.values.copy()
        if name == which:
            values[7] = value
        fieldio.save_binary(paths[name], RealField(params.grid, values))
    assert main(["distance", paths["a"], paths["b"], "--config", cfgp]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ConfigError"
    assert error["message"].startswith(paths[which] + ":")
    assert f"{value:.3e}" in error["message"] and "t =" not in error["message"]


@pytest.mark.parametrize("which", ["a.bin", "b.csv"])
def test_distance_field_header_beyond_file_exit_2(tmp_path, capsys, monkeypatch, which):
    # a header claiming d = 2, M = 2^20 over 8 samples is an input error
    # named by its file; a grid that large is never built (a Grid.make of
    # more than 64 points per axis fails the test instead of allocating)
    cfgp = write_config(tmp_path)
    params = build_params(load_config(cfgp))
    paths = {"a.bin": str(tmp_path / "a.bin"), "b.csv": str(tmp_path / "b.csv")}
    fieldio.save_binary(paths["a.bin"], problems.single_mode_state(params, 1, 0.003).n)
    fieldio.save_csv(paths["b.csv"], problems.single_mode_state(params, 2, 0.003).n)
    if which == "a.bin":
        pathlib.Path(paths[which]).write_bytes(b"GCF1" + struct.pack("<IId", 2, 2**20, 1.0)
                                               + b"\x00" * 76)
    else:
        pathlib.Path(paths[which]).write_text("2\n1.0\n1048576\nn\n" + "1.0\n" * 8)
    make = Grid.make

    def small_only(d, L, M):
        assert M <= 64, f"Grid.make({d}, {L}, {M}) called"
        return make(d, L, M)

    monkeypatch.setattr(Grid, "make", staticmethod(small_only))
    assert main(["distance", paths["a.bin"], paths["b.csv"], "--config", cfgp]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ConfigError"
    assert error["message"] == f"{paths[which]}: expected 1099511627776 samples, found 8"


@pytest.mark.parametrize("command", ["evolve", "kernel-info"])
def test_memory_error_exit_1(tmp_path, capsys, monkeypatch, command):
    # a valid grid too large for memory is one JSON line, not a traceback;
    # Grid.make raises as numpy would, without allocating anything
    def no_memory(d, L, M):
        raise MemoryError("Unable to allocate 8.00 TiB")

    cfgp = write_config(tmp_path)
    monkeypatch.setattr(Grid, "make", staticmethod(no_memory))
    assert main([command, "--config", cfgp]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "MemoryError",
                                    "message": "Unable to allocate 8.00 TiB"}


def test_distance_nonfinite_fails_fast(tmp_path):
    # a field of 1e300 overflows the solve: one JSON error line, exit 1, no
    # warning text, at once rather than after 10 M^d NaN iterations
    text = BASE.replace("d = 1", "d = 2")
    cfgp = write_config(tmp_path, text)
    params = build_params(load_config(cfgp))
    a, b = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    fieldio.save_binary(a, problems.single_mode_state(params, 1, 0.003).n)
    fieldio.save_binary(b, RealField(params.grid, np.full(params.grid.shape, 1e300)))
    src = os.path.dirname(os.path.dirname(gcflow.__file__))
    proc = subprocess.run([sys.executable, "-m", "gcflow.cli", "distance", a, b, "--config", cfgp],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=60)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "NoConvergence"


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
    first = (tmp_path / "out" / "diag.ndjson").read_text()
    assert main(["evolve", "--config", cfgp]) == 0
    second = (tmp_path / "out" / "diag.ndjson").read_text()
    assert first == second


@pytest.mark.parametrize("old, new, error", [
    # h = 100 from a band of amp 5 (a corridor kappa = 1e-3 allows it)
    # overflows the inner iterate of the implicit step
    (("kappa = 0.4", "integrator = imex\nh = 0.001\nT = 0.05", "kind = uniform"),
     ("kappa = 0.001", "integrator = jko\nh = 100.0\nT = 100.0",
      "kind = random_band\nk_c = 3\namp = 5"), "InnerDivergence"),
    # the interaction term overflows an IMEX step
    ("amplitude = 1.0", "amplitude = 1e6", "PositivityLoss"),
], ids=["jko-h100", "imex-amplitude-1e6"])
def test_jko_divergence_prints_one_line(tmp_path, old, new, error):
    # a numerical failure puts its JSON error line, and nothing else, on
    # stderr; `old` and `new` may be tuples of replacements made in turn
    text = BASE
    for o, n in zip(old, new) if isinstance(old, tuple) else [(old, new)]:
        text = text.replace(o, n)
    text = text.replace("stride = 10", "stride = 10\nseed = 0").replace(
        "kind = uniform", "kind = random_band\nk_c = 3\namp = 0.3")
    src = os.path.dirname(os.path.dirname(gcflow.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "gcflow.cli", "evolve", "--config",
         write_config(tmp_path, text), "--stdout"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == error


def test_failing_evolve_keeps_records(tmp_path, capsys):
    # the records written before the failing step stay in diag.ndjson
    text = (BASE.replace("amplitude = 1.0", "amplitude = 300").replace("h = 0.001", "h = 0.01")
            .replace("T = 0.05", "T = 1.0").replace("stride = 10", "stride = 2\nseed = 0")
            .replace("kind = uniform", "kind = random_band\nk_c = 3\namp = 0.3"))
    assert main(["evolve", "--config", write_config(tmp_path, text)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "PositivityLoss"
    records = [json.loads(line)
               for line in (tmp_path / "out" / "diag.ndjson").read_text().splitlines()]
    assert [r["step"] for r in records] == list(range(2, 15, 2))


@pytest.mark.parametrize("command", ["evolve", "sweep", "jko-study"])
def test_underflowing_band_exit_2(tmp_path, capsys, command):
    # m0 = exp(-700 - w m0) is about 1e-304: a band of amplitude 1000 (capped
    # at 0.9 log(1/kappa)) underflows N to 0 at some samples before any step
    text = (BASE.replace("kappa = 0.4\nm0 = 0.05", "kappa = 1e-300\nmu = -700")
            .replace("kind = uniform", "kind = random_band\nk_c = 3\namp = 1000"))
    argv = [command, "--config", write_config(tmp_path, text)]
    assert main(argv + (["--axis", "L=1,2"] if command == "sweep" else [])) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError" and err["message"].startswith("initial.amp:")


@pytest.mark.parametrize("command", ["evolve", "sweep", "jko-study"])
def test_overflowing_band_exit_2(tmp_path, capsys, command):
    # m0 = 1e300 with a band of amplitude 100 (capped at 0.9 log(1/kappa),
    # about 20.7) overflows N = exp(Psi0) to inf before any step: a
    # ConfigError line, with no overflow warning and no traceback
    text = (BASE.replace("kappa = 0.4\nm0 = 0.05", "kappa = 1e-10\nm0 = 1e300")
            .replace("amplitude = 1.0", "amplitude = 1e-300")
            .replace("kind = uniform", "kind = random_band\nk_c = 3\namp = 100"))
    argv = [command, "--config", write_config(tmp_path, text)]
    assert main(argv + (["--axis", "L=1,2"] if command == "sweep" else [])) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ConfigError" and err["message"].startswith("initial.amp:")
    assert "overflowed" in err["message"]


def test_parser_reused_across_calls(tmp_path, capsys):
    # one parser serves every call in a process: a usage error leaves it as
    # it was, and a valid call then prints what a fresh process prints
    assert build_parser() is build_parser()
    argv = ["kernel-info", "--config", write_config(tmp_path)]
    assert main(["kernel-info", "--bogus"]) == 2
    capsys.readouterr()
    assert main(argv) == 0
    src = os.path.join(os.path.dirname(gcflow.__file__), os.pardir)
    fresh = subprocess.run([sys.executable, "-m", "gcflow.cli"] + argv, capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert fresh.returncode == 0
    assert capsys.readouterr().out == fresh.stdout


def test_sweep_runs_jko(tmp_path, capsys):
    # the sweep runs [run] integrator: on the criterion-06 problem (random
    # band k_c = 3, amp 0.25, seed 7; L = 1, 2, 4) the implicit scheme's rate
    # is volume independent and above 0.95 lambda_dagger, as the IMEX one is
    text = (BASE.replace("integrator = imex", "integrator = jko").replace("h = 0.001", "h = 0.01")
            .replace("T = 0.05", "T = 1.5").replace("stride = 10", "stride = 10\nseed = 7"))
    assert main(["sweep", "--config", write_config(tmp_path, text), "--axis", "L=1,2,4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [p["L"] for p in report["points"]] == [1.0, 2.0, 4.0]
    assert report["max_ratio"] <= 1.10
    for point in report["points"]:
        assert point["lambda_hat"] >= 0.95 * point["lambda_dagger"], point["label"]


@pytest.mark.parametrize("integrator, T", [("jko", 3e-3), ("imex", 3e-6), ("rk4", 3e-6)])
def test_evolve_default_h(tmp_path, capsys, integrator, T):
    # without [run] h, jko steps at 1e-3 and the direct steppers at
    # min(0.1 dx, 0.01 / lambda(k_max)), k_max the last mode below Nyquist
    text = BASE.replace("integrator = imex", f"integrator = {integrator}").replace(
        "h = 0.001\n", "").replace("T = 0.05", f"T = {T}").replace("stride = 10", "stride = 1")
    cfgp = write_config(tmp_path, text)
    params = build_params(load_config(cfgp))
    lam = linearized_rate(2.0 * np.pi * 31, params)
    h = 1e-3 if integrator == "jko" else min(0.1 * params.grid.dx, 0.01 / lam)
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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("old, new", [
    ("m0 = 0.05", "m0 = 1.0"),
    ("m0 = 0.05", "mu = -2.0"),
    ("kind = uniform", "kind = random_band\nk_c = 3\namp = 0"),
], ids=["uniform-m0", "uniform-mu", "band-amp-0"])
def test_jko_study_at_equilibrium_exit_1(tmp_path, capsys, old, new, d):
    # from a stationary state every JKO error is roundoff, so no order can be
    # fitted: exit 1 with one strict-JSON line and no warning, not a log-of-0
    # warning and "order_d0": NaN on stdout
    text = BASE.replace(old, new).replace("T = 0.05", "T = 0.004")
    if d == 2:
        text = text.replace("d = 1\nL = 1.0\nM = 64", "d = 2\nL = 1.0\nM = 32")
    argv = ["jko-study", "--config", write_config(tmp_path, text), "--h-list", "2e-3,1e-3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1
    assert json.loads(lines[0], parse_constant=_reject_constant)["error"] == "InsufficientData"


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


@pytest.mark.parametrize("h_list, message", [
    ("1e-3,1e-3", "expected two or more distinct steps in (0, T], each dividing the largest"),
    ("1e-3", "expected two or more distinct steps in (0, T], each dividing the largest"),
    ("0.1,0.05", "expected two or more distinct steps in (0, T], each dividing the largest"),
    ("2e-3,1e-3,-1e-3", "expected two or more distinct steps in (0, T], each dividing the largest"),
    ("2e-12,1e-12", "reference steps of min / 20: "),
], ids=["repeated", "one", "above-T", "negative", "reference-too-fine"])
def test_jko_study_bad_steps_name_the_flag(tmp_path, capsys, h_list, message):
    # the refusal names the flag the steps came from, not the library's
    # parameter h_values, and comes before any march or output
    argv = ["jko-study", "--config", write_config(tmp_path), "--h-list", h_list]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "out").exists()
    err = json.loads(captured.err)
    assert err["error"] == "ConfigError" and err["message"].startswith("--h-list: " + message)


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


def _field_file(fmt, d, M, L):
    """The bytes of a `fmt` ("bin" or "csv") field file whose header reads
    (d, M, L), followed by M^d samples of 1.0."""
    if fmt == "bin":
        return (b"GCF1" + struct.pack("<IId", d, M, L) + b"\x00" * 12
                + np.ones(M**d, dtype="<f8").tobytes())
    return f"{d}\n{L!r}\n{M}\nn\n".encode() + b"1.0\n" * M**d


DISTANCE = ["distance", "{field}", "{field}", "--config", "{cfg}"]


@pytest.mark.parametrize("argv, text, field, pattern", [
    (["sweep", "--config", "{cfg}", "--axis", "1,2"], BASE, None,
     r"--axis: expected L=<comma-separated values>"),
    (["evolve", "--config", "{cfg}"], BASE.replace("M = 64\n", ""), None,
     r"grid\.M: missing required key"),
    (["evolve", "--config", "{cfg}"], "d = 1\n" + BASE, None,
     r"<file>: parse error: File contains no section headers\..*"),
    # the header's name line and every sample missing
    (DISTANCE, BASE, ("csv", b"1\n1.0\n64\n"), r"{field}: truncated CSV field file"),
    # a header that no grid has, in either field format
    *[(DISTANCE, BASE, (fmt, _field_file(fmt, d, M, L)), r"{field}: " + reason)
      for fmt in ("bin", "csv")
      for d, M, L, reason in [(3, 8, 1.0, "d must be 1 or 2, got 3"),
                              (1, 12, 1.0, "M must be a power of two >= 8, got 12"),
                              (1, 8, -1.0, r"L must be positive, got -1\.0"),
                              (1, 8, math.nan, "L must be positive, got nan")]],
], ids=["axis-without-L", "missing-M", "key-before-section", "truncated-csv",
        *[f"{fmt}-header-{what}" for fmt in ("bin", "csv")
          for what in ("d-3", "M-12", "L-negative", "L-nan")]])
def test_documented_input_error_exit_2(tmp_path, capsys, argv, text, field, pattern):
    # each is an input error: exit 2 and one JSON line on stderr, whose
    # message names the option, key, file or field file at fault
    paths = {"cfg": write_config(tmp_path, text)}
    if field:
        fmt, content = field
        (path := tmp_path / f"field.{fmt}").write_bytes(content)
        paths["field"] = str(path)
    assert main([a.format(**paths) for a in argv]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ConfigError"
    assert re.fullmatch(pattern.format(field=re.escape(paths.get("field", ""))),
                        error["message"], re.S)
