"""The CLI contract under drawn configs: exit 0, 1 or 2, one JSON error line
on a failure, and stdout that is strict JSON, with no warning on the way."""

import contextlib
import io
import json
import tempfile
import warnings

from hypothesis import HealthCheck, configuration, example, given, settings
from hypothesis import strategies as st

from gcflow import config
from gcflow.cli import main

# database=None stores no examples, but hypothesis still caches the source constants
# it draws from while collecting; that cache goes to a directory removed at exit
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

# extreme but parseable numbers, drawn for any numeric key
EXTREME = ("1e300", "-1e300", "1e-300", "5e-324", "-5e-324", "0", "-1", "1e8")
# key -> (values a working run uses, values that probe the parser and the model);
# None leaves the key out.  run.h, run.T and run.out_dir are drawn apart
KEYS = {
    "grid": {"d": (("1", "2"), ("0", "3")),
             "L": (("1.0", "2.0"), EXTREME),
             "M": (("8", "16", "32", "64"), ("0", "7", "12", "100", "-8", "1e300"))},
    "model": {"mu": ((None,), EXTREME), "m0": (("0.05", "0.2"), EXTREME),
              "kappa": (("0.4", "0.2"), EXTREME + ("0.5",))},
    "kernel": {"family": (("smoothed_indicator", "positive_type"), ("gauss",)),
               "amplitude": (("1.0", "0.5", "0.0"), EXTREME),
               "radius": (("0.1",), EXTREME), "mollifier_width": (("0.02",), EXTREME),
               "width": (("0.1",), EXTREME)},
    "run": {"integrator": (("imex", "rk4", "rk4_canonical", "jko"), ("euler",)),
            "stride": (("1", "5"), ("0", "-1", "1e300")), "seed": (("7", "0"), ("-1",))},
    "initial": {"kind": (("uniform", "single_mode", "random_band"), ("sine",)),
                "mode": (("1", "2"), ("-1", "0", "33", "100000")),
                "eps": (("0.01",), EXTREME), "k_c": (("3",), ("0", "-1", "100000")),
                "amp": (("0.25",), EXTREME)},
    "jko": {"inner_tol": ((None,), EXTREME), "max_inner": ((None,), ("0", "1", "-1")),
            "residual_tol": ((None,), EXTREME)},
}
# steps a run may take: T = steps * h keeps every run to a few hundred steps
STEPS = (1, 3, 20, 120)
# h of a working run (rk4 below its cap on these grids), and extreme ones
H_OK = {"imex": 1e-3, "jko": 2e-3, "rk4": 1e-5, "rk4_canonical": 1e-5}
H_ODD = (5e-324, 1e-300, 0.1, 1e300, 0.0, -1e-3)
# a T drawn apart from h: each is rejected or takes one step
T_ODD = ("0", "-1", "5e-324", "1e-300")


def test_keys_cover_the_config_grammar():
    for section, (_, keys) in config._SECTIONS.items():
        drawn = set(KEYS[section]) | {"h", "T", "out_dir"}
        assert set(keys) <= drawn, section
    assert {k for fam in config._FAMILY_KEYS.values() for k in fam} <= set(KEYS["kernel"])


@st.composite
def runs(draw):
    """(argv without --config, config text with an {out} field)."""
    odd_percent = draw(st.sampled_from((0, 5, 40)))

    def pick(ok, odd):  # hypothesis favours small integers: those keep a working value
        odd_key = draw(st.integers(0, 99)) >= 100 - odd_percent
        return draw(st.sampled_from(odd if odd_key else ok))

    values = {section: {key: pick(*v) for key, v in keys.items()}
              for section, keys in KEYS.items()}
    if values["model"]["mu"] is not None:  # exactly one of mu, m0
        values["model"]["m0"] = None
    for family, keys in config._FAMILY_KEYS.items():  # the other family's keys go
        if family != values["kernel"]["family"] and draw(st.integers(0, 99)) < 100 - odd_percent:
            values["kernel"].update(dict.fromkeys(keys))
    command = draw(st.sampled_from(("evolve", "sweep", "jko-study")))
    integrator = values["run"]["integrator"]
    steps = draw(st.sampled_from(STEPS))
    if command == "jko-study":  # the default h-list 4e-3, 2e-3, 1e-3 and an IMEX reference
        h, T = None, pick(("0.004", "0.008"), T_ODD)
    else:
        h = pick((H_OK.get(integrator, 1e-3), None), H_ODD)
        if h is None and command == "evolve" and integrator != "jko":
            h = H_OK.get(integrator, 1e-3)  # the computed default may be far below T
        default = 2e-3 if command == "sweep" else 1e-3
        T = pick((repr(steps * (default if h is None else h)),), T_ODD)
    values["run"].update(h=None if h is None else repr(h), T=T,
                         out_dir=pick(("{out}",), ("",)))
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items() if v is not None)
        for section, keys in values.items())
    argv = [command] + {"evolve": ["--stdout"] if draw(st.booleans()) else [],
                        "sweep": ["--axis", "L=1,2"], "jko-study": []}[command]
    return argv, text


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# T / h beyond float range: no step count, which is a config error
OVERFLOWING_STEPS = (["evolve"], """[grid]
d = 1
L = 1.0
M = 16
[model]
m0 = 0.05
kappa = 0.4
[kernel]
family = smoothed_indicator
amplitude = 1.0
radius = 0.1
mollifier_width = 0.02
[run]
integrator = imex
h = 1e-300
T = 1e300
out_dir = {out}
[initial]
kind = uniform
""")

# every sample finite, their sum over the grid not: the transform of N overflows
OVERFLOWING_SUM = (["evolve"], OVERFLOWING_STEPS[1]
                   .replace("M = 16", "M = 64").replace("m0 = 0.05", "m0 = 1e307")
                   .replace("amplitude = 1.0", "amplitude = 1e-320")
                   .replace("h = 1e-300\nT = 1e300", "h = 1e-3\nT = 0.01"))

# every sample and mode of N finite, the first IMEX step's inverse transform not
OVERFLOWING_DENSITY = (["evolve", "--stdout"], OVERFLOWING_STEPS[1]
                       .replace("M = 16", "M = 8").replace("m0 = 0.05", "m0 = 2e307")
                       .replace("amplitude = 1.0", "amplitude = 1e-320")
                       .replace("h = 1e-300\nT = 1e300", "h = 1e-4\nT = 1e-3")
                       .replace("kind = uniform", "kind = single_mode\nmode = 1\neps = 1e307"))


def _run(run):
    """(exit code, stdout, stderr lines, warnings caught) of one CLI call."""
    argv, text = run
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/c.ini"
        with open(path, "w") as fh:
            fh.write(text.replace("{out}", f"{tmp}/out"))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv + ["--config", path])
    return code, out.getvalue(), err.getvalue().splitlines(), caught


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(runs())
@example(OVERFLOWING_STEPS)
@example(OVERFLOWING_SUM)
@example(OVERFLOWING_DENSITY)
def test_cli_contract(run):
    code, out, lines, caught = _run(run)
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    for line in out.splitlines():
        json.loads(line, parse_constant=_reject_constant)
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}


def test_overflowing_density_is_positivity_loss():
    # the state's one check reports the overflow, naming the step's end time
    code, out, lines, caught = _run(OVERFLOWING_DENSITY)
    assert (code, out, caught) == (1, "", [])
    assert lines == ['{"error": "PositivityLoss", "message": "density overflowed at t = 0.0001"}']
