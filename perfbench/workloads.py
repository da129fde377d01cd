"""Workload definitions, input generation and output checks for the gcflow
benchmark.

Each workload is a fixed list of `gcflow` CLI calls.  The benchmark seed
feeds `[run] seed` of every config and the two generated distance fields;
nothing else about the inputs varies with it.  Every config sets `run.h`
and uses the acceptance-suite criterion matrix (smoothed-indicator kernel
A = 1, radius 0.1, mollifier 0.02; kappa 0.4; m0 0.05; random-band initial
state with k_c = 3).

This module imports neither numpy nor gcflow at import time, so that a
set-up probe can time the gcflow import itself.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

DEFAULT_SEED = 7
G_MU_RTOL = 1e-10  # criterion 02: per-record relative increase of G_mu
MAX_SWEEP_RATIO = 1.10  # criterion 06: spread of fitted rates over volumes
RATE_FLOOR = 0.95  # criterion 05: fitted rate >= 0.95 * certified lambda_dagger
MASS_RTOL = 1e-10  # rk4_canonical mass drift over the whole run
T_ATOL = 1e-9  # final time against the configured end time
REFERENCE_RTOL = 1e-6  # default-seed outputs; loose enough for reordered sums
REFERENCE_ATOL = 1e-12
RESIDUAL_TOL = 1e-9  # gcflow's default [jko] residual_tol


@dataclass(frozen=True)
class Call:
    """One `gcflow` CLI invocation and the config it reads."""

    name: str
    command: str  # evolve | sweep | distance
    d: int
    L: float
    M: int
    integrator: str
    h: float
    steps: int  # steps per run (per sweep point for a sweep)
    stride: int
    amp: float
    axis: tuple = ()  # sweep: box sizes L
    segments: int = 0  # distance: path segments

    @property
    def T(self) -> float:
        return self.steps * self.h

    @property
    def total_steps(self) -> int:
        return self.steps * max(1, len(self.axis))


WORKLOADS = {
    # The paper's headline experiment: the criterion-06 volume sweep plus a
    # stride-1 d=2 IMEX run, where diagnostics cost about as much as steps.
    # 250 steps keep a sample near 2 s; the sweep's T is the criterion's.
    "relax": (
        Call("sweep_d1", "sweep", 1, 1.0, 64, "imex", 2e-3, 750, 5, 0.25, axis=(1, 2, 4)),
        Call("imex_d2", "evolve", 2, 1.0, 64, "imex", 1e-3, 250, 1, 0.3),
    ),
    # Transform-bound explicit stepping: 32 FFTs per RK4 step, diagnostics
    # under 2% of the time.  About 1 s a sample, so that a run's median
    # rests on some twenty samples.
    "explicit": (
        Call("rk4_canonical_d1", "evolve", 1, 4.0, 256, "rk4_canonical", 6e-5, 500, 50, 0.25),
        Call("rk4_d2", "evolve", 2, 2.0, 64, "rk4", 1e-4, 125, 25, 0.25),
    ),
    # Inner solves: JKO Picard iterations and PCG iterations; reads both
    # field formats and bypasses the direct steppers.  h = 0.1 diverges in
    # the first step for about half of all seeds (the Picard step-size limit
    # on the ROADMAP); h = 0.04 converged for seeds 0-299.
    "implicit": (
        Call("jko_d1", "evolve", 1, 1.0, 256, "jko", 0.04, 50, 1, 1.0),
        Call("distance_d2", "distance", 2, 1.0, 64, "imex", 1e-3, 0, 1, 0.3, segments=32),
    ),
}

# Reduced sizes for the benchmark's smoke test.
TINY = {
    "sweep_d1": dict(M=32, steps=150, axis=(1, 2)),
    "imex_d2": dict(M=16, steps=20),
    "rk4_canonical_d1": dict(M=64, steps=50, stride=10),
    "rk4_d2": dict(M=16, steps=20, stride=5),
    "jko_d1": dict(M=64, steps=2),
    "distance_d2": dict(M=16, segments=4),
}


def calls_for(workload: str, tiny: bool = False) -> tuple:
    calls = WORKLOADS[workload]
    if tiny:
        calls = tuple(dataclasses.replace(c, **TINY[c.name]) for c in calls)
    return calls


class Inputs:
    """Paths of the generated configs and fields of one workload."""

    def __init__(self, workdir: str, calls: tuple, seed: int):
        self.workdir = workdir
        self.calls = calls
        self.seed = seed

    def config(self, call: Call) -> str:
        return os.path.join(self.workdir, f"{call.name}.ini")

    def out_dir(self, call: Call) -> str:
        return os.path.join(self.workdir, call.name)

    def fields(self, call: Call) -> tuple:
        return (os.path.join(self.workdir, f"{call.name}_a.bin"),
                os.path.join(self.workdir, f"{call.name}_b.csv"))

    def ndjson(self, call: Call) -> str:
        return os.path.join(self.out_dir(call), "diag.ndjson")

    def argv(self, call: Call) -> list:
        if call.command == "sweep":
            axis = "L=" + ",".join(str(x) for x in call.axis)
            return ["sweep", "--config", self.config(call), "--axis", axis]
        if call.command == "distance":
            a, b = self.fields(call)
            return ["distance", a, b, "--config", self.config(call),
                    "--segments", str(call.segments)]
        return ["evolve", "--config", self.config(call)]

    def write_configs(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        for call in self.calls:
            with open(self.config(call), "w") as fh:
                fh.write(config_text(call, self.seed, self.out_dir(call)))


def config_text(call: Call, seed: int, out_dir: str) -> str:
    return (
        f"[grid]\nd = {call.d}\nL = {call.L!r}\nM = {call.M}\n\n"
        "[model]\nkappa = 0.4\nm0 = 0.05\n\n"
        "[kernel]\nfamily = smoothed_indicator\namplitude = 1.0\n"
        "radius = 0.1\nmollifier_width = 0.02\n\n"
        f"[run]\nintegrator = {call.integrator}\nh = {call.h!r}\nT = {call.T!r}\n"
        f"stride = {call.stride}\nout_dir = {out_dir}\nseed = {seed}\n\n"
        f"[initial]\nkind = random_band\nk_c = 3\namp = {call.amp!r}\n"
    )


def setup(inputs: Inputs) -> dict:
    """What a user pays before the first step: load every config, build its
    kernel, uniform state and initial state (one grid per sweep point), and
    write the generated distance fields.  Returns the initial mass per call."""
    from gcflow import config, fieldio, problems

    mass0 = {}
    for call in inputs.calls:
        cfg = config.load_config(inputs.config(call))
        variants = [cfg] if not call.axis else [
            dataclasses.replace(cfg, L=float(L), M=int(round(cfg.M * L))) for L in call.axis
        ]
        for var in variants:
            params = config.build_params(var)
            state = config.build_initial_state(var, params)
        mass0[call.name] = state.n.integral()
        if call.command == "distance":
            path_a, path_b = inputs.fields(call)
            fieldio.save_binary(path_a, state.n)
            other = problems.random_band_state(params, 3, call.amp, inputs.seed + 1)
            fieldio.save_csv(path_b, other.n, name="b")
    return mass0


def read_ndjson(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(call: Call, out: dict, records: list) -> dict:
    """The numeric outputs of one call that are compared with the reference."""
    if call.command == "sweep":
        res = {f"lambda_hat[{p['label']}]": p["lambda_hat"] for p in out["points"]}
        res["max_ratio"] = out["max_ratio"]
        return res
    if call.command == "distance":
        return {"d_a": out["d_a"], "path_upper_sq": out["path_upper_sq"]}
    last = records[-1]
    return {"t": out["t"], "gap": out["gap"], "mass": out["mass"], "records": out["records"],
            "g_mu": last["g_mu"], "d0": last["d0"]}


def check_call(call: Call, inputs: Inputs, code, stdout: str, mass0: float,
               reference: dict | None) -> tuple:
    """(failed checks as messages, empty when the call passed; its summary)."""
    if code != 0:
        return [f"exit {code}"], {}
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
        records = read_ndjson(inputs.ndjson(call)) if call.command == "evolve" else []
        fails = _checks(call, out, records, mass0)
        values = summary(call, out, records)
    except (ValueError, KeyError, IndexError, OSError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}
    if reference is not None:
        fails += _compare(values, reference.get(call.name, {}))
        # The criterion-06 bound holds for the criterion's own initial state
        # (seed 7).  Where a seed barely excites the zero mode, the L = 4 fit
        # window still sees the slower-decaying k = 2 pi / 4 mode and the
        # ratio reaches 1.14-1.51 (seeds 1, 26, 38 of 0-39), so other seeds
        # are held to the seed-independent criterion-05 floor only.
        if call.command == "sweep" and not out["max_ratio"] <= MAX_SWEEP_RATIO:
            fails.append(f"max_ratio {out['max_ratio']} > {MAX_SWEEP_RATIO}")
    return fails, values


def _checks(call: Call, out: dict, records: list, mass0: float) -> list:
    fails = []
    if call.command == "sweep":
        pts = out["points"]
        if len(pts) != len(call.axis):
            fails.append(f"{len(pts)} sweep points, expected {len(call.axis)}")
        for p in pts:
            lam, floor = p["lambda_hat"], RATE_FLOOR * p["lambda_dagger"]
            if not (math.isfinite(lam) and lam > 0 and lam >= floor):
                fails.append(f"{p['label']}: lambda_hat {lam} below {floor}")
        return fails
    if call.command == "distance":
        for key in ("d_a", "path_upper_sq"):
            if not (math.isfinite(out[key]) and out[key] > 0):
                fails.append(f"{key} = {out[key]}")
        return fails
    if not abs(out["t"] - call.T) <= T_ATOL:
        fails.append(f"final t {out['t']!r} != T {call.T!r}")
    expected = len([s for s in range(1, call.steps + 1) if s % call.stride == 0 or s == call.steps])
    if len(records) != expected or out["records"] != expected:
        fails.append(f"{len(records)} records, expected {expected}")
    g = [r["g_mu"] for r in records]
    worst = max(((b - a) / max(1.0, abs(a)) for a, b in zip(g, g[1:])), default=-math.inf)
    if not worst <= G_MU_RTOL:
        fails.append(f"g_mu increased by {worst:.3e} (relative)")
    if call.integrator == "rk4_canonical":
        drift = max(abs(r["mass"] - mass0) for r in records) / mass0
        if not drift <= MASS_RTOL:
            fails.append(f"mass drift {drift:.3e}")
    if call.integrator == "jko":
        worst_res = max(r["residual"] for r in records)
        if not worst_res <= RESIDUAL_TOL:
            fails.append(f"residual {worst_res:.3e} > {RESIDUAL_TOL}")
    return fails


def _compare(values: dict, ref: dict) -> list:
    if set(values) != set(ref):
        return [f"reference keys {sorted(ref)} != {sorted(values)}"]
    fails = []
    for key, want in ref.items():
        got = values[key]
        if isinstance(want, int) and got != want:
            fails.append(f"{key} = {got}, reference {want}")
        elif abs(got - want) > REFERENCE_RTOL * abs(want) + REFERENCE_ATOL:
            fails.append(f"{key} = {got!r}, reference {want!r}")
    return fails
