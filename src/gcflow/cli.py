"""Command-line entry point.

Subcommands: evolve, jko-study, sweep, distance, kernel-info, check.
Exit codes: 0 success, 1 numerical failure, 2 configuration or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__, dynamics, experiments, fieldio, kernels, metric, selftest
from .config import build_band_state, build_initial_state, build_params, load_config
from .errors import ConfigError, GcflowError

SCHEMA_VERSION = "diagnostics-ndjson/1"
FIELD_FORMAT = "GCF1"


def _fail(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def _floats(flag: str, text: str) -> tuple:
    try:
        return tuple(float(s) for s in text.split(","))
    except ValueError:
        raise ConfigError(flag, f"expected comma-separated numbers, got {text!r}") from None


def _load_field(path: str, grid):
    """The field stored at `path`, which must lie on the config's `grid`."""
    try:
        f = fieldio.load_binary(path) if path.endswith(".bin") else fieldio.load_csv(path)[0]
    except (OSError, ValueError) as exc:  # unreadable file or non-finite samples
        raise ConfigError(path, str(exc)) from None
    if f.grid != grid:
        raise ConfigError(path, f"field on {f.grid}, config on {grid}")
    return f


def _load_run(path: str):
    """The config of a command that marches from t = 0 to T."""
    cfg = load_config(path)
    if not cfg.T > 0:
        raise ConfigError("run.T", "must be positive for this command")
    return cfg


def _open_out(out_dir: str, name: str):
    try:
        os.makedirs(out_dir, exist_ok=True)
        return open(os.path.join(out_dir, name), "w")
    except OSError as exc:
        raise ConfigError("run.out_dir", str(exc)) from None


def cmd_evolve(args) -> int:
    cfg = _load_run(args.config)
    params = build_params(cfg)
    state = build_initial_state(cfg, params)
    h = cfg.h
    if h is None:
        k_head = 2.0 * np.pi * (cfg.M // 2 - 1) / cfg.L
        h = dynamics.default_h(params, experiments.linearized_rate(k_head, params),
                               cfg.integrator)
    sink = _open_out(cfg.out_dir, "diag.ndjson") if not args.stdout else sys.stdout

    def emit(step, state, rec):
        if rec is not None:
            print(rec.to_json(), file=sink)

    try:
        traj = dynamics.evolve(state, cfg.T, h, cfg.integrator, stride=cfg.stride,
                               observers=[emit], jko=cfg.jko)
    finally:
        if sink is not sys.stdout:
            sink.close()
    if traj.error is not None:
        raise traj.error
    final = traj.records[-1]
    print(json.dumps({"t": final.t, "gap": final.gap, "mass": final.mass,
                      "records": len(traj.records)}))
    return 0


def cmd_jko_study(args) -> int:
    cfg = _load_run(args.config)
    params = build_params(cfg)
    state = build_initial_state(cfg, params)
    h_list = _floats("--h-list", args.h_list)
    report = experiments.jko_convergence_study(state, cfg.T, h_list, cfg.jko)
    print(json.dumps({
        "h": [p.h for p in report.points],
        "endpoint_d0": [p.endpoint_d0 for p in report.points],
        "endpoint_d1": [p.endpoint_d1 for p in report.points],
        "sup_d0": [p.sup_d0 for p in report.points],
        "order_d0": report.order_d0,
        "h_ref": report.h_ref,
        "b0": report.b0,
    }))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_run(args.config)
    if not args.axis.startswith("L="):
        raise ConfigError("--axis", "expected L=<comma-separated values>")
    L_values = _floats("--axis", args.axis[2:])
    states = []
    for L in L_values:  # a box per L at the config's points per unit length
        M = round(cfg.M * L) if math.isfinite(L) else 0
        if M < 8 or M & (M - 1):
            raise ConfigError("--axis", f"L={L} gives M={M}, not a power of two >= 8")
        box = dataclasses.replace(cfg, L=L, M=M)
        states.append(build_band_state(box, build_params(box)))
    h = cfg.h if cfg.h is not None else 2e-3
    report = experiments.volume_sweep(states, cfg.T, h, cfg.integrator, cfg.jko)
    print(json.dumps(report.to_dict()))
    return 0


def cmd_distance(args) -> int:
    if args.segments < 2:
        raise ConfigError("--segments", f"need at least 2, got {args.segments}")
    cfg = load_config(args.config)
    params = build_params(cfg)
    na, nb = _load_field(args.field_a, params.grid), _load_field(args.field_b, params.grid)
    h = cfg.h if cfg.h is not None else 1e-3
    d_a, rep = metric.approx_distance(na, nb, h, params)
    path = metric.path_distance_upper(na, nb, args.segments, params)
    print(json.dumps({
        "d_a": d_a,
        "path_upper_sq": path.value_sq,
        "segments": path.segments,
        "solver": {"iterations": rep.iterations,
                   "relative_residual": rep.relative_residual},
    }))
    return 0


def cmd_kernel_info(args) -> int:
    cfg = load_config(args.config)
    params = build_params(cfg)
    print(json.dumps(kernels.stats_json(params.kernel)))
    return 0


def cmd_check(args) -> int:
    results = selftest.run_checks()
    ok = True
    for name, passed, detail in results:
        status = "ok" if passed else "FAIL"
        print(f"{status:4s}  {name:24s}  {detail}")
        ok = ok and passed
    print(f"{sum(p for _, p, _ in results)}/{len(results)} checks passed")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gcflow")
    p.add_argument("--version", action="version",
                   version=f"gcflow {__version__} "
                           f"(schema {SCHEMA_VERSION}, fields {FIELD_FORMAT})")
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("evolve", help="run one trajectory")
    sp.add_argument("--config", required=True)
    sp.add_argument("--stdout", action="store_true",
                    help="write NDJSON diagnostics to stdout instead of out_dir")
    sp.set_defaults(fn=cmd_evolve)

    sp = sub.add_parser("jko-study", help="h-refinement study of the variational integrator")
    sp.add_argument("--config", required=True)
    sp.add_argument("--h-list", default="4e-3,2e-3,1e-3")
    sp.set_defaults(fn=cmd_jko_study)

    sp = sub.add_parser("sweep", help="volume sweep experiment")
    sp.add_argument("--config", required=True)
    sp.add_argument("--axis", default="L=1,2,4")
    sp.set_defaults(fn=cmd_sweep)

    sp = sub.add_parser("distance", help="metric between two stored fields")
    sp.add_argument("field_a")
    sp.add_argument("field_b")
    sp.add_argument("--config", required=True)
    sp.add_argument("--segments", type=int, default=16)
    sp.set_defaults(fn=cmd_distance)

    sp = sub.add_parser("kernel-info", help="print kernel statistics as JSON")
    sp.add_argument("--config", required=True)
    sp.set_defaults(fn=cmd_kernel_info)

    sp = sub.add_parser("check", help="run the self-test battery")
    sp.set_defaults(fn=cmd_check)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0) and 2
    if getattr(args, "command", None) is None:
        return _fail("UsageError", "no subcommand given", 2)
    try:
        return args.fn(args)
    except ConfigError as exc:
        return _fail("ConfigError", str(exc), 2)
    except GcflowError as exc:
        return _fail(type(exc).__name__, str(exc), 1)
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        return _fail(type(exc).__name__, str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
