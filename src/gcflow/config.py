"""Run configuration: flat sections of key = value, parsed with configparser.

Grammar (INI-style)::

    [grid]
    d = 1            # 1 or 2
    L = 1.0
    M = 64           # power of two

    [model]
    kappa = 0.4
    m0 = 0.05        # exactly one of m0 / mu

    [kernel]
    family = smoothed_indicator   # or positive_type
    amplitude = 1.0
    radius = 0.1                  # smoothed_indicator only
    mollifier_width = 0.02        # smoothed_indicator only
    width = 0.1                   # positive_type only

    [run]
    integrator = imex             # imex | rk4 | rk4_canonical | jko
    h = 0.001                     # omit for the default step size
    T = 1.0
    stride = 1
    out_dir = out
    seed = 0

    [initial]
    kind = uniform                # uniform | single_mode | random_band
    mode = 1                      # single_mode
    eps = 0.001                   # single_mode
    k_c = 3                       # random_band
    amp = 0.25                    # random_band

    [jko]
    inner_tol = 1e-12
    max_inner = 200
    residual_tol = 1e-9
    relaxation = 1.0
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field

from . import problems, thermo
from .dynamics import SimState
from .errors import ConfigError
from .jko import JkoConfig
from .spectral import Grid
from .thermo import ModelParams


@dataclass(frozen=True)
class KernelSpec:
    family: str
    amplitude: float
    radius: float | None = None
    mollifier_width: float | None = None
    width: float | None = None


@dataclass(frozen=True)
class InitialSpec:
    kind: str  # uniform | single_mode | random_band
    mode: int = 1
    eps: float = 1e-3
    k_c: int = 3
    amp: float = 0.25


@dataclass(frozen=True)
class RunConfig:
    d: int
    L: float
    M: int
    kappa: float
    mu: float | None
    m0: float | None
    kernel: KernelSpec
    integrator: str = "imex"
    h: float | None = None
    T: float = 1.0
    stride: int = 1
    out_dir: str = "out"
    seed: int = 0
    initial: InitialSpec = field(default_factory=lambda: InitialSpec("uniform"))
    jko: JkoConfig = field(default_factory=lambda: JkoConfig(h=1e-3))


def _get(cp: configparser.ConfigParser, section: str, key: str, cast, default=None):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}", f"cannot parse {raw!r}") from None


def _require(cp: configparser.ConfigParser, section: str, key: str, cast):
    if not cp.has_option(section, key):
        raise ConfigError(f"{section}.{key}", "missing required key")
    return _get(cp, section, key, cast)


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("<file>", f"parse error: {exc}") from None
    for sec in ("grid", "model", "kernel"):
        if not cp.has_section(sec):
            raise ConfigError(sec, "missing required section")

    d = _require(cp, "grid", "d", int)
    L = _require(cp, "grid", "L", float)
    M = _require(cp, "grid", "M", int)
    if d not in (1, 2):
        raise ConfigError("grid.d", "must be 1 or 2")
    if M < 8 or (M & (M - 1)) != 0:
        raise ConfigError("grid.M", "must be a power of two >= 8")
    if L <= 0:
        raise ConfigError("grid.L", "must be positive")

    kappa = _require(cp, "model", "kappa", float)
    if not 0.0 < kappa < 0.5:
        raise ConfigError("model.kappa", "must lie in (0, 1/2)")
    mu = _get(cp, "model", "mu", float)
    m0 = _get(cp, "model", "m0", float)
    if (mu is None) == (m0 is None):
        raise ConfigError("model.mu/m0", "exactly one of mu, m0 must be set")
    if m0 is not None and m0 <= 0:
        raise ConfigError("model.m0", "must be positive")

    family = _require(cp, "kernel", "family", str)
    if family == "smoothed_indicator":
        kern = KernelSpec(
            family,
            _require(cp, "kernel", "amplitude", float),
            radius=_require(cp, "kernel", "radius", float),
            mollifier_width=_require(cp, "kernel", "mollifier_width", float),
        )
    elif family == "positive_type":
        kern = KernelSpec(
            family,
            _require(cp, "kernel", "amplitude", float),
            width=_require(cp, "kernel", "width", float),
        )
    else:
        raise ConfigError("kernel.family", f"unknown family {family!r}")

    integrator = _get(cp, "run", "integrator", str, "imex")
    if integrator not in ("imex", "rk4", "rk4_canonical", "jko"):
        raise ConfigError("run.integrator", f"unknown integrator {integrator!r}")
    initial_kind = _get(cp, "initial", "kind", str, "uniform")
    if initial_kind not in ("uniform", "single_mode", "random_band"):
        raise ConfigError("initial.kind", f"unknown kind {initial_kind!r}")
    h = _get(cp, "run", "h", float)
    jko_cfg = JkoConfig(
        h=h if h is not None else 1e-3,
        inner_tol=_get(cp, "jko", "inner_tol", float, 1e-12),
        max_inner=_get(cp, "jko", "max_inner", int, 200),
        residual_tol=_get(cp, "jko", "residual_tol", float, 1e-9),
        relaxation=_get(cp, "jko", "relaxation", float, 1.0),
    )
    return RunConfig(
        d=d, L=L, M=M, kappa=kappa, mu=mu, m0=m0, kernel=kern,
        integrator=integrator, h=h,
        T=_get(cp, "run", "T", float, 1.0),
        stride=_get(cp, "run", "stride", int, 1),
        out_dir=_get(cp, "run", "out_dir", str, "out"),
        seed=_get(cp, "run", "seed", int, 0),
        initial=InitialSpec(
            kind=initial_kind,
            mode=_get(cp, "initial", "mode", int, 1),
            eps=_get(cp, "initial", "eps", float, 1e-3),
            k_c=_get(cp, "initial", "k_c", int, 3),
            amp=_get(cp, "initial", "amp", float, 0.25),
        ),
        jko=jko_cfg,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(path, str(exc)) from None
    return parse_config(text)


def dump_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig; parse_config(dump_config(c)) == c."""
    cp = configparser.ConfigParser()
    cp["grid"] = {"d": str(cfg.d), "L": repr(cfg.L), "M": str(cfg.M)}
    model = {"kappa": repr(cfg.kappa)}
    if cfg.mu is not None:
        model["mu"] = repr(cfg.mu)
    else:
        model["m0"] = repr(cfg.m0)
    cp["model"] = model
    kern = {"family": cfg.kernel.family, "amplitude": repr(cfg.kernel.amplitude)}
    if cfg.kernel.family == "smoothed_indicator":
        kern["radius"] = repr(cfg.kernel.radius)
        kern["mollifier_width"] = repr(cfg.kernel.mollifier_width)
    else:
        kern["width"] = repr(cfg.kernel.width)
    cp["kernel"] = kern
    run = {
        "integrator": cfg.integrator,
        "T": repr(cfg.T),
        "stride": str(cfg.stride),
        "out_dir": cfg.out_dir,
        "seed": str(cfg.seed),
    }
    if cfg.h is not None:
        run["h"] = repr(cfg.h)
    cp["run"] = run
    cp["initial"] = {
        "kind": cfg.initial.kind,
        "mode": str(cfg.initial.mode),
        "eps": repr(cfg.initial.eps),
        "k_c": str(cfg.initial.k_c),
        "amp": repr(cfg.initial.amp),
    }
    cp["jko"] = {
        "inner_tol": repr(cfg.jko.inner_tol),
        "max_inner": str(cfg.jko.max_inner),
        "residual_tol": repr(cfg.jko.residual_tol),
        "relaxation": repr(cfg.jko.relaxation),
    }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def build_params(cfg: RunConfig) -> ModelParams:
    grid = Grid.make(cfg.d, cfg.L, cfg.M)
    if cfg.kernel.family == "smoothed_indicator":
        kern = problems.make_kernel(
            grid, "smoothed_indicator",
            amplitude=cfg.kernel.amplitude, radius=cfg.kernel.radius,
            mollifier_width=cfg.kernel.mollifier_width,
        )
    else:
        kern = problems.make_kernel(
            grid, "positive_type",
            amplitude=cfg.kernel.amplitude, width=cfg.kernel.width,
        )
    return thermo.make_params(grid, kern, cfg.kappa, mu=cfg.mu, m0=cfg.m0)


def build_initial_state(cfg: RunConfig, params: ModelParams) -> SimState:
    ic = cfg.initial
    if ic.kind == "uniform":
        return problems.uniform_state(params)
    if ic.kind == "single_mode":
        return problems.single_mode_state(params, ic.mode, ic.eps)
    return problems.random_band_state(params, ic.k_c, ic.amp, cfg.seed)
