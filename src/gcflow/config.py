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
    integrator = imex             # imex | rk4 | rk4_canonical | jko (evolve and sweep)
    h = 0.001                     # omit for the default step size (jko: 1e-3)
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

    [jko]                         # solver tolerances of the jko step; its size is [run] h
    inner_tol = 1e-12
    max_inner = 200
    residual_tol = 1e-9

Key names are case-insensitive.  An unknown section or key, a value that does
not parse (or is not finite) or fails its check, and a missing required key
raise ConfigError naming `section.key`; so does, in `build_params`, a kernel
that does not fit the box or an m0/mu without a representable uniform state,
and, in `build_initial_state`, a single-mode eps that makes the density
nonpositive or a random-band k_c outside 0..M/2.  `build_params` is the one
builder of a model from config values: `gcflow sweep` calls it on each box, a
copy of the config with `L` from its axis and `M` scaled by L (the config's M
is read as points per unit length), and builds the box's random-band state
with `build_band_state`, which checks k_c against the box's M.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import MISSING, dataclass, field, fields

from . import kernels, problems, thermo
from .dynamics import SimState
from .errors import (BadMollifier, ConfigError, NoConvergence, PositivityLoss,
                     RangeTooLarge, WidthTooLarge)
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
    kind: str = "uniform"  # uniform | single_mode | random_band
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
    kernel: KernelSpec
    mu: float | None = None
    m0: float | None = None
    integrator: str = "imex"
    h: float | None = None
    T: float = 1.0
    stride: int = 1
    out_dir: str = "out"
    seed: int = 0
    initial: InitialSpec = field(default_factory=InitialSpec)
    jko: JkoConfig = field(default_factory=JkoConfig)


def _finite(raw: str) -> float:
    if not math.isfinite(value := float(raw)):
        raise ValueError(raw)
    return value


def _check(ok, reason: str):
    """A check: `reason` for a value that fails `ok`, None for one that passes."""
    return lambda v: None if ok(v) else reason


def _one_of(*allowed):
    return _check(lambda v: v in allowed, "must be one of " + ", ".join(map(str, allowed)))


_POSITIVE = _check(lambda v: v > 0, "must be positive")
_NONNEGATIVE = _check(lambda v: v >= 0, "must be nonnegative")

# [kernel] keys of one family; each is required with its family
_FAMILY_KEYS = {"smoothed_indicator": {"radius": (_finite, _POSITIVE),
                                       "mollifier_width": (_finite, _POSITIVE)},
                "positive_type": {"width": (_finite, _POSITIVE)}}
# Each key once: section -> (dataclass it fills, key -> (parser, check)); a key's
# default is its field's.  [kernel], [initial] and [jko] fill those RunConfig fields
_SECTIONS = {
    "grid": (RunConfig, {"d": (int, _one_of(1, 2)), "L": (_finite, _POSITIVE),
        "M": (int, _check(lambda m: m >= 8 and not m & (m - 1), "must be a power of two >= 8"))}),
    "model": (RunConfig, {"mu": (_finite, None), "m0": (_finite, _POSITIVE),
        "kappa": (_finite, _check(lambda k: 0.0 < k < 0.5, "must lie in (0, 1/2)"))}),
    "kernel": (KernelSpec, {"family": (str, _one_of(*_FAMILY_KEYS)),
        "amplitude": (_finite, _NONNEGATIVE)}),
    "run": (RunConfig, {"integrator": (str, _one_of("imex", "rk4", "rk4_canonical", "jko")),
        "h": (_finite, _POSITIVE), "T": (_finite, _NONNEGATIVE), "stride": (int, _POSITIVE),
        "out_dir": (str, _check(bool, "must not be empty")), "seed": (int, _NONNEGATIVE)}),
    "initial": (InitialSpec, {"kind": (str, _one_of("uniform", "single_mode", "random_band")),
        "mode": (int, None), "eps": (_finite, None), "k_c": (int, None), "amp": (_finite, None)}),
    "jko": (JkoConfig, {"inner_tol": (_finite, _POSITIVE), "max_inner": (int, _POSITIVE),
        "residual_tol": (_finite, _POSITIVE)}),
}


def _keys(section: str, family: str | None) -> tuple[dict, set]:
    """The keys `section` takes, and those it requires (no field default, or of the family)."""
    cls, keys = _SECTIONS[section]
    own = _FAMILY_KEYS.get(family, {}) if section == "kernel" else {}
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    return {**keys, **own}, required | set(own)


def _read(cp: configparser.ConfigParser, section: str, family: str | None) -> dict:
    """Parsed and checked values of the keys that `section` sets."""
    keys, required = _keys(section, family)
    given = cp[section] if cp.has_section(section) else {}
    values = {}
    for key, (parse, check) in keys.items():
        raw = given.get(key)
        if raw is None and key in required:
            raise ConfigError(f"{section}.{key}", "missing required key")
        if raw is None:
            continue
        try:
            values[key] = parse(raw)
        except ValueError:
            raise ConfigError(f"{section}.{key}", f"cannot parse {raw!r}") from None
        reason = check(values[key]) if check else None
        if reason:
            raise ConfigError(f"{section}.{key}", reason)
    for key in given:
        if key not in {k.lower() for k in keys}:
            raise ConfigError(f"{section}.{key}", f"unknown key; known: {', '.join(keys)}")
    return values


def parse_config(text: str) -> RunConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("<file>", f"parse error: {exc}") from None
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(section, f"unknown section; sections are {', '.join(_SECTIONS)}")
    family = cp.get("kernel", "family", fallback=None)
    values = {section: _read(cp, section, family) for section in _SECTIONS}
    if ("mu" in values["model"]) == ("m0" in values["model"]):
        raise ConfigError("model.mu/m0", "exactly one of mu, m0 must be set")
    return RunConfig(**values["grid"], **values["model"], **values["run"],
                     kernel=KernelSpec(**values["kernel"]),
                     initial=InitialSpec(**values["initial"]),
                     jko=JkoConfig(**values["jko"]))


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(path, str(exc)) from None


def dump_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig; parse_config(dump_config(c)) == c."""
    cp = configparser.ConfigParser(interpolation=None)
    for section, (cls, _) in _SECTIONS.items():
        obj = cfg if cls is RunConfig else getattr(cfg, section)
        values = {key: getattr(obj, key) for key in _keys(section, cfg.kernel.family)[0]}
        cp[section] = {key: str(v) for key, v in values.items() if v is not None}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# the [kernel] key behind each kernel geometry error
_KERNEL_ERROR_KEYS = {RangeTooLarge: "kernel.radius", BadMollifier: "kernel.mollifier_width",
                      WidthTooLarge: "kernel.width"}


def build_params(cfg: RunConfig) -> ModelParams:
    """The model of `cfg`; a value that cannot make one is a ConfigError."""
    grid = Grid.make(cfg.d, cfg.L, cfg.M)
    k = cfg.kernel
    try:
        if k.family == "smoothed_indicator":
            kern = kernels.make_smoothed_indicator(grid, k.amplitude, k.radius,
                                                   k.mollifier_width)
        else:
            kern = kernels.make_positive_type(grid, k.amplitude, k.width)
    except tuple(_KERNEL_ERROR_KEYS) as exc:  # the kernel does not fit the box
        raise ConfigError(_KERNEL_ERROR_KEYS[type(exc)], str(exc)) from None
    try:
        return thermo.make_params(grid, kern, cfg.kappa, mu=cfg.mu, m0=cfg.m0)
    except (ValueError, ArithmeticError, NoConvergence) as exc:  # no uniform state fits
        raise ConfigError("model.mu" if cfg.mu is not None else "model.m0",
                          str(exc)) from None


def build_initial_state(cfg: RunConfig, params: ModelParams) -> SimState:
    ic = cfg.initial
    if ic.kind == "uniform":
        return problems.uniform_state(params)
    if ic.kind == "single_mode":
        try:
            return problems.single_mode_state(params, ic.mode, ic.eps)
        except PositivityLoss as exc:  # eps drives the density nonpositive before any step
            raise ConfigError("initial.eps", str(exc)) from None
    return build_band_state(cfg, params)


def build_band_state(cfg: RunConfig, params: ModelParams) -> SimState:
    """The random-band state of `cfg` on the grid of `params`; the band edge
    k_c must lie in 0..M/2, the grid's Nyquist mode, or ConfigError."""
    k_c, nyquist = cfg.initial.k_c, params.grid.M // 2
    if not 0 <= k_c <= nyquist:
        raise ConfigError("initial.k_c", f"must lie in 0..M/2 = {nyquist}, got {k_c}")
    return problems.random_band_state(params, k_c, cfg.initial.amp, cfg.seed)
