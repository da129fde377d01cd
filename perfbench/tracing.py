"""Span tracer for the benchmark's traced run.

While installed, every public module-level function of every loaded gcflow
module, two methods (`RealField.__post_init__`, `DiagnosticsRecord.to_json`)
and the `numpy.fft` transforms are replaced by wrappers that record a span:
name, start, end and parent.  Names bound where they are used are replaced
there too: a function imported into another module (`diagnostics` in `jko`,
`dnorm` in `experiments`, ...) is found by identity, and the
`dynamics._STEPPERS` table is patched in place.  Methods are patched on the
class, which every importing module shares.  Spans live in flat lists
until `layer_metrics` reduces them; `uninstall` restores every original.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time

import numpy as np

FFT_FUNCS = ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft")
STEPPERS = ("imex", "rk4", "rk4_canonical")
SPECTRAL_OPS = ("gradient", "laplacian", "divergence", "convolve", "helmholtz_inverse", "dnorm")
METHODS = (("spectral", "RealField", "__post_init__"), ("dynamics", "DiagnosticsRecord", "to_json"))


def _fft_cost(kind: str):
    """Computed work of one transform: 5 n log2 n flops for a complex
    transform of n points, half that for a real one; bytes are the sizes of
    the input and output arrays."""
    real = kind.startswith(("rfft", "irfft"))
    flops_per = 2.5 if real else 5.0

    def probe(args, result):
        a = np.asarray(args[0])
        n = result.size if kind.startswith("irfft") or not real else a.size
        return flops_per * n * math.log2(max(n, 2)), a.nbytes + result.nbytes
    return probe


def _file_bytes(args, result):
    return os.path.getsize(args[0])


PROBES = {
    "jko.jko_step": lambda args, result: result[1].inner_iters,
    "metric.solve_driving_potential": lambda args, result: result[1].iterations,
    "experiments.volume_sweep": lambda args, result: len(result.points),
    "fieldio.save_binary": _file_bytes,
    "fieldio.save_csv": _file_bytes,
    "fieldio.load_binary": _file_bytes,
    "fieldio.load_csv": _file_bytes,
}
PROBES.update({f"fft.{k}": _fft_cost(k) for k in FFT_FUNCS})


class Tracer:
    def __init__(self):
        self.name, self.parent, self.t0, self.t1, self.value = [], [], [], [], []
        self._stack = [-1]
        self._patches = []

    def clear(self) -> None:
        for lst in (self.name, self.parent, self.t0, self.t1, self.value):
            del lst[:]

    def _wrap(self, label: str, fn):
        name, parent, t0, t1, value, stack = (
            self.name, self.parent, self.t0, self.t1, self.value, self._stack)
        probe = PROBES.get(label)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(label)
            parent.append(stack[-1])
            t1.append(0.0)
            value.append(None)
            stack.append(idx)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = clock()
                stack.pop()
            if probe is not None:
                value[idx] = probe(args, result)
            return result
        return traced

    def _set(self, obj, attr, new) -> None:
        self._patches.append((obj, attr, getattr(obj, attr) if not isinstance(obj, dict)
                              else obj[attr]))
        if isinstance(obj, dict):
            obj[attr] = new
        else:
            setattr(obj, attr, new)

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k.startswith("gcflow.") and m is not None]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        steppers = sys.modules["gcflow.dynamics"]._STEPPERS
        for key, fn in list(steppers.items()):
            self._set(steppers, key, wrapped[fn])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"gcflow.{mod_name}"], cls_name)
            label = f"{mod_name}.{cls_name}.{meth}"
            self._set(cls, meth, self._wrap(label, getattr(cls, meth)))
        for fname in FFT_FUNCS:
            self._set(np.fft, fname, self._wrap(f"fft.{fname}", getattr(np.fft, fname)))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, old = self._patches.pop()
            if isinstance(obj, dict):
                obj[attr] = old
            else:
                setattr(obj, attr, old)

    def __enter__(self):
        self.clear()
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class _Label:
    __slots__ = ("calls", "total", "self_time", "spans")

    def __init__(self):
        self.calls, self.total, self.self_time, self.spans = 0, 0.0, 0.0, []


def reduce_spans(tr: Tracer) -> dict:
    """Per span name: calls, inclusive and self seconds, and for each span its
    (inclusive FFT count, probe value).  Self time is the span's duration
    minus the time covered by its direct children; spans nest strictly, so
    the children never overlap."""
    n = len(tr.name)
    dur = [tr.t1[i] - tr.t0[i] for i in range(n)]
    child = [0.0] * n
    ffts = [0] * n
    for i in range(n - 1, -1, -1):  # children start after, so sit after, their parent
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]
            ffts[p] += ffts[i] + tr.name[i].startswith("fft.")
    labels = {}
    for i in range(n):
        lab = labels.get(tr.name[i])
        if lab is None:
            lab = labels[tr.name[i]] = _Label()
        lab.calls += 1
        lab.total += dur[i]
        lab.self_time += dur[i] - child[i]
        lab.spans.append((ffts[i], tr.value[i]))
    return labels


def _slope(points: list) -> float:
    """FFTs per unit of x from (x, ffts) pairs: the least-squares slope when
    x takes at least two values, otherwise the plain ratio."""
    if not points:
        return 0.0
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if len(set(xs)) < 2:
        return sum(ys) / max(sum(xs), 1)
    n = len(xs)  # integer sums, so an exactly linear count gives an exact slope
    sxy = n * sum(x * y for x, y in zip(xs, ys)) - sum(xs) * sum(ys)
    return sxy / (n * sum(x * x for x in xs) - sum(xs) ** 2)


def layer_metrics(labels: dict) -> dict:
    """Per-layer metrics of one traced sample, as name -> (value, unit)."""
    empty = _Label()

    def get(label):
        return labels.get(label, empty)

    def mean(label, scale):
        lab = get(label)
        return lab.total / lab.calls * scale if lab.calls else 0.0

    m = {}
    fft = [lab for k, lab in labels.items() if k.startswith("fft.")]
    fft_calls = sum(lab.calls for lab in fft)
    m["spectral.fft_calls"] = (fft_calls, "count")
    m["spectral.fft_us"] = (sum(lab.total for lab in fft) / fft_calls * 1e6 if fft_calls else 0.0,
                            "us")
    m["spectral.fft_gflop_computed"] = (
        sum(v[0] for lab in fft for _, v in lab.spans) / 1e9, "GFLOP")
    m["spectral.fft_mb_computed"] = (sum(v[1] for lab in fft for _, v in lab.spans) / 1e6, "MB")
    ops = {op: f"spectral.{op}" for op in SPECTRAL_OPS}
    ops["realfield"] = "spectral.RealField.__post_init__"
    for key, label in ops.items():
        m[f"spectral.{key}_us"] = (mean(label, 1e6), "us")
        m[f"spectral.{key}_calls"] = (get(label).calls, "count")
    m["spectral.self_s"] = (
        sum(lab.self_time for k, lab in labels.items() if k.startswith("spectral.")), "s")

    step_total = get("jko.jko_step").total
    for st in STEPPERS:
        lab = get(f"dynamics.step_{st}")
        step_total += lab.total
        m[f"dynamics.step_{st}_us"] = (mean(f"dynamics.step_{st}", 1e6), "us")
        m[f"dynamics.fft_per_step.{st}"] = (
            sum(f for f, _ in lab.spans) / lab.calls if lab.calls else 0.0, "count")
    m["dynamics.rhs_grand_us"] = (mean("dynamics.rhs_grand", 1e6), "us")
    m["dynamics.rhs_canonical_us"] = (mean("dynamics.rhs_canonical", 1e6), "us")
    diag = get("dynamics.diagnostics")
    m["dynamics.diagnostics_us"] = (mean("dynamics.diagnostics", 1e6), "us")
    m["dynamics.fft_per_record"] = (
        sum(f for f, _ in diag.spans) / diag.calls if diag.calls else 0.0, "count")
    both = diag.total + step_total
    m["dynamics.diagnostics_share"] = (diag.total / both if both else 0.0, "ratio")
    m["dynamics.to_json_us"] = (mean("dynamics.DiagnosticsRecord.to_json", 1e6), "us")

    for fn in ("free_energy_grand", "dissipation", "omega", "potential_phi"):
        m[f"thermo.{fn}_us"] = (mean(f"thermo.{fn}", 1e6), "us")
    m["thermo.make_params_ms"] = (mean("thermo.make_params", 1e3), "ms")
    builds = [get("kernels.make_smoothed_indicator"), get("kernels.make_positive_type")]
    n_builds = sum(b.calls for b in builds)
    m["kernels.build_ms"] = (sum(b.total for b in builds) / n_builds * 1e3 if n_builds else 0.0,
                             "ms")

    jko = get("jko.jko_step")
    ok = [(v, f) for f, v in jko.spans if v is not None]
    inner = sum(v for v, _ in ok)
    m["jko.step_ms"] = (mean("jko.jko_step", 1e3), "ms")
    m["jko.inner_iters"] = (inner, "count")
    m["jko.inner_iters_max"] = (max((v for v, _ in ok), default=0), "count")
    m["jko.us_per_inner_iter"] = (jko.total / inner * 1e6 if inner else 0.0, "us")
    m["jko.fft_per_inner_iter"] = (_slope(ok), "count")
    m["jko.residual_us"] = (mean("jko.residual_implicit", 1e6), "us")
    m["jko.accept_ratio"] = (len(ok) / jko.calls if jko.calls else 0.0, "ratio")

    pcg = get("metric.solve_driving_potential")
    solves = [(v, f) for f, v in pcg.spans if v is not None]
    iters = sum(v for v, _ in solves)
    m["metric.pcg_solves"] = (pcg.calls, "count")
    m["metric.pcg_iters"] = (iters, "count")
    m["metric.pcg_iters_per_solve"] = (iters / pcg.calls if pcg.calls else 0.0, "count")
    m["metric.pcg_us_per_iter"] = (pcg.total / iters * 1e6 if iters else 0.0, "us")
    m["metric.fft_per_pcg_iter"] = (_slope(solves), "count")
    m["metric.path_ms"] = (mean("metric.path_distance_upper", 1e3), "ms")

    m["experiments.fit_us"] = (mean("experiments.fit_decay_rate", 1e6), "us")
    sweep = get("experiments.volume_sweep")
    points = sum(v for _, v in sweep.spans if v is not None)
    m["experiments.sweep_point_s"] = (sweep.total / points if points else 0.0, "s")

    io_bytes = 0
    for fn in ("load_binary", "load_csv", "save_binary", "save_csv"):
        lab = get(f"fieldio.{fn}")
        io_bytes += sum(v for _, v in lab.spans if v is not None)
        m[f"fieldio.{fn}_us"] = (mean(f"fieldio.{fn}", 1e6), "us")
    m["fieldio.bytes"] = (io_bytes, "B")
    m["config.load_us"] = (mean("config.load_config", 1e6), "us")
    return m
