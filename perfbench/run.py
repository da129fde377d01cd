"""gcflow benchmark: drives the `gcflow` CLI in-process on one workload.

    python3 perfbench/run.py --workload relax --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout (gcflow is imported from `src/`).
With `--trace 0` the last stdout line reports the end-to-end metrics, in
reference seconds (see calibration.py); with `--trace 1` it reports the
per-layer metrics of a traced run.  Earlier
stdout lines hold the run manifest and per-call details.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 7
EXACT_UNITS = ("count", "B")  # counted, not timed: identical in every traced sample
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

import workloads  # noqa: E402  (stdlib only; sits next to this file)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="reduced sizes (smoke test)")
    p.add_argument("--setup-probe", metavar="WORKDIR",
                   help="internal: time one cold set-up in WORKDIR and print seconds")
    return p.parse_args(argv)


def run_call(main, argv):
    """One in-process CLI call; returns (exit code or exception text, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except Exception as exc:  # a traceback is a failed operation, not a crash
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


class Runner:
    """Runs and checks the calls of one workload; counts operations."""

    def __init__(self, inputs, mass0, reference):
        from gcflow import cli
        self.main = cli.main
        self.calibrate = False  # time calibration chunks around each call
        self.scaled = []  # per sample: wall time in reference seconds
        self.chunks = []  # every calibration chunk time
        self.inputs = inputs
        self.mass0 = mass0
        self.reference = reference
        self.attempted = 0
        self.failures = []
        self.call_walls = {c.name: [] for c in inputs.calls}
        self.ndjson_bytes = 0
        self.summaries = {}

    def sample(self) -> float:
        """All calls of the workload once; returns their summed wall time.
        Calibration chunks before each call and after the last, and the
        output checks after each call, run outside the timed region."""
        import calibration  # imports numpy, which gcflow has loaded by now
        wall = 0.0
        self.ndjson_bytes = 0
        chunks = []
        for call in self.inputs.calls:
            argv = self.inputs.argv(call)
            if self.calibrate:
                chunks += calibration.chunk_times()
            t0 = time.perf_counter()
            code, stdout = run_call(self.main, argv)
            dt = time.perf_counter() - t0
            wall += dt
            self.call_walls[call.name].append(dt)
            self.attempted += 1
            fails, self.summaries[call.name] = workloads.check_call(
                call, self.inputs, code, stdout, self.mass0[call.name], self.reference)
            if fails:
                self.failures.append({"call": call.name, "checks": fails})
            if call.command == "evolve" and os.path.exists(self.inputs.ndjson(call)):
                self.ndjson_bytes += os.path.getsize(self.inputs.ndjson(call))
        if self.calibrate:
            chunks += calibration.chunk_times()
            self.scaled.append(wall * calibration.factor(chunks))
            self.chunks += chunks
        return wall


def load_reference(args):
    if args.seed != workloads.DEFAULT_SEED or args.tiny:
        return None
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)[args.workload]


def setup_probe_times(args, workdir) -> tuple:
    """Cold set-ups, each in a fresh interpreter: import gcflow, load and
    build every config, write the generated fields.  Returns the raw
    seconds and the calibration factor each probe measured after its
    set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", workdir] + (["--tiny"] if args.tiny else [])
    times, factors = [], []
    for _ in range(SETUP_REPS):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-500:]}")
        seconds, fac = res.stdout.strip().splitlines()[-1].split()
        times.append(float(seconds))
        factors.append(float(fac))
    return times, factors


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(os.path.join(ROOT, ".git", ref)).strip()
        if not sha:
            for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown (not a git checkout)"


def llc_bytes() -> int | None:
    """Size of the highest cache level of cpu0, or None where sysfs is hidden."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = os.listdir(base)
    except OSError:
        return None
    best = (0, None)
    for idx in entries:
        size = _read(os.path.join(base, idx, "size")).strip()
        level = _read(os.path.join(base, idx, "level")).strip()
        if size.endswith("K") and level.isdigit() and int(level) >= best[0]:
            best = (int(level), int(size[:-1]) * 1024)
    return best[1]


def manifest(args, calls) -> dict:
    import numpy
    import scipy
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    largest = max(c.M ** c.d * (max(c.axis) if c.axis else 1) for c in calls)
    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "working_set": {
            "basis": "computed from grid sizes: one float64 field, one complex128 spectrum",
            "largest_grid_points": largest,
            "field_bytes": 8 * largest,
            "spectrum_bytes": 16 * largest,
            "llc_bytes": llc_bytes(),
            "note": "every field fits in the last-level cache; no bandwidth figure is claimed",
        },
    }


def end_to_end(runner, setup_times, setup_factors) -> dict:
    """Times in reference seconds (calibration.py): each wall sample scaled
    by the chunks timed around its calls, each set-up probe by the chunks
    it timed after its set-up; then the medians."""
    wall = statistics.median(runner.scaled)
    setup = statistics.median(t * f for t, f in zip(setup_times, setup_factors))
    steps = sum(c.total_steps for c in runner.inputs.calls)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "steps_per_s": {"value": steps / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "setup_s": {"value": setup, "unit": "s"},
    }


def traced_metrics(runner, deadline) -> tuple:
    """Alternate untraced and traced samples until the deadline; a traced
    sample covers one in-process set-up plus every call of the workload."""
    import tracing  # imports numpy, so not at the top: set-up probes time that
    tracer = tracing.Tracer()
    untraced, traced, layers = [], [], []
    while True:
        untraced.append(runner.sample())
        with tracer:
            workloads.setup(runner.inputs)
            traced.append(runner.sample())
        m = tracing.layer_metrics(tracing.reduce_spans(tracer))
        tracer.clear()
        m["cli.ndjson_bytes"] = (runner.ndjson_bytes, "B")
        layers.append(m)
        if time.perf_counter() >= deadline:
            break
    metrics = {}
    for k, (_, unit) in layers[0].items():
        pick = statistics.median_low if unit in EXACT_UNITS else statistics.median
        metrics[k] = {"value": pick(s[k][0] for s in layers), "unit": unit}
    overhead = (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100.0
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return metrics, {"traced_samples": len(traced), "untraced_samples": len(untraced)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gcflow", "__init__.py")):
        print(f"perfbench: gcflow sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    calls = workloads.calls_for(args.workload, args.tiny)

    if args.setup_probe:
        inputs = workloads.Inputs(args.setup_probe, calls, args.seed)
        t0 = time.perf_counter()
        import gcflow.cli  # noqa: F401  (the import a CLI user pays)
        workloads.setup(inputs)
        seconds = time.perf_counter() - t0
        import calibration  # after the timed import: it imports numpy
        print(seconds, calibration.factor(calibration.chunk_times(2 * calibration.CHUNKS_PER_GAP)))
        return 0

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    try:
        return measure(args, calls, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def measure(args, calls, workdir) -> int:
    import gcflow.cli  # noqa: F401

    inputs = workloads.Inputs(os.path.join(workdir, "run"), calls, args.seed)
    inputs.write_configs()
    mass0 = workloads.setup(inputs)
    runner = Runner(inputs, mass0, load_reference(args))
    detail = {}
    if not args.trace:
        probe = workloads.Inputs(os.path.join(workdir, "probe"), calls, args.seed)
        probe.write_configs()
        setup_times, setup_factors = setup_probe_times(args, probe.workdir)
        runner.calibrate = True
    runner.sample()  # warm-up and first output check; not timed
    runner.scaled.clear()
    runner.chunks.clear()
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        metrics, detail = traced_metrics(runner, deadline)
    else:
        walls = []
        while True:
            walls.append(runner.sample())
            if time.perf_counter() >= deadline:
                break
        metrics = end_to_end(runner, setup_times, setup_factors)
        detail = {"wall_samples": len(walls), "wall_s_samples_raw": walls,
                  "wall_factors": [s / w for s, w in zip(runner.scaled, walls)],
                  "calibration_chunks": len(runner.chunks),
                  "calibration_chunk_median_s": statistics.median(runner.chunks),
                  "setup_s_samples_raw": setup_times, "setup_factors": setup_factors}
    failed = len(runner.failures)
    detail.update({
        "per_call_median_s": {k: statistics.median(v) for k, v in runner.call_walls.items()},
        "error_rate": failed / runner.attempted,
        "failures": runner.failures[:10],
        "summaries": runner.summaries,
    })
    print(json.dumps({"manifest": manifest(args, calls)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
