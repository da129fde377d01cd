"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload emits every metric named in BENCHMARK.json with
its unit, in both modes, and that each output check rejects a deliberately
perturbed output.
"""

import json
import os
import subprocess
import sys

import pytest

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args) -> dict:
    res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--tiny",
                          "--seconds", "0.1", *args],
                         capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_emitted_with_unit(workload, trace, key):
    out = bench("--workload", workload, "--seed", "3", "--trace", trace)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One passing run of every tiny call: (call, inputs, stdout, mass0)."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import run
    from gcflow import cli

    res = {}
    for name in sorted(workloads.WORKLOADS):
        inputs = workloads.Inputs(str(tmp_path_factory.mktemp(name)),
                                  workloads.calls_for(name, tiny=True), 3)
        inputs.write_configs()
        mass0 = workloads.setup(inputs)
        for call in inputs.calls:
            code, stdout = run.run_call(cli.main, inputs.argv(call))
            assert code == 0
            res[call.name] = (call, inputs, stdout, mass0[call.name])
    return res


def _edit_stdout(stdout, fn):
    out = json.loads(stdout.strip().splitlines()[-1])
    fn(out)
    return json.dumps(out)


def _edit_ndjson(inputs, call, fn):
    path = inputs.ndjson(call)
    records = workloads.read_ndjson(path)
    fn(records)
    with open(path, "w") as fh:
        fh.write("".join(json.dumps(r) + "\n" for r in records))


def test_unperturbed_outputs_pass(outputs):
    for call, inputs, stdout, mass0 in outputs.values():
        assert workloads.check_call(call, inputs, 0, stdout, mass0, None)[0] == []


def test_perturbed_outputs_fail(outputs):
    def fails(name, stdout_edit=None, code=0, reference=None):
        call, inputs, stdout, mass0 = outputs[name]
        if stdout_edit:
            stdout = _edit_stdout(stdout, stdout_edit)
        return workloads.check_call(call, inputs, code, stdout, mass0, reference)[0]

    assert fails("imex_d2", code=1)
    assert fails("imex_d2", lambda o: o.update(t=o["t"] + 1e-6))
    assert fails("sweep_d1", lambda o: o["points"][0].update(lambda_hat=-1.0))
    assert fails("distance_d2", lambda o: o.update(path_upper_sq=float("nan")))
    assert fails("distance_d2", lambda o: o.update(d_a=0.0))

    call, inputs, stdout, mass0 = outputs["sweep_d1"]
    values = workloads.check_call(call, inputs, 0, stdout, mass0, None)[1]
    ref = {call.name: dict(values)}
    assert fails("sweep_d1", reference=ref) == []
    assert fails("sweep_d1", lambda o: o.update(max_ratio=1.2), reference=ref)
    ref[call.name]["max_ratio"] = values["max_ratio"] * (1 + 1e-4)
    assert fails("sweep_d1", reference=ref)


@pytest.mark.parametrize("name,edit", [
    ("imex_d2", lambda rs: rs[-1].update(g_mu=rs[-2]["g_mu"] + 1e-6)),
    ("rk4_canonical_d1", lambda rs: rs[-1].update(mass=rs[-1]["mass"] * (1 + 1e-8))),
    ("jko_d1", lambda rs: rs[0].update(residual=1e-8)),
])
def test_perturbed_records_fail(outputs, name, edit):
    call, inputs, stdout, mass0 = outputs[name]
    _edit_ndjson(inputs, call, edit)
    assert workloads.check_call(call, inputs, 0, stdout, mass0, None)[0]
