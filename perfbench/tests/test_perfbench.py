"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(1, os.path.join(ROOT, "src"))

import common  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("module_cold", "large_fn", "service_mix")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, *extra, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
        env={**os.environ, **(env or {})},
    )


def _texts(workloads):
    from repro.ir.printer import format_function

    return [format_function(w.fn) for w in workloads]


def test_generators_are_pure_functions_of_the_seed():
    assert _texts(inputs.module_pass(3, 2, 12)) == _texts(
        inputs.module_pass(3, 2, 12))
    assert _texts(inputs.module_pass(3, 2, 12)) != _texts(
        inputs.module_pass(4, 2, 12))
    # The anchor pass does not depend on the seed.
    assert _texts(inputs.module_pass(3, 0, 12)) == _texts(
        inputs.module_pass(4, 0, 12))

    def passes(seed, count=4):
        generated = inputs.module_passes(seed, 12)
        return [_texts(next(generated)) for _ in range(count)]

    assert passes(3) == passes(3)
    assert passes(3)[0] == passes(4)[0]
    assert passes(3)[1:] != passes(4)[1:]
    # Within a pass no function repeats (the engine would coalesce it).
    assert all(len(set(texts)) == len(texts) for texts in passes(3, 9))

    full = inputs.SIZES["full"]
    draw, anchors = inputs.large_draw(3, full)
    assert _texts(draw) == _texts(inputs.large_draw(3, full)[0])
    assert _texts(draw[:anchors]) == _texts(inputs.large_draw(4, full)[0][:anchors])
    assert _texts(draw[anchors:]) != _texts(inputs.large_draw(4, full)[0][anchors:])
    random_part = draw[:full.large_anchors] + draw[anchors:]
    assert all(150 <= len(w.fn.blocks) <= 450 for w in random_part)

    def stream(seed):
        return [(i.kind, i.text, i.workload.args)
                for i in inputs.service_stream(seed, 120, module_size=12)]

    assert stream(3) == stream(3)
    assert stream(3) != stream(4)
    kinds = {kind for kind, _, _ in stream(3)}
    assert {inputs.NEW, inputs.REPEAT, inputs.EDIT} <= kinds


def test_stratified_order_balances_every_prefix():
    import random

    sizes = list(range(100))

    class Fake:
        def __init__(self, size):
            self.fn = [type("Block", (), {"instrs": [0] * size})()]

    order = inputs._stratified([Fake(n) for n in sizes], random.Random(1))
    got = [len(w.fn[0].instrs) for w in order]
    assert sorted(got) == sizes
    for start in range(0, 100, inputs.POPULATION_STRATA):
        round_ = got[start:start + inputs.POPULATION_STRATA]
        assert sorted(n // 10 for n in round_) == list(range(10))


def test_host_adjustment_scales_to_the_reference():
    host = common.HostSpeed()
    assert host.scale(common.PROBE_REFERENCE_MS) == 1.0
    assert host.scale(2 * common.PROBE_REFERENCE_MS) == 0.5
    import os

    allowed = os.sched_getaffinity(0)
    assert host.probe(all_cpus=True) > 0
    assert os.sched_getaffinity(0) == allowed
    assert host.factor() == host.scale(*host.samples)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    proc = _run(workload)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    report = "\n".join(lines[:-1])
    for name, unit in list(expected.items()) + [("fail_ratio", "ratio")]:
        assert any(line.split()[:1] == [name] and unit in line.split()
                   and ("n=" in line or "attempted=" in line)
                   for line in lines[:-1]), name
    assert "output_digest" in report


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("large_fn", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    expected = {m["name"] for m in _spec()["per_layer"]}
    assert set(result["metrics"]) == expected


def test_injected_permanent_failure_is_counted():
    plan = json.dumps([{"task": 0, "attempt": 0, "action": "raise",
                        "kind": "permanent"}])
    proc = _run("module_cold", env={"REPRO_FAULT_PLAN": plan})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] > 0
    fail_ratio = next(line for line in proc.stdout.splitlines()
                      if line.split()[:1] == ["fail_ratio"])
    assert float(fail_ratio.split()[1]) > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {"PYTHONPATH": ""}
    proc = _run("module_cold", env=env, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
