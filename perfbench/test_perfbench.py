"""Tests of the benchmark itself, on tiny sizes.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, run, workloads  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402
from perfbench.stats import tail_percentile  # noqa: E402
from perfbench.workloads import TINY  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, capsys):
    args = run.parse_args(["--workload", name, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace)])
    result = harness.execute(name, 3, 1.0, bool(trace), sizes=TINY)
    declared = run.declared_metrics(bool(trace))
    line = json.loads(run.report(name, args, result, harness.environment(),
                                 declared))
    table = capsys.readouterr().out
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(declared)
    for key, unit in declared.items():
        assert line["metrics"][key]["unit"] == unit
        assert math.isfinite(line["metrics"][key]["value"])
        assert key in table
    assert "error_rate" in table


def _first_call_corrupts(real, corrupt):
    """A wrapper that passes *real*'s output through *corrupt* once."""
    lock, done = threading.Lock(), []

    def wrapper(*args, **kwargs):
        out = real(*args, **kwargs)
        with lock:
            if not done:
                done.append(True)
                return corrupt(out)
        return out

    return wrapper


def test_wrong_decode_token_counts_as_failure():
    workload = workloads.DecodeB1(TINY, 5)
    ctx, _ = workload.setup()
    try:
        model = ctx.cm.model

        def flip(logits):
            logits = np.array(logits)
            wrong = (int(np.argmax(logits[0])) + 1) % logits.shape[-1]
            logits[0] = -1.0
            logits[0, wrong] = 1.0
            return logits

        model.step_many = _first_call_corrupts(model.step_many, flip)
        phase = workload.run(ctx, 0.5)
        workload.verify(ctx, phase)
    finally:
        workload.close(ctx)
    assert phase.wrong == 1
    assert phase.failed == 1


def test_wrong_served_output_counts_as_failure():
    workload = workloads.ServeOpen(TINY, 5)
    ctx, _ = workload.setup()
    try:
        workload.prepare(ctx)

        def bump(out):
            out[0].flat[0] += 1.0
            return out

        real = {id(r): r._forward for r in ctx.pool._replicas}
        corrupt = _first_call_corrupts(
            lambda replica, *a, **k: real[id(replica)](*a, **k), bump)
        for replica in ctx.pool._replicas:
            replica._forward = (
                lambda *a, _r=replica, **k: corrupt(_r, *a, **k))
        phase = workload.run(ctx, 0.5)
        workload.verify(ctx, phase)
    finally:
        workload.close(ctx)
    assert phase.wrong == 1
    assert phase.failed == 1


class _FakeEngine:
    def matmul(self, x, out=None, workspace=None):
        time.sleep(0.02)
        return x

    def matmul_into(self, x, out=None, workspace=None):
        time.sleep(0.01)
        return self.matmul(x, out=out, workspace=workspace)


def test_nested_matmul_into_is_one_engine_span():
    rec = Recorder()
    engine = _FakeEngine()
    for attr in ("matmul", "matmul_into"):
        rec.wrap(engine, attr, "engine.fake", skip_inside="engine.")
    rec.set_ops((7,))
    start = time.monotonic()
    outer = rec.open("gen.step_many")
    engine.matmul_into(np.ones((4, 1)))
    engine.matmul(np.ones((4, 1)))
    rec.close(outer)
    wall = time.monotonic() - start
    assert [s.name for s in rec.spans] == [
        "gen.step_many", "engine.fake", "engine.fake"]
    row = rec.op_breakdown({7: wall})[7]
    engine_time = rec.spans[1].duration + rec.spans[2].duration
    assert row["engine"] == pytest.approx(engine_time)
    assert engine_time >= 0.05
    assert row["gen"] == pytest.approx(rec.spans[0].duration - engine_time)
    assert row["glue"] >= 0
    assert sum(row.values()) == pytest.approx(wall)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    assert tail_percentile(40) == 75
    assert tail_percentile(12) == 50


def test_benchmark_json_records_rationale_and_layer_map():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    workload_names = {w["name"] for w in SPEC["workloads"]}
    # end-to-end numbers kept per-layer carry an ``e2e.`` prefix
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} | {
        m["name"] for m in SPEC["per_layer"] if m["name"].startswith("e2e.")}
    assert workload_names == set(workloads.WORKLOADS)
    assert all(w["why"] for w in SPEC["workloads"])
    assert [m["name"] for m in SPEC["per_layer"]] == list(layer_map)
    for entry in layer_map.values():
        assert set(entry["moves"]) <= end_to_end | {"failed"}
        assert entry["workloads"] and set(entry["workloads"]) <= workload_names
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _run_script(cwd, env_extra):
    env = {**os.environ, **env_extra}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode_b1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


def test_refuses_to_run_with_observability_on():
    out = _run_script(ROOT, {"REPRO_OBS": "1"})
    assert out.returncode != 0
    assert out.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run_script(tmp_path, {})
    assert out.returncode != 0
    assert out.stdout == ""
