"""One benchmark run: set up, measure, check, and assemble the metrics.

``execute`` returns the run's result; ``run.py`` prints it.  A run with
``trace=False`` reports the end-to-end metrics.  A run with
``trace=True`` first measures half the time untraced, then installs the
span wrappers and measures the other half, and reports the per-layer
metrics; the ratio of the two halves' op p50 is the tracing overhead.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import time
from dataclasses import replace as dc_replace
from pathlib import Path

import numpy as np

import repro
from repro.core.lut import build_tables_dp, reshape_input
from repro.engine import clear_plan_cache, lossless_engines, registered_engines
from repro.obs import runtime as obs_runtime

from perfbench.spans import LAYERS, Recorder
from perfbench.stats import Stat, median, p50_stat, tail_stat
from perfbench.workloads import FULL, WORKLOADS, Phase, Sizes

#: Engines whose every call builds lookup tables (the LUT bytes of
#: ``core.bytes_per_token``).
LUT_BACKENDS = ("biqgemm", "compiled")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "repro": repro.__version__,
        "repro_obs": obs_runtime.ACTIVE,
    }


def rss_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def execute(name: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes = FULL, spans_dir: Path | None = None) -> dict:
    """Run workload *name* once; returns ``{"phase", "metrics"}`` where
    metrics maps names to :class:`Stat`."""
    workload = WORKLOADS[name](sizes, seed)
    setups, ctx = [], None
    try:
        for _ in range(sizes.setup_repeats):
            if ctx is not None:
                workload.close(ctx)
                ctx = None
                gc.collect()
            clear_plan_cache()
            ctx, phases = workload.setup()
            setups.append(phases)
        workload.prepare(ctx)
        if not trace:
            phase = workload.run(ctx, seconds)
            metrics = dict(phase.e2e)
            metrics["rss_peak_mb"] = Stat(rss_peak_mb(), 1)
            workload.verify(ctx, phase)
            metrics["setup_s"] = Stat(
                median([sum(p.values()) for p in setups]), len(setups))
            return {"phase": phase, "metrics": metrics}
        base = workload.run(ctx, seconds / 2, detail=True)
        rec = Recorder()
        workload.instrument(ctx, rec)
        infos = _instrument_engines(rec, workload.named_layers(ctx))
        traced = workload.run(ctx, seconds / 2)
        rec.enabled = False
        workload.verify(ctx, base)
        workload.verify(ctx, traced)
        if spans_dir is not None:
            spans_dir.mkdir(parents=True, exist_ok=True)
            rec.dump(spans_dir / f"spans-{name}-seed{seed}.jsonl")
        metrics = layer_metrics(workload, ctx, setups, base, traced, rec,
                                infos, seed)
        merged = Phase(attempted=base.attempted + traced.attempted,
                       failed=base.failed + traced.failed,
                       wrong=base.wrong + traced.wrong)
        return {"phase": merged, "metrics": metrics}
    finally:
        if ctx is not None:
            workload.close(ctx)


# ----------------------------------------------------------------------
# engine spans
# ----------------------------------------------------------------------
def _instrument_engines(rec: Recorder, named_layers) -> list:
    """Wrap ``matmul`` and ``matmul_into`` of every pinned engine
    instance.  Returns, per layer, ``(path, backend, (m, n),
    weight_bytes, mu)``; span metadata is ``(layer index, columns,
    itemsize)``."""
    infos, seen = [], set()
    for index, (path, layer) in enumerate(named_layers):
        batch = 1
        engine = layer.engine_for(batch)
        backend = layer.planned_backend(batch)
        infos.append((path, backend, layer.shape,
                      int(engine.weight_nbytes), layer.spec.mu))
        if id(engine) in seen:
            continue
        seen.add(id(engine))

        def meta(x, *args, _index=index, **kwargs):
            x = np.asarray(x)
            return (_index, x.shape[1] if x.ndim == 2 else 1,
                    x.dtype.itemsize)

        for attr in ("matmul", "matmul_into"):
            if hasattr(engine, attr):
                rec.wrap(engine, attr, f"engine.{backend}", meta=meta,
                         skip_inside="engine.")
    return infos


# ----------------------------------------------------------------------
# replays: each layer shape timed alone, outside the run
# ----------------------------------------------------------------------
def _p50(fn, budget: float = 0.05, min_reps: int = 3) -> float:
    fn()  # lazy per-shape state is built once, as in the run
    times = []
    end = time.perf_counter() + budget
    while len(times) < min_reps or (time.perf_counter() < end
                                    and len(times) < 200):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return median(times)


def _alternatives(layer):
    backends = dict.fromkeys(lossless_engines() + ("compiled",))
    out = {}
    for backend in backends:
        fuse = layer.spec.fuse if backend == "compiled" else None
        out[backend] = layer.with_spec(
            dc_replace(layer.spec, backend=backend, fuse=fuse))
    return out


def _replay(named_layers, columns: int, rng) -> dict:
    """Per distinct layer shape at *columns* columns: the pinned layer's
    p50 and every alternative's, in seconds."""
    shapes = {}
    for _, layer in named_layers:
        shapes.setdefault(layer.shape, layer)
    out = {}
    for (m, n), layer in shapes.items():
        x = rng.standard_normal((columns, n))
        alts = {b: _p50(lambda alt=alt: alt(x))
                for b, alt in _alternatives(layer).items()}
        out[(m, n)] = (_p50(lambda: layer(x)), alts)
    return out


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(workload, ctx, setups, base: Phase, traced: Phase,
                  rec: Recorder, infos, seed: int) -> dict:
    spans = rec.spans
    own = rec.self_times()
    walls = {op: end - start for op, (start, end) in traced.ops.items()}
    breakdown = rec.op_breakdown(walls)
    n_ops = max(len(walls), 1)
    total_wall = sum(walls.values())

    def per_op(layer: str) -> float:
        return sum(row[layer] for row in breakdown.values()) / n_ops

    m = {}
    m["api.quantize_s"] = Stat(median([p["quantize_s"] for p in setups]), len(setups))
    m["api.compile_s"] = Stat(median([p["compile_s"] for p in setups]), len(setups))
    m["api.warmup_s"] = Stat(median([p["warmup_s"] for p in setups]), len(setups))
    m["api.weight_bytes"] = Stat(float(ctx.cm.weight_nbytes), 1)

    m["op.wall_ms"] = Stat(total_wall / n_ops * 1e3, len(walls))
    for layer in LAYERS:
        m[f"op.{layer}_self_ms"] = Stat(per_op(layer) * 1e3, len(walls))
    m["op.glue_ms"] = Stat(per_op("glue") * 1e3, len(walls))

    engine_spans = [(s, t) for s, t in zip(spans, own) if s.layer == "engine"]
    calls = dict.fromkeys(registered_engines(), 0)
    for span, _ in engine_spans:
        for op in span.ops:
            if op in walls:
                calls[span.name.split(".", 1)[1]] += 1
    for backend, count in calls.items():
        m[f"engine.calls.{backend}"] = Stat(count / n_ops, len(walls))
    m["engine.ms_per_op"] = Stat(per_op("engine") * 1e3, len(walls))
    m["engine.share"] = Stat(
        per_op("engine") * n_ops / total_wall if total_wall else 0.0, len(walls))
    columns = [span.meta[1] for span, _ in engine_spans]
    m["engine.columns_per_call"] = Stat(float(np.mean(columns)) if columns else 0.0,
                                        len(columns))

    # bytes the engine calls read: weights, plus the tables a LUT
    # engine builds per call (computed from sizes, not measured)
    moved = 0
    for span, _ in engine_spans:
        index, cols, itemsize = span.meta
        _, backend, (rows, n), weight_bytes, mu = infos[index]
        moved += weight_bytes
        if backend in LUT_BACKENDS:
            moved += math.ceil(n / mu) * (1 << mu) * cols * itemsize
    m["core.bytes_per_token"] = Stat(moved / max(traced.tokens, 1), len(engine_spans))

    gen_self = sum(t for s, t in zip(spans, own) if s.layer == "gen")
    m["gen.self_ms_per_token"] = Stat(gen_self / max(traced.tokens, 1) * 1e3,
                                      traced.tokens)
    prefills = [s.duration for s in spans if s.name == "gen.prefill"]
    m["gen.prefill_ms_p50"] = p50_stat(prefills, 1e3)
    m["gen.kv_bytes_peak"] = Stat(float(traced.kv_peak), 1)

    # inter-token gap minus the step that produced it
    steps = {}
    for span in spans:
        if span.name == "gen.step_many":
            for op in span.ops:
                steps[op] = steps.get(op, 0.0) + span.duration
    handoffs = [end - start - steps[op] for op, (start, end) in traced.gaps.items()
                if op in steps]
    m["serve.sequences.handoff_ms_p50"] = p50_stat(handoffs, 1e3)
    ticks = [s.meta for s in spans if s.name == "gen.step_many"]
    m["serve.sequences.tick_size_mean"] = Stat(
        float(np.mean(ticks)) if ticks else 0.0, len(ticks))
    m["serve.batcher.queue_wait_ms_p50"] = p50_stat(traced.queue_waits, 1e3)
    m["serve.batcher.queue_wait_ms_tail"] = tail_stat(traced.queue_waits, 1e3)
    m["serve.batcher.batch_size_mean"] = Stat(
        float(np.mean(traced.batch_sizes)) if traced.batch_sizes else 0.0,
        len(traced.batch_sizes))
    executes = getattr(ctx, "exec_times", [])
    m["serve.pool.execute_ms_p50"] = p50_stat(executes, 1e3)
    m["serve.pool.busy_share"] = Stat(
        sum(executes) / (ctx.pool.workers * traced.elapsed) if executes else 0.0,
        len(executes))
    rejected, cancelled = workload.refusals(ctx)
    m["serve.batcher.rejected"] = Stat(float(rejected), 1)
    m["serve.batcher.cancelled"] = Stat(float(cancelled), 1)
    for key in ("serve.latency_ms_p50.light", "serve.latency_ms_tail.light",
                "serve.goodput_rps", "bench.generator_lag_ms"):
        m[key] = base.extra.get(key, Stat(0.0, 0))

    m["e2e.latency_ms_tail"] = base.e2e["e2e.latency_ms_tail"]
    untraced = base.e2e["latency_ms_p50"].value
    m["bench.trace_overhead"] = Stat(
        traced.e2e["latency_ms_p50"].value / untraced if untraced else 0.0,
        traced.e2e["latency_ms_p50"].samples)

    # planner regret, dense ratio and LUT build share, replayed per shape
    rng = np.random.default_rng(seed)
    named = workload.named_layers(ctx)
    columns = workload.replay_columns(traced,
                                      m["engine.columns_per_call"].value)
    replay = _replay(named, columns, rng)
    regrets = [pinned / min(alts.values()) for pinned, alts in replay.values()]
    m["engine.regret_max"] = Stat(max(regrets), len(regrets))
    m["engine.regret_mean"] = Stat(float(np.mean(regrets)), len(regrets))
    largest = max(replay, key=lambda shape: (shape[0] * shape[1], shape[0]))
    layer = next(layer for _, layer in named if layer.shape == largest)
    at_one = replay if columns == 1 else _replay(
        [(None, layer)], 1, rng)
    pinned, alts = at_one[largest]
    m["engine.dense_ratio"] = Stat(pinned / alts["dense"], 1)
    x = rng.standard_normal((largest[1], columns))
    engine = layer.engine_for(1 if layer.batch_invariant else columns)
    xhat = reshape_input(x, layer.spec.mu)
    m["core.lut_build_share"] = Stat(
        _p50(lambda: build_tables_dp(xhat)) / _p50(lambda: engine.matmul(x)), 1)
    m["bench.replay_columns"] = Stat(float(columns), 1)
    return m
