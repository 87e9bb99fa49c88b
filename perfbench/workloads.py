"""The three workloads, driven through the public API with the defaults
a user gets: ``QuantConfig()`` (3-bit, mu=8, greedy, ``backend="auto"``)
and the serving defaults of ``ServeConfig``.

Each workload builds its model (``setup``), runs for a given number of
seconds against inputs generated from the seed (``run``), and checks
every output outside the timed window (``verify``).  ``instrument``
installs the span wrappers of a traced run; an untraced run installs
none except the serving pool's completion stamp, without which an
open-loop latency cannot be measured.  ``run(..., detail=True)`` adds
the phases only the per-layer report reads (``serve_open``'s light
rate and goodput ladder).

- ``decode_b1``: one closed-loop client, one stream at a time, short
  prompts and long generations: batch-1 GEMV decode.
- ``prefill_long``: two closed-loop clients, long prompts and short
  generations: multi-column prefill competing with decode ticks.
- ``serve_open``: open-loop Poisson arrivals of encoder requests at
  fixed rates, then a closed-loop saturation phase for capacity.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from repro.api import QuantConfig, quantize
from repro.gen import DecoderLM
from repro.nn.model_zoo import build_encoder
from repro.nn.transformer import TransformerConfig
from repro.serve import Batcher, SequenceScheduler, ServeConfig, WorkerPool
from repro.serve.batcher import BatcherClosed, QueueFullError

from perfbench.spans import Recorder
from perfbench.stats import Stat, p50_stat, tail_stat

now = time.monotonic


@dataclass(frozen=True)
class Sizes:
    """Model and traffic sizes.  ``FULL`` is the benchmark; ``TINY``
    runs every code path in a second, for the benchmark's own tests."""

    dim: int = 512
    heads: int = 8
    ff: int = 2048
    layers: int = 4
    vocab: int = 2048
    decode_prompt: tuple = (8, 16)
    decode_new: int = 120
    # Prompt lengths cycle through seeded permutations of this set, so
    # every seed sees the same mix and only the order and tokens vary.
    prefill_lengths: tuple = (24, 32, 40, 48, 56, 64)
    prefill_new: int = 6
    enc_scale: int = 2
    enc_layers: int = 2
    request_pool: int = 32
    # Arrival rates (requests/s) of the open-loop phases.  Above
    # ``busy``, the ladder rungs that goodput is read from.
    light_rate: float = 20.0
    busy_rate: float = 40.0
    ladder: tuple = (120.0, 160.0, 200.0)
    # Coalescing cap of the serving batcher.  Each replica's arena keeps
    # one buffer set per distinct batch size, so set-up warms every
    # size up to the cap: peak memory then does not depend on which
    # sizes the arrival process happens to form.
    max_batch: int = 8
    setup_repeats: int = 5


FULL = Sizes()
TINY = replace(
    FULL,
    dim=32, heads=2, ff=64, layers=1, vocab=64,
    decode_prompt=(4, 6), decode_new=10,
    prefill_lengths=(8, 12, 16), prefill_new=3,
    enc_scale=16, enc_layers=1, request_pool=4,
    light_rate=40.0, busy_rate=80.0, ladder=(120.0,),
    max_batch=4, setup_repeats=1,
)

#: Tail latency (ms) a goodput rung must meet.
GOODPUT_LIMIT_MS = 250.0
#: Closed-loop clients of ``prefill_long``.
PREFILL_CLIENTS = 2
#: Tokens per ``serve_open`` request.
REQUEST_TOKENS = 8


@dataclass
class Phase:
    """What one timed run produced."""

    elapsed: float = 0.0
    ops: dict = field(default_factory=dict)  # op id -> (start, end)
    gaps: dict = field(default_factory=dict)  # token-gap op -> (start, end)
    tokens: int = 0  # tokens the model processed
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    outputs: list = field(default_factory=list)
    kv_peak: int = 0
    batch_sizes: list = field(default_factory=list)
    queue_waits: list = field(default_factory=list)
    e2e: dict = field(default_factory=dict)  # name -> Stat
    extra: dict = field(default_factory=dict)  # per-layer numbers

    def op_latencies(self) -> list:
        return [end - start for start, end in self.ops.values()]


def _timed(fn):
    start = now()
    value = fn()
    return value, now() - start


# ----------------------------------------------------------------------
# decoder workloads
# ----------------------------------------------------------------------
class _GenWorkload:
    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.rng = np.random.default_rng(seed)
        self._ids = itertools.count()

    def setup(self):
        s = self.sizes
        config = TransformerConfig(dim=s.dim, heads=s.heads, ff_dim=s.ff,
                                   layers=s.layers)
        lm, build_s = _timed(lambda: DecoderLM(config, s.vocab, seed=0))
        qm, quantize_s = _timed(lambda: quantize(lm, QuantConfig()))
        cm, compile_s = _timed(qm.compile)
        start = now()
        cm.warmup()
        sched = SequenceScheduler(cm).start()
        # Builds the per-shape engine state the first decode tick needs.
        for _ in sched.generate(np.arange(4) % s.vocab, 3):
            pass
        warmup_s = now() - start
        ctx = SimpleNamespace(cm=cm, sched=sched, op_of={}, live=set(),
                              live_lock=threading.Lock(), rec=None)
        return ctx, {"build_s": build_s, "quantize_s": quantize_s,
                     "compile_s": compile_s, "warmup_s": warmup_s}

    def prepare(self, ctx) -> None:
        pass

    def close(self, ctx) -> None:
        ctx.sched.stop()

    def refusals(self, ctx) -> tuple:
        """Requests refused at admission, and dropped while queued."""
        return (ctx.sched.telemetry.rejected,
                ctx.sched._batcher.telemetry.cancelled)

    def named_layers(self, ctx):
        return ctx.cm.named_layers()

    def instrument(self, ctx, rec: Recorder) -> None:
        ctx.rec = rec
        model = ctx.cm.model
        rec.wrap(ctx.sched, "generate", "serve.sequences.generate")
        rec.wrap(model, "init_cache", "gen.init_cache")
        rec.wrap(model, "prefill", "gen.prefill",
                 meta=lambda ids, caches: int(ids.shape[1]))
        rec.wrap(model, "step_many", "gen.step_many",
                 meta=lambda tokens, caches: len(tokens))
        batcher = ctx.sched._batcher
        next_batch = batcher.next_batch
        picked = threading.local()

        def traced_next_batch(*args, **kwargs):
            batch = next_batch(*args, **kwargs)
            if batch is None or not rec.enabled:
                return batch
            picked.at = now()
            ops = [ctx.op_of.get(id(r.meta)) for r in batch.requests]
            for request, op in zip(batch.requests, ops):
                rec.record("serve.batcher.queue", request.enqueue_time,
                           picked.at, (op,) if op is not None else ())
                ctx.phase.queue_waits.append(picked.at - request.enqueue_time)
            ctx.phase.batch_sizes.append(len(batch))
            rec.set_ops(ops)
            return batch

        batcher.next_batch = traced_next_batch
        step = ctx.cm.decode_step_many

        def traced_step(tokens, cache_lists):
            if not rec.enabled:
                return step(tokens, cache_lists)
            # A tick picked by a next_batch call already in flight when
            # the wrapper went in has no pick time: it starts here.
            tick = rec.open("serve.sequences.tick",
                            start=getattr(picked, "at", None))
            picked.at = None
            api = rec.open("api.decode_step_many")
            try:
                return step(tokens, cache_lists)
            finally:
                rec.close(api)
                rec.close(tick)

        ctx.cm.decode_step_many = traced_step

    def _sample_kv(self, ctx, phase: Phase) -> None:
        with ctx.live_lock:
            total = sum(c.nbytes for st in ctx.live for c in st.caches)
            phase.kv_peak = max(phase.kv_peak, total)

    def _stream(self, ctx, phase: Phase, prompt, new: int, deadline: float,
                first_op=None):
        """Run one stream; returns its tokens and the first token's
        time.  *first_op* is the op the first token closes (time to
        first token); later tokens are token-gap ops."""
        rec = ctx.rec
        if rec is not None:
            rec.set_ops((first_op,))
        stream = ctx.sched.generate(prompt, new)
        with ctx.live_lock:
            ctx.live.add(stream)
        tokens, last, first_at = [], None, None
        try:
            while len(tokens) < new:
                op = first_op if last is None else next(self._ids)
                ctx.op_of[id(stream)] = op
                try:
                    token = next(stream)
                except StopIteration:
                    break
                stamp = now()
                tokens.append(token)
                if last is None:
                    first_at = stamp
                else:
                    phase.gaps[op] = (last, stamp)
                last = stamp
                if ctx.rec is not None:
                    self._sample_kv(ctx, phase)
                if deadline is not None and stamp >= deadline:
                    break
        finally:
            ctx.op_of.pop(id(stream), None)
            with ctx.live_lock:
                ctx.live.discard(stream)
            stream.close()
            if rec is not None:
                rec.set_ops(())
        with ctx.live_lock:
            phase.outputs.append((np.asarray(prompt), tokens))
            phase.tokens += len(prompt) + len(tokens)
        return tokens, first_at

    def verify(self, ctx, phase: Phase) -> None:
        """KV-cached == recompute: one full causal forward over prompt
        plus generated tokens must pick every streamed token."""
        for prompt, tokens in phase.outputs:
            if not tokens:
                continue
            ids = np.concatenate([prompt, tokens[:-1]]).astype(np.int64)
            logits = np.asarray(ctx.cm(ids[None]))[0]
            picked = logits[len(prompt) - 1:].argmax(axis=-1)
            self._count_wrong(phase, int(np.sum(picked != np.asarray(tokens))))


class DecodeB1(_GenWorkload):
    name = "decode_b1"
    labels = {"throughput_per_s": "tokens_per_s",
              "latency_ms_p50": "itl_ms_p50",
              "e2e.latency_ms_tail": "itl_ms_tail"}

    def run(self, ctx, seconds: float, detail: bool = False) -> Phase:
        s, phase = self.sizes, Phase()
        ctx.phase = phase
        start = now()
        deadline = start + seconds
        while now() < deadline:
            length = int(self.rng.integers(s.decode_prompt[0],
                                           s.decode_prompt[1] + 1))
            prompt = self.rng.integers(0, s.vocab, length)
            try:
                self._stream(ctx, phase, prompt, s.decode_new, deadline)
            except Exception as exc:  # noqa: BLE001 -- counted, reported
                phase.failed += 1
                phase.attempted += 1
                print(f"decode_b1: stream failed: {exc!r}")
        phase.elapsed = now() - start
        phase.ops = dict(phase.gaps)
        generated = sum(len(t) for _, t in phase.outputs)
        phase.attempted += generated
        gaps = phase.op_latencies()
        phase.e2e = {
            "throughput_per_s": Stat(generated / phase.elapsed, generated),
            "latency_ms_p50": p50_stat(gaps, 1e3),
            "e2e.latency_ms_tail": tail_stat(gaps, 1e3),
        }
        return phase

    def _count_wrong(self, phase: Phase, wrong: int) -> None:
        # One op per token.
        phase.wrong += wrong
        phase.failed += wrong

    def replay_columns(self, phase: Phase, measured: float) -> int:
        """Columns per engine call the per-shape replays use."""
        return 1


class PrefillLong(_GenWorkload):
    name = "prefill_long"
    labels = {"throughput_per_s": "streams_per_s",
              "latency_ms_p50": "ttft_ms_p50",
              "e2e.latency_ms_tail": "ttft_ms_tail"}

    def _prompts(self):
        s = self.sizes
        while True:
            for length in self.rng.permutation(s.prefill_lengths):
                yield self.rng.integers(0, s.vocab, int(length))

    def run(self, ctx, seconds: float, detail: bool = False) -> Phase:
        s, phase = self.sizes, Phase()
        ctx.phase = phase
        # Prompts are drawn in one fixed sequence, whichever client
        # takes the next one.
        prompts = self._prompts()
        lock = threading.Lock()
        errors = []
        start = now()
        deadline = start + seconds

        def client():
            while True:
                with lock:
                    if now() >= deadline:
                        return
                    prompt = next(prompts)
                op = next(self._ids)
                began = now()
                try:
                    tokens, first_at = self._stream(
                        ctx, phase, prompt, s.prefill_new, None, first_op=op)
                except Exception as exc:  # noqa: BLE001 -- counted
                    errors.append(exc)
                    continue
                if first_at is not None:
                    phase.ops[op] = (began, first_at)

        threads = [threading.Thread(target=client, name=f"perfbench-client-{i}")
                   for i in range(PREFILL_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.elapsed = now() - start
        for exc in errors:
            print(f"prefill_long: stream failed: {exc!r}")
        phase.attempted = len(phase.outputs) + len(errors)
        phase.failed = len(errors)
        ttft = phase.op_latencies()
        phase.e2e = {
            "throughput_per_s": Stat(len(phase.outputs) / phase.elapsed,
                                     len(phase.outputs)),
            "latency_ms_p50": p50_stat(ttft, 1e3),
            "e2e.latency_ms_tail": tail_stat(ttft, 1e3),
        }
        return phase

    def _count_wrong(self, phase: Phase, wrong: int) -> None:
        # One op per stream: a stream with any wrong token failed.
        if wrong:
            phase.wrong += 1
            phase.failed += 1

    def replay_columns(self, phase: Phase, measured: float) -> int:
        lengths = [len(prompt) for prompt, _ in phase.outputs]
        return int(np.median(lengths)) if lengths else 1


# ----------------------------------------------------------------------
# open-loop serving
# ----------------------------------------------------------------------
class ServeOpen:
    name = "serve_open"
    labels = {"throughput_per_s": "capacity_rps",
              "latency_ms_p50": "latency_ms_p50.busy",
              "e2e.latency_ms_tail": "latency_ms_tail.busy"}

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.rng = np.random.default_rng(seed)
        self._ids = itertools.count()
        dim = 512 // sizes.enc_scale
        self.inputs = self.rng.standard_normal(
            (sizes.request_pool, REQUEST_TOKENS, dim))

    def setup(self):
        s, cfg = self.sizes, ServeConfig()
        enc, build_s = _timed(lambda: build_encoder(
            "transformer-base", scale=s.enc_scale, layers=s.enc_layers))
        qm, quantize_s = _timed(lambda: quantize(enc, QuantConfig()))
        cm, compile_s = _timed(qm.compile)
        start = now()
        sample = np.zeros(self.inputs.shape[1:])
        cm.warmup(sample)
        batcher = Batcher(max_batch=s.max_batch,
                          max_latency_ms=cfg.max_latency_ms,
                          max_queue=cfg.max_queue)
        pool = WorkerPool(cm, batcher, workers=cfg.workers)
        ctx = SimpleNamespace(cm=cm, batcher=batcher, pool=pool, rec=None,
                              done_at={}, done=threading.Condition(),
                              on_done=None, exec_times=[])
        self._stamp_completions(ctx)
        pool.start()
        for replica in pool._replicas:
            for size in range(1, s.max_batch + 1):
                replica(np.ascontiguousarray(
                    np.broadcast_to(sample, (size,) + sample.shape)))
        warmup_s = now() - start
        return ctx, {"build_s": build_s, "quantize_s": quantize_s,
                     "compile_s": compile_s, "warmup_s": warmup_s}

    def _stamp_completions(self, ctx) -> None:
        """Wrap the pool's per-batch execution: every request of a batch
        completes when it returns.  In a traced run it is also the
        ``serve.pool.execute`` span."""
        execute = ctx.pool._execute

        def stamped(replica, batch):
            rec = ctx.rec
            span = None
            if rec is not None and rec.enabled:
                span = rec.open("serve.pool.execute")
            try:
                execute(replica, batch)
            finally:
                if span is not None:
                    rec.close(span)
                    ctx.exec_times.append(rec.spans[span].duration)
            done = now()
            with ctx.done:
                for request in batch.requests:
                    ctx.done_at[int(request.request_id)] = done
                ctx.done.notify_all()
            if ctx.on_done is not None:
                ctx.on_done(len(batch))

        ctx.pool._execute = stamped

    def prepare(self, ctx) -> None:
        # Batched == unbatched: each output must equal the unbatched
        # forward of its input, computed here once.
        ctx.expected = [np.asarray(ctx.cm(x[None]))[0] for x in self.inputs]

    def close(self, ctx) -> None:
        ctx.pool.stop()

    def refusals(self, ctx) -> tuple:
        telemetry = ctx.batcher.telemetry
        return telemetry.rejected, telemetry.cancelled

    def named_layers(self, ctx):
        return ctx.cm.named_layers()

    def instrument(self, ctx, rec: Recorder) -> None:
        ctx.rec = rec
        for replica in ctx.pool._replicas:
            rec.wrap(replica, "_forward", "api.forward")
        next_batch = ctx.batcher.next_batch

        def traced_next_batch(*args, **kwargs):
            batch = next_batch(*args, **kwargs)
            if batch is None or not rec.enabled:
                return batch
            picked = now()
            ops = [int(r.request_id) for r in batch.requests]
            for request, op in zip(batch.requests, ops):
                rec.record("serve.batcher.queue", request.enqueue_time,
                           picked, (op,))
                ctx.phase.queue_waits.append(picked - request.enqueue_time)
            ctx.phase.batch_sizes.append(len(batch))
            rec.set_ops(ops)
            return batch

        ctx.batcher.next_batch = traced_next_batch

    def _send(self, ctx, phase, sent, due: float) -> None:
        k = int(self.rng.integers(len(self.inputs)))
        op = next(self._ids)
        phase.attempted += 1
        try:
            request = ctx.batcher.enqueue(self.inputs[k], request_id=str(op))
        except (QueueFullError, BatcherClosed) as exc:
            phase.failed += 1
            print(f"serve_open: request refused: {exc!r}")
            return
        sent.append((op, k, due, request))

    def _drain(self, ctx, phase, sent) -> None:
        for op, k, due, request in sent:
            try:
                out = request.result(timeout=60.0)
            except Exception as exc:  # noqa: BLE001 -- counted, reported
                phase.failed += 1
                print(f"serve_open: request failed: {exc!r}")
                continue
            # The result is handed over inside the pool's execution; its
            # completion stamp lands just after.
            with ctx.done:
                ctx.done.wait_for(lambda: op in ctx.done_at, timeout=60.0)
            phase.ops[op] = (due, ctx.done_at[op])
            phase.outputs.append((k, out))

    def _open_phase(self, ctx, phase, rate: float, seconds: float):
        # A Poisson process conditioned on its count: the phase always
        # carries exactly rate * seconds arrivals, so seeds differ in
        # burstiness but not in offered load.
        offsets = np.sort(self.rng.uniform(0.0, seconds,
                                           max(1, round(rate * seconds))))
        sent, lags = [], []
        start = now()
        for offset in offsets:
            due = start + offset
            wait = due - now()
            if wait > 0:
                time.sleep(wait)
            lags.append(now() - due)
            self._send(ctx, phase, sent, due)
        end = start + seconds
        if end > now():
            time.sleep(end - now())
        backlog = sum(1 for op, *_ in sent if op not in ctx.done_at)
        self._drain(ctx, phase, sent)
        latencies = [ctx.done_at[op] - due for op, _, due, _ in sent
                     if op in phase.ops]
        return latencies, backlog, lags, len(offsets)

    def _closed_phase(self, ctx, phase, seconds: float) -> float:
        """Saturation: keep four full batches per worker outstanding, so
        every batch is full and the queue never overflows; capacity is
        completions per second."""
        outstanding = 4 * ServeConfig().workers * self.sizes.max_batch
        slots = threading.Semaphore(outstanding)
        ctx.on_done = slots.release
        sent = []
        start = now()
        end = start + seconds
        try:
            while now() < end:
                if slots.acquire(timeout=max(end - now(), 0.0)):
                    self._send(ctx, phase, sent, now())
        finally:
            ctx.on_done = None
        self._drain(ctx, phase, sent)
        # Completions arrive a batch at a time: the rate runs to the last
        # completion inside the phase, not to its nominal end.
        stamps = [ctx.done_at[op] for op, *_ in sent
                  if ctx.done_at.get(op, end + 1) <= end]
        return len(stamps) / (max(stamps) - start) if stamps else 0.0

    def run(self, ctx, seconds: float, detail: bool = False) -> Phase:
        s, phase = self.sizes, Phase()
        ctx.phase = phase
        ctx.exec_times = []
        # Open-loop latency is noisy (two GIL-bound workers), so a run
        # that reports only end-to-end metrics spends its time on the
        # busy rate; the light rate and the ladder run with *detail*.
        if detail:
            ladder = 0.3 / len(s.ladder)
            plan = [("light", s.light_rate, 0.2), ("busy", s.busy_rate, 0.3)]
            plan += [(f"r{rate:g}", rate, ladder) for rate in s.ladder]
            capacity_share = 0.2
        elif ctx.rec is not None:
            # A traced run spends its time at the busy rate alone, so
            # every per-layer number describes the load the headline
            # latency is read at.
            plan, capacity_share = [("busy", s.busy_rate, 1.0)], 0.0
        else:
            plan, capacity_share = [("busy", s.busy_rate, 0.75)], 0.25
        start = now()
        rungs, all_lags = {}, []
        for label, rate, share in plan:
            latencies, backlog, lags, arrivals = self._open_phase(
                ctx, phase, rate, share * seconds)
            all_lags += lags
            rungs[label] = (rate, latencies, backlog, arrivals)
        capacity = (self._closed_phase(ctx, phase, capacity_share * seconds)
                    if capacity_share else 0.0)
        phase.elapsed = now() - start
        phase.tokens = len(phase.outputs) * REQUEST_TOKENS
        busy = rungs["busy"][1]
        phase.e2e = {
            "throughput_per_s": Stat(capacity, len(phase.outputs)),
            "latency_ms_p50": p50_stat(busy, 1e3),
            "e2e.latency_ms_tail": tail_stat(busy, 1e3),
        }
        phase.extra = {"bench.generator_lag_ms": tail_stat(all_lags, 1e3)}
        if not detail:
            return phase
        light = rungs["light"][1]
        goodput = 0.0
        for label, (rate, latencies, backlog, arrivals) in rungs.items():
            meets = (
                len(latencies) == arrivals
                and tail_stat(latencies, 1e3).value <= GOODPUT_LIMIT_MS
                # A rung is short, so a rate above the measured capacity
                # may not yet show a long queue; it cannot be sustained.
                and rate < capacity
                # Little's law: more outstanding than the limit lets
                # through means completions fell behind arrivals.
                and backlog <= rate * GOODPUT_LIMIT_MS / 1e3
            )
            if meets:
                goodput = max(goodput, float(rate))
        phase.extra.update({
            "serve.latency_ms_p50.light": p50_stat(light, 1e3),
            "serve.latency_ms_tail.light": tail_stat(light, 1e3),
            "serve.goodput_rps": Stat(goodput, len(rungs)),
        })
        return phase

    def verify(self, ctx, phase: Phase) -> None:
        for k, out in phase.outputs:
            expected = ctx.expected[k]
            out = np.asarray(out)
            if (out.shape != expected.shape or out.dtype != expected.dtype
                    or out.tobytes() != expected.tobytes()):
                phase.wrong += 1
                phase.failed += 1

    def replay_columns(self, phase: Phase, measured: float) -> int:
        return max(1, round(measured))


WORKLOADS = {w.name: w for w in (DecodeB1, PrefillLong, ServeOpen)}
