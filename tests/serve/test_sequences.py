"""SequenceScheduler: continuous batching, deadlines, cancellation."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import QuantConfig, quantize
from repro.gen.model import DecoderLM
from repro.nn.transformer import TransformerConfig
from repro.serve import QueueFullError, SequenceScheduler
from repro.serve.telemetry import GenTelemetry

CONFIG = TransformerConfig(dim=32, heads=4, ff_dim=64, layers=2)
VOCAB = 50


@pytest.fixture(scope="module")
def compiled():
    model = DecoderLM(CONFIG, VOCAB, seed=3)
    return quantize(
        model, QuantConfig(bits=2, mu=4, backend="biqgemm")
    ).compile(batch_hint=1)


@pytest.fixture()
def scheduler(compiled):
    sched = SequenceScheduler(compiled, max_sequences=4, name="test")
    with sched:
        yield sched


PROMPTS = [
    np.array([1, 4, 9, 16, 2]),
    np.array([7, 3]),
    np.array([10, 20, 30]),
]


class TestContinuousBatching:
    def test_concurrent_streams_bit_identical_to_generate(
        self, compiled, scheduler
    ):
        references = [compiled.generate(p, 10) for p in PROMPTS]
        results: list = [None] * len(PROMPTS)

        def consume(i):
            results[i] = list(scheduler.generate(PROMPTS[i], 10))

        threads = [
            threading.Thread(target=consume, args=(i,))
            for i in range(len(PROMPTS))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == references

    def test_ticks_coalesce_concurrent_sequences(self, compiled):
        telemetry = GenTelemetry()
        sched = SequenceScheduler(
            compiled, max_sequences=4, name="coalesce", telemetry=telemetry
        )
        with sched:
            barrier = threading.Barrier(3)

            def consume(i):
                stream = sched.generate(PROMPTS[i], 8)
                barrier.wait()
                list(stream)

            threads = [
                threading.Thread(target=consume, args=(i,))
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert telemetry.tokens == 24
        # Batched ticks: strictly fewer model executions than tokens.
        assert telemetry.ticks < telemetry.tokens
        assert telemetry.coalescing_ratio > 1.0
        assert telemetry.tokens_per_s > 0

    def test_lone_stream_does_not_wait_for_a_companion(self, compiled):
        """One decoding stream: no other stream can join its tick, so a
        step never sits out max_latency_ms."""
        reference = compiled.generate(PROMPTS[0], 20)
        sched = SequenceScheduler(
            compiled, max_sequences=4, max_latency_ms=200.0, name="lone"
        )
        with sched:
            started = time.monotonic()
            tokens = list(sched.generate(PROMPTS[0], 20))
            elapsed = time.monotonic() - started
        assert tokens == reference
        # 19 steps at 200 ms each would take 3.8 s.
        assert elapsed < 0.2 * 19 / 4

    def test_two_live_streams_still_coalesce(self, compiled):
        references = [compiled.generate(p, 12) for p in PROMPTS[:2]]
        telemetry = GenTelemetry()
        sched = SequenceScheduler(
            compiled,
            max_sequences=4,
            max_latency_ms=200.0,
            name="pair",
            telemetry=telemetry,
        )
        results: list = [None, None]
        with sched:
            streams = [sched.generate(p, 12) for p in PROMPTS[:2]]

            def consume(i):
                results[i] = list(streams[i])

            threads = [
                threading.Thread(target=consume, args=(i,)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert results == references
        assert telemetry.tokens == 24
        # Both streams decode throughout, so their steps share ticks.
        assert telemetry.coalescing_ratio > 1.5

    def test_sequential_stream_matches_generate(self, compiled, scheduler):
        reference = compiled.generate(PROMPTS[0], 6)
        assert list(scheduler.generate(PROMPTS[0], 6)) == reference

    def test_sampled_stream_replays_with_seed(self, scheduler):
        kwargs = dict(temperature=0.9, top_k=10, seed=11)
        first = list(scheduler.generate(PROMPTS[0], 6, **kwargs))
        second = list(scheduler.generate(PROMPTS[0], 6, **kwargs))
        assert first == second


class TestLifecycle:
    def test_eos_finishes_stream(self, compiled, scheduler):
        reference = compiled.generate(PROMPTS[0], 10)
        stream = scheduler.generate(PROMPTS[0], 10, eos_id=reference[2])
        assert list(stream) == reference[:3]
        assert stream.finish_reason == "eos"

    def test_length_finish(self, scheduler):
        stream = scheduler.generate(PROMPTS[1], 4)
        assert len(list(stream)) == 4
        assert stream.finish_reason == "length"

    def test_cancel_mid_stream_releases_slot(self, scheduler):
        stream = scheduler.generate(PROMPTS[0], 1000)
        next(stream)
        next(stream)
        stream.close()
        assert stream.finish_reason == "cancelled"
        assert scheduler.active() == 0
        with pytest.raises(StopIteration):
            next(stream)

    def test_deadline_expires(self, scheduler):
        stream = scheduler.generate(
            PROMPTS[1], 100_000, deadline_s=0.05
        )
        tokens = list(stream)
        assert stream.finish_reason == "deadline"
        assert len(tokens) < 100_000
        assert scheduler.telemetry.deadline_expired >= 1

    def test_backpressure_at_max_sequences(self, scheduler):
        streams = [
            scheduler.generate(np.array([i + 1, i + 2]), 50)
            for i in range(4)
        ]
        try:
            with pytest.raises(QueueFullError):
                scheduler.generate(PROMPTS[0], 5)
            assert scheduler.telemetry.rejected == 1
        finally:
            for stream in streams:
                stream.close()
        assert scheduler.active() == 0

    def test_failed_cache_init_releases_admission_slot(
        self, scheduler, monkeypatch
    ):
        """A cache reservation that raises must not leak the _active
        slot, or the scheduler eventually rejects all new streams."""

        def boom(reserve):
            raise MemoryError("arena exhausted")

        monkeypatch.setattr(scheduler, "_init_caches", boom)
        for _ in range(scheduler.max_sequences + 1):
            with pytest.raises(MemoryError):
                scheduler.generate(PROMPTS[0], 4)
        assert scheduler.active() == 0
        monkeypatch.undo()
        stream = scheduler.generate(PROMPTS[1], 3)
        assert len(list(stream)) == 3
        assert scheduler.active() == 0

    def test_failed_prefill_releases_admission_slot(
        self, scheduler
    ):
        """Out-of-range prompt ids fail inside prefill (after cache
        init); the slot and the KV blocks must still come back."""
        for _ in range(scheduler.max_sequences + 1):
            with pytest.raises(ValueError, match=r"\[0, 50\)"):
                scheduler.generate(np.array([1, -7]), 4)
        assert scheduler.active() == 0
        stream = scheduler.generate(PROMPTS[1], 3)
        assert len(list(stream)) == 3

    def test_stopped_scheduler_refuses(self, compiled):
        sched = SequenceScheduler(compiled, max_sequences=2)
        sched.start()
        sched.stop()
        with pytest.raises(RuntimeError):
            sched.generate(PROMPTS[0], 4)

    def test_rejects_models_without_step_many(self):
        from repro.nn.transformer import TransformerEncoder

        encoder = TransformerEncoder(CONFIG, np.random.default_rng(0))
        cm = quantize(
            encoder, QuantConfig(bits=2, mu=4, backend="biqgemm")
        ).compile(batch_hint=1)
        with pytest.raises(TypeError, match="decode API"):
            SequenceScheduler(cm)
