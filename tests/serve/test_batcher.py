"""Batcher policy tests: bucket targets, latency deadline, parity,
backpressure.

The coalescing policy is exercised synchronously (enqueue, then call
``next_batch`` directly) so timing assertions are deterministic; the
threaded paths are covered by the pool/server tests.
"""

import threading
import time

import numpy as np
import pytest

from repro.engine import batch_buckets
from repro.serve import Batcher, QueueFullError


def _ones(shape=(3,), dtype=np.float64, value=1.0):
    return np.full(shape, value, dtype=dtype)


class TestBuckets:
    def test_batch_buckets_are_powers_of_two(self):
        assert batch_buckets(64) == (1, 2, 4, 8, 16, 32, 64)
        assert batch_buckets(1) == (1,)

    def test_batch_buckets_round_up(self):
        assert batch_buckets(5) == (1, 2, 4, 8)

    def test_batch_buckets_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            batch_buckets(0)

    def test_batcher_shares_planner_buckets(self):
        batcher = Batcher(max_batch=16)
        assert batcher.buckets == batch_buckets(16)


class TestCoalescing:
    def test_bucket_boundary_releases_without_waiting(self):
        """8 pending = a bucket boundary: released well before the (huge)
        latency deadline."""
        batcher = Batcher(max_batch=32, max_latency_ms=10_000.0)
        for i in range(8):
            batcher.enqueue(_ones(value=i))
        start = time.monotonic()
        batch = batcher.next_batch(timeout=1.0)
        elapsed = time.monotonic() - start
        assert batch is not None and len(batch) == 8
        assert elapsed < 1.0  # did not sit out the 10 s deadline

    def test_max_batch_caps_the_take(self):
        batcher = Batcher(max_batch=4, max_latency_ms=1_000.0)
        for i in range(7):
            batcher.enqueue(_ones(value=i))
        assert len(batcher.next_batch(timeout=1.0)) == 4
        assert batcher.pending() == 3

    def test_lone_request_waits_max_latency_then_serves_alone(self):
        batcher = Batcher(max_batch=8, max_latency_ms=50.0)
        batcher.enqueue(_ones())
        start = time.monotonic()
        batch = batcher.next_batch(timeout=1.0)
        waited = time.monotonic() - start
        assert len(batch) == 1
        # It honored the deadline: waited ~max_latency for company, but
        # not much longer.
        assert 0.03 <= waited < 0.5

    def test_arrival_during_wait_fills_the_bucket(self):
        batcher = Batcher(max_batch=8, max_latency_ms=500.0)
        batcher.enqueue(_ones(value=0))

        def late_arrival():
            time.sleep(0.02)
            batcher.enqueue(_ones(value=1))

        thread = threading.Thread(target=late_arrival)
        thread.start()
        start = time.monotonic()
        batch = batcher.next_batch(timeout=2.0)
        waited = time.monotonic() - start
        thread.join()
        # Pair = bucket 2 = the lone-request target: released on arrival,
        # far before the 500 ms deadline.
        assert len(batch) == 2
        assert waited < 0.4

    def test_fifo_order_within_batch(self):
        batcher = Batcher(max_batch=8, max_latency_ms=1_000.0)
        for i in range(8):
            batcher.enqueue(_ones(value=i))
        batch = batcher.next_batch(timeout=1.0)
        values = [float(r.x[0]) for r in batch.requests]
        assert values == [float(i) for i in range(8)]

    def test_max_batch_1_serves_immediately(self):
        """max_batch=1 disables coalescing: no latency wait at all."""
        batcher = Batcher(max_batch=1, max_latency_ms=10_000.0)
        batcher.enqueue(_ones())
        start = time.monotonic()
        batch = batcher.next_batch(timeout=1.0)
        assert len(batch) == 1
        assert time.monotonic() - start < 0.5

    def test_idle_timeout_returns_none(self):
        batcher = Batcher()
        assert batcher.next_batch(timeout=0.01) is None

    def test_known_population_caps_the_target(self):
        """A producer that knows at most n requests can be pending (the
        sequence scheduler's decoding streams) caps the target at n."""
        batcher = Batcher(max_batch=8, max_latency_ms=10_000.0)
        assert batcher._target(1) == 2 and batcher._target(3) == 4
        batcher._set_expected(1)
        assert batcher._target(1) == 1
        batcher._set_expected(3)
        assert batcher._target(1) == 2 and batcher._target(3) == 3
        batcher._set_expected(None)
        assert batcher._target(3) == 4

    def test_lone_expected_request_serves_immediately(self):
        batcher = Batcher(max_batch=8, max_latency_ms=10_000.0)
        batcher._set_expected(1)
        batcher.enqueue(_ones())
        start = time.monotonic()
        batch = batcher.next_batch(timeout=1.0)
        assert len(batch) == 1
        assert time.monotonic() - start < 0.5

    def test_population_drop_releases_a_waiting_batch(self):
        """The companion's stream finishes while the coalescer waits for
        it: the lowered count wakes the wait."""
        batcher = Batcher(max_batch=8, max_latency_ms=10_000.0)
        batcher._set_expected(2)
        batcher.enqueue(_ones())

        def companion_leaves():
            time.sleep(0.05)
            batcher._set_expected(1)

        thread = threading.Thread(target=companion_leaves)
        thread.start()
        start = time.monotonic()
        batch = batcher.next_batch(timeout=1.0)
        waited = time.monotonic() - start
        thread.join()
        assert len(batch) == 1
        assert 0.03 <= waited < 2.0


class TestShapeGrouping:
    def test_incompatible_shapes_do_not_coalesce(self):
        batcher = Batcher(max_batch=8, max_latency_ms=10.0)
        batcher.enqueue(_ones((3,)))
        batcher.enqueue(_ones((4,)))
        batcher.enqueue(_ones((3,)))
        first = batcher.next_batch(timeout=1.0)
        assert [r.x.shape for r in first.requests] == [(3,), (3,)]
        second = batcher.next_batch(timeout=1.0)
        assert [r.x.shape for r in second.requests] == [(4,)]

    def test_dtypes_do_not_mix(self):
        batcher = Batcher(max_batch=8, max_latency_ms=10.0)
        batcher.enqueue(_ones((3,), dtype=np.float32))
        batcher.enqueue(_ones((3,), dtype=np.float16))
        batch = batcher.next_batch(timeout=1.0)
        assert len(batch) == 1
        assert batch.stacked().dtype == np.float32


class TestAdmissionControl:
    def test_queue_full_raises_and_counts(self):
        batcher = Batcher(max_queue=2, max_latency_ms=1.0)
        batcher.enqueue(_ones())
        batcher.enqueue(_ones())
        with pytest.raises(QueueFullError):
            batcher.enqueue(_ones())
        assert batcher.telemetry.rejected == 1
        assert batcher.pending() == 2

    def test_seal_drains_queue_then_rejects_new_arrivals(self):
        batcher = Batcher(max_batch=4, max_latency_ms=1.0)
        handles = [batcher.enqueue(_ones(value=i)) for i in range(2)]

        def consume():
            batch = batcher.next_batch(timeout=1.0)
            batch.resolve(batch.stacked())

        consumer = threading.Thread(target=consume)
        consumer.start()
        batcher.seal(timeout=2.0)
        consumer.join()
        # Everything admitted before the seal was served...
        for i, handle in enumerate(handles):
            assert np.array_equal(handle.result(timeout=1.0), _ones(value=i))
        # ...and nothing new is admitted after it.
        with pytest.raises(RuntimeError):
            batcher.enqueue(_ones())
        assert batcher.pending() == 0

    def test_closed_batcher_rejects_and_fails_queued(self):
        batcher = Batcher(max_latency_ms=1.0)
        pending = batcher.enqueue(_ones())
        batcher.close()
        with pytest.raises(RuntimeError):
            batcher.enqueue(_ones())
        with pytest.raises(RuntimeError, match="closed"):
            pending.result(timeout=1.0)
        assert batcher.next_batch(timeout=0.01) is None


class TestBatchResolution:
    def test_resolve_splits_per_request(self):
        batcher = Batcher(max_batch=4, max_latency_ms=1.0)
        handles = [batcher.enqueue(_ones(value=i)) for i in range(4)]
        batch = batcher.next_batch(timeout=1.0)
        stacked = batch.stacked()
        assert stacked.shape == (4, 3)
        batch.resolve(stacked * 2.0)
        for i, handle in enumerate(handles):
            assert np.array_equal(handle.result(timeout=1.0), _ones(value=i) * 2)

    def test_resolve_rejects_wrong_count(self):
        batcher = Batcher(max_batch=2, max_latency_ms=1.0)
        batcher.enqueue(_ones())
        batcher.enqueue(_ones())
        batch = batcher.next_batch(timeout=1.0)
        with pytest.raises(ValueError, match="batch"):
            batch.resolve(np.zeros((5, 3)))

    def test_fail_propagates_to_all_requests(self):
        batcher = Batcher(max_batch=2, max_latency_ms=1.0)
        handles = [batcher.enqueue(_ones()) for _ in range(2)]
        batch = batcher.next_batch(timeout=1.0)
        batch.fail(ValueError("boom"))
        for handle in handles:
            with pytest.raises(ValueError, match="boom"):
                handle.result(timeout=1.0)

    def test_result_timeout(self):
        batcher = Batcher(max_latency_ms=1.0)
        handle = batcher.enqueue(_ones())
        with pytest.raises(TimeoutError):
            handle.result(timeout=0.01)

    def test_timed_out_requests_leave_the_queue(self):
        """An abandoned request frees its queue slot and is never
        executed (no dead work under overload)."""
        batcher = Batcher(max_batch=4, max_queue=2, max_latency_ms=1.0)
        abandoned = batcher.enqueue(_ones(value=0))
        batcher.enqueue(_ones(value=1))
        with pytest.raises(TimeoutError):  # caller gives up
            abandoned.result(timeout=0.01)
        # Its slot is free again: admission succeeds where it would
        # have been a QueueFullError.
        batcher.enqueue(_ones(value=2))
        batch = batcher.next_batch(timeout=1.0)
        values = [float(r.x[0]) for r in batch.requests]
        assert values == [1.0, 2.0]  # the cancelled request is gone
        assert batcher.telemetry.cancelled == 1


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Batcher(max_batch=0)
        with pytest.raises(ValueError):
            Batcher(max_queue=0)
        with pytest.raises(ValueError):
            Batcher(max_latency_ms=-1.0)
