"""Dynamic micro-batching: coalesce requests onto plan-cache buckets.

BiQGEMM builds its lookup tables once per *call* and reuses them for
every input column, so a batch of 16 coalesced requests pays one table
build instead of 16 (paper Section III-B); the cost-model crossovers in
:mod:`repro.engine.dispatch` are likewise batch-bucketed.  This module
is the queueing policy that exploits both facts:

- requests enter a bounded FIFO (admission control: a full queue raises
  :class:`QueueFullError` instead of growing without bound);
- a free worker coalesces the pending requests toward the **next
  plan-cache bucket boundary** (:func:`repro.engine.batch_buckets`),
  waiting at most ``max_latency_ms`` beyond the oldest request's
  arrival -- bucket filled or deadline hit, whichever comes first;
- only shape/dtype-compatible requests coalesce (they must stack into
  one model input); the batch is split back per request afterwards, so
  callers see single-request semantics with batched economics.

Per-request outputs are bit-identical to unbatched execution: every
engine computes output columns independently, and the stack/split is
pure reshaping.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError
from dataclasses import dataclass, field

import numpy as np

from repro._util import check_positive_int
from repro.engine import batch_buckets
from repro.obs import runtime as _obs
from repro.serve.telemetry import ModelTelemetry

__all__ = [
    "Batcher",
    "Batch",
    "BatcherClosed",
    "PendingRequest",
    "QueueFullError",
    "WorkerLost",
]


def _tagged(exc: BaseException, request_id: str | None) -> BaseException:
    """Attach *request_id* to *exc* (message + ``exc.request_id``) so
    rejection errors are correlatable with the request that hit them."""
    if request_id is not None:
        exc.args = (f"{exc.args[0]} [request {request_id}]",) + exc.args[1:]
        exc.request_id = request_id
    return exc


class QueueFullError(RuntimeError):
    """Admission control: the request queue is at capacity.

    Serving frontends map this to backpressure (HTTP 429) rather than
    letting latency grow without bound.
    """


class BatcherClosed(RuntimeError):
    """The batcher is sealed or closed and admits no new requests.

    A typed error so callers can distinguish a retryable routing race
    (a hot-swap sealed the old runtime while they held it) from real
    failures."""


class WorkerLost(RuntimeError):
    """The worker executing a request died before replying.

    The cluster dispatcher raises this for jobs in flight on a killed
    or crashed worker process; the scheduler raises it for decode ticks
    interrupted the same way.  It is the *retryable* worker-death
    signal: predict paths redeliver the request idempotently, decode
    streams re-prefill from their accepted-token log.  Lives here (not
    in the cluster package) so single-process code can catch it without
    importing multiprocessing machinery.
    """


@dataclass(eq=False)  # identity semantics: requests live in queues
class PendingRequest:
    """One enqueued request and its completion state."""

    x: np.ndarray
    enqueue_time: float
    # Opaque caller payload riding with the request (the sequence
    # scheduler hangs a sequence's KV caches here so the decode worker
    # can route each coalesced token to its own cache).  Never touches
    # coalescing: requests group by (shape, dtype) of ``x`` alone.
    meta: object | None = None
    # Caller-assigned correlation id (PR 7 convention): rejection and
    # failure errors carry it as ``exc.request_id`` so 429/503 bodies
    # and logs point at the request that hit them.
    request_id: str | None = None
    _done: threading.Event = field(default_factory=threading.Event)
    _result: np.ndarray | None = None
    _error: BaseException | None = None
    _cancelled: bool = False
    # Tracing (None unless tracing was on at admission): the context of
    # this request's ``serve.queue`` span.  It crosses threads with the
    # request -- the worker parents its execution spans on it and the
    # batch span links it, so one trace id follows the request from the
    # HTTP thread through the queue into the worker.
    trace: object | None = None
    _queue_span: object | None = None

    def end_queue_span(self, **attrs) -> None:
        """Close the ``serve.queue`` span, once (no-op without one)."""
        span = self._queue_span
        if span is not None:
            self._queue_span = None
            if attrs:
                span.set(**attrs)
            span.end()

    @property
    def group_key(self) -> tuple:
        """Requests coalesce only within a (shape, dtype) group."""
        return (self.x.shape, self.x.dtype.str)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Mark abandoned: a still-queued request is dropped instead of
        executed (its caller stopped waiting); one already picked into
        a batch completes normally."""
        self._cancelled = True

    def set_result(self, value: np.ndarray) -> None:
        self._result = value
        self._done.set()

    def set_error(self, exc: BaseException) -> None:
        self._error = exc
        self._done.set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block until served; re-raises the worker-side error.

        A timeout cancels the request, so an abandoned entry does not
        occupy a queue slot or burn a worker on output nobody reads.
        """
        if not self._done.wait(timeout):
            self.cancel()
            raise TimeoutError("request was not served within the timeout")
        if self._error is not None:
            raise self._error
        return self._result  # type: ignore[return-value]


@dataclass(frozen=True)
class Batch:
    """A coalesced group of compatible requests, ready to execute."""

    requests: tuple[PendingRequest, ...]

    def __len__(self) -> int:
        return len(self.requests)

    def stacked(self) -> np.ndarray:
        """The model input: requests stacked along a new batch axis."""
        return np.stack([r.x for r in self.requests])

    def resolve(self, outputs: np.ndarray) -> None:
        """Split *outputs* (leading axis = batch) back per request."""
        outputs = np.asarray(outputs)
        if outputs.shape[0] != len(self.requests):
            raise ValueError(
                f"model returned {outputs.shape[0]} outputs for a batch "
                f"of {len(self.requests)}"
            )
        for request, out in zip(self.requests, outputs):
            request.set_result(out)

    def fail(self, exc: BaseException) -> None:
        for request in self.requests:
            request.set_error(exc)


class Batcher:
    """Bounded request queue with bucket-aligned dynamic batching.

    Producers call :meth:`submit` (blocking) or :meth:`enqueue`
    (handle-returning); consumers -- the
    :class:`~repro.serve.pool.WorkerPool` threads -- call
    :meth:`next_batch`.  All coalescing policy lives here, so it is
    testable without threads: enqueue requests, call ``next_batch``,
    inspect the batch.
    """

    def __init__(
        self,
        *,
        max_batch: int = 32,
        max_latency_ms: float = 5.0,
        max_queue: int = 256,
        telemetry: ModelTelemetry | None = None,
    ):
        check_positive_int(max_batch, "max_batch")
        check_positive_int(max_queue, "max_queue")
        if max_latency_ms < 0:
            raise ValueError(
                f"max_latency_ms must be >= 0, got {max_latency_ms}"
            )
        self.max_batch = max_batch
        self.max_latency = max_latency_ms / 1e3
        self.max_queue = max_queue
        self.telemetry = telemetry or ModelTelemetry()
        # Bucket targets shared with the dispatch planner's cache keys.
        self.buckets = batch_buckets(max_batch)
        self._queue: list[PendingRequest] = []
        self._cond = threading.Condition()
        self._closed = False
        self._sealed = False
        # Batch *formation* is single-flight (one leader coalesces at a
        # time) so concurrent workers never assemble overlapping
        # batches; execution still overlaps freely outside the lock.
        self._coalescing = False
        # The most requests that can be pending at once, when the
        # producer knows it (the sequence scheduler: one per stream in
        # its decode phase), else None.  Once that many are queued no
        # companion can arrive, so coalescing stops without waiting out
        # max_latency_ms.  Set through _set_expected.
        self._expected: int | None = None

    # -- producer side -------------------------------------------------
    def enqueue(
        self, x: np.ndarray, *, meta=None, request_id: str | None = None
    ) -> PendingRequest:
        """Admit one request; returns its handle.

        *meta* rides on the handle untouched (see
        :attr:`PendingRequest.meta`).  Raises :class:`QueueFullError`
        when the queue is at capacity (the caller should surface
        backpressure, not retry blindly) and ``RuntimeError`` after
        :meth:`close`.  *request_id* rides into every rejection error
        (message text and ``exc.request_id``) for log correlation.
        """
        request = PendingRequest(
            x=np.asarray(x),
            enqueue_time=time.monotonic(),
            meta=meta,
            request_id=request_id,
        )
        if _obs.TRACING:
            # Started on the producer thread so it parents onto the
            # caller's active span (serve.admit), and *before* the
            # request becomes visible to workers -- a worker that picks
            # it immediately must already see the trace context.  Ended
            # when the request is picked into a batch, purged, rejected
            # here, or failed at close -- its duration is the queue wait.
            from repro.obs.trace import get_tracer

            queue_span = get_tracer().start_span("serve.queue")
            request._queue_span = queue_span
            request.trace = queue_span.context
        try:
            with self._cond:
                self._purge_cancelled()
                if self._closed or self._sealed:
                    raise _tagged(
                        BatcherClosed("batcher is closed"), request_id
                    )
                if len(self._queue) >= self.max_queue:
                    self.telemetry.record_reject()
                    raise _tagged(
                        QueueFullError(
                            f"request queue is full "
                            f"({self.max_queue} pending)"
                        ),
                        request_id,
                    )
                self._queue.append(request)
                self.telemetry.record_enqueue(len(self._queue))
                self._cond.notify_all()
        except BaseException as exc:
            request.end_queue_span(
                outcome="rejected", error=type(exc).__name__
            )
            raise
        return request

    def submit(
        self,
        x: np.ndarray,
        timeout: float | None = None,
        *,
        request_id: str | None = None,
    ) -> np.ndarray:
        """Admit one request and block until its result is ready."""
        return self.enqueue(x, request_id=request_id).result(timeout)

    # -- consumer side -------------------------------------------------
    def _target(self, count: int) -> int:
        """The coalescing target for *count* compatible pending requests.

        The next plan-cache bucket boundary at or above *count* -- except
        that a lone request always waits for a second (otherwise bucket 1
        would disable coalescing entirely) -- capped at ``max_batch``.
        A count already on a boundary > 1 *is* the target: release now.
        Never more than the producer says can be pending (see
        :meth:`_set_expected`).
        """
        target = self.max_batch
        if count < self.max_batch:
            for bucket in self.buckets:
                if bucket >= count and not (bucket == 1 and count == 1):
                    target = min(bucket if bucket > 1 else 2, self.max_batch)
                    break
        if self._expected is not None:
            target = min(target, max(self._expected, 1))
        return target

    def _set_expected(self, count: int | None) -> None:
        """Tell the coalescer that at most *count* requests can be
        pending at once (None: unknown).  For a producer that knows
        its population -- the sequence scheduler -- so a lone stream's
        step does not wait ``max_latency_ms`` for a companion that
        cannot exist."""
        with self._cond:
            self._expected = count
            self._cond.notify_all()

    def _purge_cancelled(self) -> None:
        """Drop abandoned requests (holding the lock): their callers
        timed out, so executing them is dead work and their queue slots
        belong to live traffic."""
        live = [r for r in self._queue if not r.cancelled]
        if len(live) != len(self._queue):
            self.telemetry.record_cancelled(len(self._queue) - len(live))
            for request in self._queue:
                if request.cancelled:
                    request.end_queue_span(outcome="cancelled")
                    # Completing the drop makes "this request will never
                    # execute" observable: the sequence scheduler waits
                    # on it before releasing the sequence's KV blocks.
                    request.set_error(
                        CancelledError("request cancelled while queued")
                    )
            self._queue = live
            self._cond.notify_all()

    def _compatible(self) -> list[PendingRequest]:
        """Head-compatible pending requests, FIFO order, up to
        ``max_batch``."""
        head_key = self._queue[0].group_key
        picked = []
        for request in self._queue:
            if request.group_key == head_key:
                picked.append(request)
                if len(picked) >= self.max_batch:
                    break
        return picked

    def next_batch(self, timeout: float | None = None) -> Batch | None:
        """Coalesce and return the next batch, or ``None`` on idle
        timeout / close.

        Policy: wait (up to *timeout*) for a first request; then keep
        coalescing head-compatible requests until either the bucket
        target is reached or the oldest request has waited
        ``max_latency_ms``, whichever comes first.
        """
        deadline_idle = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._cond:
            self._purge_cancelled()
            while self._coalescing or not self._queue:
                if self._closed:
                    return None
                remaining = None
                if deadline_idle is not None:
                    remaining = deadline_idle - time.monotonic()
                    if remaining <= 0:
                        return None
                self._cond.wait(remaining)
            self._coalescing = True
            try:
                head = self._queue[0]
                latency_deadline = head.enqueue_time + self.max_latency
                while not self._closed:
                    self._purge_cancelled()
                    if not self._queue:
                        return None
                    picked = self._compatible()
                    if len(picked) >= self._target(len(picked)):
                        break
                    remaining = latency_deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                self._purge_cancelled()
                if self._closed or not self._queue:
                    return None
                picked = self._compatible()
                for request in picked:
                    self._queue.remove(request)
            finally:
                self._coalescing = False
                self._cond.notify_all()
        for request in picked:
            request.end_queue_span(outcome="batched", batch=len(picked))
        self.telemetry.record_batch(len(picked))
        return Batch(requests=tuple(picked))

    def pending(self) -> int:
        """Current queue depth."""
        with self._cond:
            return len(self._queue)

    def set_max_latency(self, max_latency_ms: float) -> None:
        """Retune the coalescing deadline live.

        SLO degradation raises it: LUT builds amortize across a batch,
        so under pressure the profitable move is *bigger* coalesced
        batches, not faster ticks.  A batch already coalescing keeps
        the deadline it started with; the next one sees the new value.
        """
        if max_latency_ms < 0:
            raise ValueError(
                f"max_latency_ms must be >= 0, got {max_latency_ms}"
            )
        with self._cond:
            self.max_latency = max_latency_ms / 1e3
            self._cond.notify_all()

    def seal(self, timeout: float = 5.0) -> None:
        """Stop admitting new requests and wait for the queue to drain.

        The graceful half of shutdown (hot-swap, eviction): everything
        already admitted is still coalesced and served by the workers;
        only new arrivals are refused.  Returns when the queue is empty
        or *timeout* elapses (remaining requests then fail in
        :meth:`close`).
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            self._sealed = True
            self._cond.notify_all()
            while self._queue:
                self._purge_cancelled()
                remaining = deadline - time.monotonic()
                if not self._queue or remaining <= 0:
                    break
                self._cond.wait(remaining)

    def close(self) -> None:
        """Stop admitting; wake idle consumers; fail queued requests."""
        with self._cond:
            self._closed = True
            queued, self._queue = self._queue, []
            self._cond.notify_all()
        for request in queued:
            request.end_queue_span(outcome="closed", error="BatcherClosed")
            # Typed, so hot-swap stragglers are retried onto the new
            # pool by Server.predict (and map to 503, not 500).
            request.set_error(
                _tagged(
                    BatcherClosed("batcher closed while queued"),
                    request.request_id,
                )
            )
