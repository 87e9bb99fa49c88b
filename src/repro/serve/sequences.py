"""Continuous batching: many live decode streams, one GEMV tick.

The dynamic batcher coalesces *whole requests*; generation needs the
same economics one level lower.  Each live sequence produces one token
per model pass, so n concurrent streams running alone would pay n
lookup-table builds per position.  :class:`SequenceScheduler` instead
drives every stream's next step through one shared
:class:`~repro.serve.batcher.Batcher`: the decode worker pulls a batch
of ``(token, caches)`` pairs -- whatever subset of sequences is ready
this tick, each at its own position -- and runs them as one
:meth:`~repro.api.CompiledModel.decode_step_many` call.  Sequences
join and leave mid-flight (continuous batching): a new stream's first
step simply lands in the next tick alongside sequences hundreds of
tokens in.

Per-row outputs are bit-identical to running each sequence alone --
the batch-invariant engine contract (see
:mod:`repro.gen.model`) -- so coalescing is purely an economic
decision, never a numeric one.

Streams carry per-sequence deadlines (expiry finishes the stream with
``finish_reason="deadline"``), cooperative cancellation
(:meth:`GenerationStream.close`, wired to client disconnects by the
HTTP layer), and admission control: at ``max_sequences`` live streams,
new ones are refused with
:class:`~repro.serve.batcher.QueueFullError` -- the same backpressure
signal (HTTP 429) the request batcher uses.

Every sequence's KV blocks live on one long-lived
:class:`~repro.core.workspace.Workspace` owned by the scheduler --
never reset, blocks released as each stream finishes -- so a busy
server reuses cache memory across sequence lifetimes instead of
allocating per stream.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro._util import check_positive_int
from repro.core.workspace import Workspace
from repro.obs import runtime as _obs
from repro.serve.batcher import Batcher, BatcherClosed, QueueFullError
from repro.serve.telemetry import GenTelemetry

__all__ = ["GenerationStream", "SequenceScheduler"]


class GenerationStream:
    """One live decode stream: iterate to receive token ids.

    Produced by :meth:`SequenceScheduler.generate`.  Each ``__next__``
    hands back one generated token; the step producing the *next*
    token is enqueued onto the scheduler's shared batcher, so pulling
    concurrently from many streams is what forms decode batches.
    After iteration ends (or :meth:`close`), :attr:`finish_reason` is
    one of ``"length"``, ``"eos"``, ``"deadline"`` or ``"cancelled"``
    and the sequence's KV blocks are back in the arena.
    """

    def __init__(
        self,
        scheduler: "SequenceScheduler",
        prompt: np.ndarray,
        max_new_tokens: int,
        *,
        sampler,
        eos_id: int | None,
        deadline_s: float | None,
    ):
        self._scheduler = scheduler
        self._sampler = sampler
        self._eos_id = eos_id
        self._max_new = max_new_tokens
        self._deadline = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )
        self.tokens: list[int] = []
        self.finish_reason: str | None = None
        self.retired = False  # decode worker skips retired sequences
        self._decoding = False  # prefilled and not yet finished
        self._inflight = None
        self._last_token_time: float | None = None
        # Finish is claimed under a lock: the HTTP thread (close on
        # disconnect) and the iterating thread (natural end) can race,
        # and a double finish would double-count the stream in
        # GenTelemetry and double-release the admission slot.
        self._finish_lock = threading.Lock()
        self.caches = []
        try:
            # Inside the try: a failed cache reservation must still
            # release this stream's admission slot (the except path),
            # or the scheduler would leak _active forever.
            self.caches = scheduler._init_caches(
                prompt.shape[1] + max_new_tokens
            )
            started = time.monotonic()
            logits = scheduler._prefill(prompt, self.caches)
            scheduler.telemetry.record_prefill(time.monotonic() - started)
            self._pending = self._sampler.sample(logits)
            self._last_token_time = time.monotonic()
            scheduler._count_decoding(+1)
            self._decoding = True
        except BaseException:
            self._finish("cancelled", record=False)
            scheduler._release(self)
            raise

    # -- iteration ------------------------------------------------------
    def __iter__(self) -> "GenerationStream":
        return self

    def __next__(self) -> int:
        if self.finish_reason is not None:
            raise StopIteration
        token = self._pending
        self.tokens.append(token)
        now = time.monotonic()
        self._scheduler.telemetry.record_token(
            None if self._last_token_time is None
            else now - self._last_token_time
        )
        self._last_token_time = now
        if len(self.tokens) >= self._max_new:
            self._finish("length")
        elif token == self._eos_id:
            self._finish("eos")
        else:
            try:
                self._pending = self._step(token)
            except TimeoutError:
                self._finish("deadline")
            except BaseException:
                self._finish("cancelled")
                raise
        return token

    def _step(self, token: int) -> int:
        """Enqueue this sequence's next decode step and wait for its
        logits row (the tick batches it with other live sequences)."""
        remaining = None
        if self._deadline is not None:
            remaining = self._deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("sequence deadline expired")
        request = self._scheduler._batcher.enqueue(
            np.int64(token), meta=self
        )
        # On failure _inflight stays set: _finish() then waits for the
        # worker to drop (or finish) the request before the KV blocks
        # are released under it.
        self._inflight = request
        logits = request.result(remaining)
        self._inflight = None
        return self._sampler.sample(logits)

    # -- teardown -------------------------------------------------------
    def close(self) -> None:
        """Cancel the stream (client went away); idempotent."""
        if self.finish_reason is None:
            self._finish("cancelled")

    def _finish(self, reason: str, *, record: bool = True) -> None:
        with self._finish_lock:
            if self.finish_reason is not None:
                return
            self.finish_reason = reason
            self.retired = True
            decoding, self._decoding = self._decoding, False
        if decoding:
            self._scheduler._count_decoding(-1)
        request, self._inflight = self._inflight, None
        if request is not None:
            request.cancel()
            # Wait -- without a timeout -- for the drop (or the step)
            # to land before releasing the KV blocks: the worker may
            # still be reading/writing them, and a tick can legitimately
            # outlast any fixed bound (cold engine compile, large
            # coalesced batch).  The wait always ends: a still-queued
            # cancelled request is errored by the next purge (one
            # worker wake-up), a picked one is resolved when its tick
            # completes or fails, and close() fails everything queued.
            try:
                request.result()
            except BaseException:
                pass
        for cache in self.caches:
            cache.close()
        if record:
            self._scheduler.telemetry.record_finish(reason)
            self._scheduler._release(self)

    def __enter__(self) -> "GenerationStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SequenceScheduler:
    """Continuously-batched decode over one compiled model.

    Parameters
    ----------
    compiled:
        A :class:`~repro.api.CompiledModel` whose underlying model has
        the incremental decode API (``init_cache`` / ``prefill`` /
        ``step_many`` -- e.g. :class:`repro.gen.DecoderLM`).
    max_sequences:
        Live-stream admission limit *and* the decode tick's batch cap.
    max_latency_ms:
        How long a tick waits to coalesce more sequences once one is
        ready (the decode analogue of the batcher's knob; keep small --
        it bounds added inter-token latency).  A tick never waits once
        every stream in its decode phase has queued its step: a lone
        stream runs without the wait.
    name:
        Label for the KV arena and worker thread.
    """

    def __init__(
        self,
        compiled,
        *,
        max_sequences: int = 16,
        max_latency_ms: float = 2.0,
        name: str = "default",
        telemetry: GenTelemetry | None = None,
    ):
        check_positive_int(max_sequences, "max_sequences")
        model = compiled.model
        # ``embedding`` distinguishes a token-level LM from the raw
        # encoder stack, which shares the cache/step method names but
        # consumes hidden states rather than token ids.
        for attr in ("init_cache", "prefill", "step_many", "embedding"):
            if getattr(model, attr, None) is None:
                raise TypeError(
                    f"model {type(model).__name__!r} has no incremental "
                    f"decode API (missing {attr}); the sequence "
                    "scheduler needs a DecoderLM-style model"
                )
        from repro.gen.model import mark_batch_invariant

        mark_batch_invariant(model)
        self._compiled = compiled
        self.max_sequences = max_sequences
        self.name = name
        self.telemetry = telemetry or GenTelemetry()
        # The KV arena outlives every sequence and is never reset;
        # caches release their blocks back into it on stream finish.
        self._kv = Workspace(name=f"{name}.kv")
        self._batcher = Batcher(
            max_batch=max_sequences,
            max_latency_ms=max_latency_ms,
            max_queue=max_sequences,
        )
        self._lock = threading.Lock()
        self._active = 0
        # Streams in their decode phase (prefilled, not finished): the
        # only ones whose steps can join a tick.  A prefilling stream
        # cannot, so a lone decoding stream's tick never waits for it.
        self._decoding = 0
        self._closed = False
        self._worker: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "SequenceScheduler":
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is stopped")
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._run,
                    name=f"repro-gen-{self.name}",
                    daemon=True,
                )
                self._worker.start()
        return self

    def stop(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
        self._batcher.close()
        if worker is not None:
            worker.join(timeout=5.0)

    @property
    def running(self) -> bool:
        worker = self._worker
        return worker is not None and worker.is_alive()

    def __enter__(self) -> "SequenceScheduler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- producer side --------------------------------------------------
    def generate(
        self,
        prompt,
        max_new_tokens: int,
        *,
        temperature: float = 0.0,
        top_k: int | None = None,
        seed: int = 0,
        eos_id: int | None = None,
        deadline_s: float | None = None,
    ) -> GenerationStream:
        """Admit one sequence; returns its token stream.

        Raises :class:`~repro.serve.batcher.QueueFullError` when
        ``max_sequences`` streams are already live (backpressure) and
        ``RuntimeError`` when the scheduler is stopped.  Sampling
        controls mirror :meth:`repro.api.CompiledModel.generate`.
        """
        from repro.gen.sampler import Sampler

        check_positive_int(max_new_tokens, "max_new_tokens")
        ids = np.asarray(prompt, dtype=np.int64)
        if ids.ndim == 1:
            ids = ids[None, :]
        if ids.ndim != 2 or ids.shape[0] != 1 or not ids.shape[1]:
            raise ValueError(
                f"prompt must be (prompt_len,) or (1, prompt_len) token "
                f"ids, got shape {np.asarray(prompt).shape}"
            )
        sampler = Sampler(temperature=temperature, top_k=top_k, seed=seed)
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is stopped")
            if self._worker is None:
                raise RuntimeError(
                    "scheduler is not started; call start() or use it as "
                    "a context manager"
                )
            if self._active >= self.max_sequences:
                self.telemetry.record_reject()
                raise QueueFullError(
                    f"{self.max_sequences} sequences are already live"
                )
            self._active += 1
        self.telemetry.record_admit()
        try:
            return GenerationStream(
                self,
                ids,
                max_new_tokens,
                sampler=sampler,
                eos_id=eos_id,
                deadline_s=deadline_s,
            )
        except BaseException:
            self.telemetry.record_finish("cancelled")
            raise

    def active(self) -> int:
        """Streams currently live."""
        with self._lock:
            return self._active

    def set_max_sequences(self, max_sequences: int) -> None:
        """Retune the live-stream admission cap without restarting.

        SLO degradation shrinks it on ``warn`` (fewer concurrent
        streams = shorter decode queues = faster recovery) and restores
        it on recovery.  Streams already live are never evicted --
        only *new* admissions see the new cap; the decode tick's batch
        cap (the batcher's ``max_batch``) keeps its original value, so
        coalescing economics are untouched.
        """
        check_positive_int(max_sequences, "max_sequences")
        with self._lock:
            self.max_sequences = max_sequences

    # -- stream plumbing ------------------------------------------------
    def _init_caches(self, reserve: int):
        return self._compiled.model.init_cache(
            workspace=self._kv, reserve=reserve
        )

    def _prefill(self, ids: np.ndarray, caches) -> np.ndarray:
        if _obs.TRACING:
            from repro.obs.trace import span

            with span(
                "gen.prefill", model=self.name, tokens=int(ids.shape[1])
            ):
                return self._compiled.model.prefill(ids, caches)
        return self._compiled.model.prefill(ids, caches)

    def _count_decoding(self, delta: int) -> None:
        with self._lock:
            self._decoding += delta
            self._batcher._set_expected(self._decoding)

    def _release(self, stream: GenerationStream) -> None:
        with self._lock:
            self._active -= 1

    # -- the decode worker ----------------------------------------------
    def _run(self) -> None:
        while True:
            try:
                batch = self._batcher.next_batch(timeout=0.25)
            except BatcherClosed:
                return
            if batch is None:
                if self._closed:
                    return
                continue
            # A stream cancelled after its request was picked still
            # reaches us; skipping it here keeps the tick from touching
            # KV blocks its finish already released.
            live, gone = [], []
            for request in batch.requests:
                (gone if request.meta.retired else live).append(request)
            for request in gone:
                request.set_error(
                    BatcherClosed("sequence finished before its step ran")
                )
            if not live:
                continue
            tokens = [int(request.x) for request in live]
            cache_lists = [request.meta.caches for request in live]
            self.telemetry.record_tick(len(live))
            tick_trace = None
            started = time.monotonic()
            try:
                from repro.resilience import faults as _faults

                if _faults.ACTIVE:
                    # Inside the try: an injected tick fault fails the
                    # live requests (like a real one), not the loop.
                    _faults.fire("gen.tick")
                if _obs.TRACING:
                    from repro.obs.trace import span

                    with span(
                        "gen.step", model=self.name, sequences=len(live)
                    ) as step_span:
                        # getattr: span() degrades to the no-op span if
                        # tracing raced off since the TRACING check.
                        ctx = getattr(step_span, "context", None)
                        tick_trace = ctx.trace_id if ctx else None
                        logits = self._compiled.decode_step_many(
                            tokens, cache_lists
                        )
                else:
                    logits = self._compiled.decode_step_many(
                        tokens, cache_lists
                    )
            except BaseException as exc:  # noqa: BLE001 -- worker boundary
                for request in live:
                    request.set_error(exc)
                continue
            # The tick's trace id becomes the exemplar on its latency
            # bucket: a slow bucket on /metrics points at a tick trace.
            self.telemetry.record_tick_time(
                time.monotonic() - started, trace_id=tick_trace
            )
            for request, row in zip(live, logits):
                request.set_result(row)
