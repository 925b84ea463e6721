"""Micro-batching scheduler: coalesce concurrent top-K requests.

The model substrate is dramatically more efficient per request at batch
size B than at batch size 1 (one NumPy forward amortizes all Python/op
overhead across B sessions), so the gateway never calls the model
per-request. Handler threads :meth:`~MicroBatcher.submit` requests into a
bounded queue and block on a :class:`BatchFuture`; a single scorer thread
blocks for the first request, takes whatever else is *already* queued (up
to ``max_batch_size``), scores, and repeats. The trigger is
work-conserving: a batch is the arrivals of the previous flush, never the
product of a timer, so an idle scorer serves a lone request at once. A
full queue rejects immediately with :class:`QueueFullError` — backpressure
for the admission layer to convert into HTTP 429s.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

from ..reliability import ResilientCaller, failpoint
from .metrics import MetricsRegistry

__all__ = ["BatchFuture", "MicroBatcher", "QueueFullError", "DeadlineExceededError"]


class QueueFullError(RuntimeError):
    """The batcher's request queue is at capacity (shed this request)."""


class DeadlineExceededError(TimeoutError):
    """The request's deadline expired before a result was produced."""


class BatchFuture:
    """Single-use handle a submitting thread blocks on for its ranking."""

    def __init__(self):
        self._done = threading.Event()
        self._result: list[int] | None = None
        self._error: BaseException | None = None

    def set_result(self, result: list[int]) -> None:
        self._result = result
        self._done.set()

    def set_error(self, error: BaseException) -> None:
        self._error = error
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> list[int]:
        """Block for the ranking; :class:`DeadlineExceededError` on timeout."""
        if not self._done.wait(timeout):
            raise DeadlineExceededError("batched scoring missed the deadline")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result


@dataclass
class _Request:
    session_id: str
    k: int
    exclude_seen: bool
    future: BatchFuture = field(default_factory=BatchFuture)
    expires_at: float | None = None  # monotonic; worker skips dead requests


class MicroBatcher:
    """Work-conserving request coalescer in front of ``top_k_batch``.

    Parameters
    ----------
    service:
        Anything exposing ``top_k_batch(session_ids, k, exclude_seen)`` —
        normally a :class:`~repro.serve.RecommenderService`.
    max_batch_size:
        Most requests one flush takes from the backlog.
    max_queue_depth:
        Bound on requests waiting to be batched; beyond it ``submit``
        raises :class:`QueueFullError`.
    registry:
        Optional :class:`MetricsRegistry` for batch-size / flush metrics.
    lock:
        Optional lock held around every ``top_k_batch`` call, shared with
        whatever mutates the service (the gateway's ingest path).
    caller:
        Optional :class:`~repro.reliability.ResilientCaller` wrapping each
        model call in retry-with-backoff, a per-call timeout, and a
        circuit breaker. ``None`` calls the model directly (the pre-PR-2
        behavior). The ``batcher.score`` failpoint fires before every
        attempt, so chaos tests can inject intermittent faults and stalls.
    """

    def __init__(
        self,
        service,
        max_batch_size: int = 32,
        max_queue_depth: int = 256,
        registry: MetricsRegistry | None = None,
        lock: threading.Lock | None = None,
        caller: ResilientCaller | None = None,
    ):
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.service = service
        self.max_batch_size = max_batch_size
        self.caller = caller
        self.lock = lock or threading.Lock()
        self._queue: queue.Queue[_Request | None] = queue.Queue(maxsize=max_queue_depth)
        self._thread: threading.Thread | None = None
        registry = registry or MetricsRegistry()
        self._flushes = registry.counter("batcher_flushes_total", "model calls made")
        self._batched = registry.counter("batcher_requests_total", "requests scored")
        self._expired = registry.counter("batcher_expired_total", "requests dead on arrival")
        self._batch_size = registry.histogram(
            "batcher_batch_size", "requests per flush", buckets=(1, 2, 4, 8, 16, 32, 64, 128)
        )
        self._depth = registry.gauge("batcher_queue_depth", "requests waiting")

    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(target=self._run, name="micro-batcher", daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        if self._thread is not None:
            self._queue.put(None)
            self._thread.join(timeout)
            self._thread = None

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    # ------------------------------------------------------------------
    def submit(
        self,
        session_id: str,
        k: int = 10,
        exclude_seen: bool = False,
        deadline_s: float | None = None,
    ) -> BatchFuture:
        """Enqueue one request; returns immediately with its future."""
        expires_at = time.monotonic() + deadline_s if deadline_s is not None else None
        request = _Request(session_id, k, exclude_seen, expires_at=expires_at)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            raise QueueFullError(
                f"batcher queue at capacity ({self._queue.maxsize} pending)"
            ) from None
        self._depth.set(self._queue.qsize())
        return request.future

    # ------------------------------------------------------------------
    def _collect(self) -> list[_Request] | None:
        """Block for a first request, then drain the backlog; None = stop."""
        first = self._queue.get()
        if first is None:
            return None
        batch = [first]
        while len(batch) < self.max_batch_size:
            try:
                nxt = self._queue.get_nowait()
            except queue.Empty:
                break
            if nxt is None:  # stop requested mid-drain: flush, then exit
                self._queue.put(None)
                break
            batch.append(nxt)
        self._depth.set(self._queue.qsize())
        return batch

    def flush(self, batch: list[_Request]) -> None:
        """Score one gathered batch and resolve every request's future."""
        now = time.monotonic()
        live: list[_Request] = []
        for request in batch:
            if request.expires_at is not None and now > request.expires_at:
                self._expired.inc()
                request.future.set_error(DeadlineExceededError("expired before scoring"))
            else:
                live.append(request)
        if not live:
            return
        self._flushes.inc()
        self._batched.inc(len(live))
        self._batch_size.observe(len(live))
        # One model call per (k, exclude_seen) shape; requests for the same
        # session collapse inside top_k_batch's result dict.
        groups: dict[tuple[int, bool], list[_Request]] = {}
        for request in live:
            groups.setdefault((request.k, request.exclude_seen), []).append(request)
        for (k, exclude_seen), members in groups.items():
            session_ids = [m.session_id for m in members]

            def score(session_ids=session_ids, k=k, exclude_seen=exclude_seen):
                # The failpoint sits outside the lock so injected stalls
                # simulate a slow model without freezing the ingest path.
                failpoint("batcher.score", session_ids)
                with self.lock:
                    return self.service.top_k_batch(
                        session_ids, k=k, exclude_seen=exclude_seen
                    )

            try:
                results = self.caller.call(score) if self.caller is not None else score()
            except BaseException as error:  # propagate to every waiter
                for member in members:
                    member.future.set_error(error)
                continue
            for member in members:
                member.future.set_result(results[member.session_id])

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            self.flush(batch)
