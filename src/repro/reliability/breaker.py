"""Retry, per-call timeout, and a closed/open/half-open circuit breaker.

One wedged or crashing model call must not take the whole serving path
down with it. The composition here is the standard production recipe:

* :class:`RetryPolicy` — bounded attempts with exponential backoff and an
  optional per-call timeout (the call runs on a daemon thread so a truly
  wedged dependency cannot pin the caller);
* :class:`CircuitBreaker` — counts consecutive failures; at the threshold
  it *opens* and fails fast (callers route to their fallback) until a
  recovery timeout elapses, then *half-opens* to let a single probe
  through, closing again only after enough probe successes;
* :class:`ResilientCaller` — glues the two around any zero-arg callable.

Every failure surfaced by the caller derives from
:class:`ReliabilityError`, so upstream degradation logic can catch one
type instead of enumerating failure modes. This module deliberately
imports nothing from the rest of ``repro`` — metrics hooks are plain
callables the serving layer wires up.
"""

from __future__ import annotations

import contextvars
import threading
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

__all__ = [
    "ReliabilityError",
    "CircuitOpenError",
    "ScoringTimeoutError",
    "RetriesExhaustedError",
    "RetryPolicy",
    "CircuitBreaker",
    "ResilientCaller",
    "call_with_timeout",
]

T = TypeVar("T")


class ReliabilityError(RuntimeError):
    """Base of every failure the resilient call path can surface."""


class CircuitOpenError(ReliabilityError):
    """The breaker is open: fail fast, serve the fallback."""


class ScoringTimeoutError(ReliabilityError, TimeoutError):
    """A single call exceeded its per-call timeout."""


class RetriesExhaustedError(ReliabilityError):
    """Every retry attempt failed; the last cause is ``__cause__``."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff: 1x, 2x, 4x, ... of ``backoff_base_s``."""

    max_attempts: int = 3
    backoff_base_s: float = 0.005
    backoff_max_s: float = 0.25
    timeout_s: float | None = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def backoff_s(self, attempt: int) -> float:
        """Sleep before retrying after failed attempt number ``attempt`` (1-based)."""
        return min(self.backoff_max_s, self.backoff_base_s * (2 ** (attempt - 1)))


def call_with_timeout(fn: Callable[[], T], timeout_s: float | None) -> T:
    """Run ``fn`` with a wall-clock budget.

    The call executes on a daemon thread, in a copy of the caller's
    ``contextvars`` context (so under the caller's grad mode and dtype);
    on timeout the caller gets :class:`ScoringTimeoutError` immediately
    while the stray call finishes (or wedges) in the background without
    pinning anything.
    """
    if timeout_s is None:
        return fn()
    outcome: dict[str, object] = {}
    done = threading.Event()
    context = contextvars.copy_context()

    def run() -> None:
        try:
            outcome["value"] = context.run(fn)
        except BaseException as error:  # noqa: BLE001 — relayed to the caller
            outcome["error"] = error
        finally:
            done.set()

    thread = threading.Thread(target=run, name="timed-call", daemon=True)
    thread.start()
    if not done.wait(timeout_s):
        raise ScoringTimeoutError(f"call exceeded its {timeout_s * 1000:.0f}ms budget")
    if "error" in outcome:
        raise outcome["error"]  # type: ignore[misc]
    return outcome["value"]  # type: ignore[return-value]


class CircuitBreaker:
    """Consecutive-failure breaker with half-open probing.

    States: ``closed`` (traffic flows; failures counted), ``open`` (all
    calls rejected until ``reset_timeout_s`` elapses), ``half_open`` (one
    probe in flight at a time; ``half_open_successes`` consecutive probe
    successes close the breaker, any probe failure reopens it).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout_s: float = 30.0,
        half_open_successes: int = 1,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str], None] | None = None,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if half_open_successes < 1:
            raise ValueError("half_open_successes must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.half_open_successes = half_open_successes
        self.clock = clock
        self.on_transition = on_transition
        self._state = self.CLOSED
        self._failures = 0
        self._probe_successes = 0
        self._probe_in_flight = False
        self._opened_at = 0.0
        self._last_transition_at = 0.0
        self._transition_counts: dict[tuple[str, str], int] = {}
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def last_transition_at(self) -> float:
        """Clock time of the most recent state change (0.0 if none yet)."""
        with self._lock:
            return self._last_transition_at

    def transition_counts(self) -> dict[tuple[str, str], int]:
        """How many times each ``(old, new)`` edge has been taken."""
        with self._lock:
            return dict(self._transition_counts)

    def _transition(self, new: str) -> tuple[str, str] | None:
        """Swap states (lock held); returns the edge for post-lock callbacks."""
        old, self._state = self._state, new
        if old == new:
            return None
        self._last_transition_at = self.clock()
        edge = (old, new)
        self._transition_counts[edge] = self._transition_counts.get(edge, 0) + 1
        return edge

    def _notify(self, edge: tuple[str, str] | None) -> None:
        if edge is not None and self.on_transition is not None:
            self.on_transition(*edge)

    def allow(self) -> bool:
        """May a call proceed right now? (Half-open admits one probe.)"""
        edge = None
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self.clock() - self._opened_at < self.reset_timeout_s:
                    return False
                edge = self._transition(self.HALF_OPEN)
                self._probe_successes = 0
                self._probe_in_flight = True
            elif self._probe_in_flight:
                return False
            else:
                self._probe_in_flight = True
        self._notify(edge)
        return True

    def record_success(self) -> None:
        edge = None
        with self._lock:
            if self._state == self.CLOSED:
                self._failures = 0
            elif self._state == self.HALF_OPEN:
                self._probe_in_flight = False
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_successes:
                    self._failures = 0
                    edge = self._transition(self.CLOSED)
        self._notify(edge)

    def record_failure(self) -> None:
        edge = None
        with self._lock:
            if self._state == self.CLOSED:
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._opened_at = self.clock()
                    edge = self._transition(self.OPEN)
            elif self._state == self.HALF_OPEN:
                self._probe_in_flight = False
                self._opened_at = self.clock()
                edge = self._transition(self.OPEN)
        self._notify(edge)

    def seconds_until_probe(self) -> float:
        """How long until an open breaker will admit a probe (0 if now)."""
        with self._lock:
            if self._state != self.OPEN:
                return 0.0
            return max(0.0, self.reset_timeout_s - (self.clock() - self._opened_at))


class ResilientCaller:
    """Retry + timeout + breaker around a zero-arg callable.

    Raises :class:`CircuitOpenError` without attempting when the breaker
    is open, and :class:`RetriesExhaustedError` (with the last cause
    chained) when every attempt failed. Metrics hooks (``on_retry``,
    ``on_timeout``, ``on_failure``) are optional zero-arg callables.
    """

    def __init__(
        self,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Callable[[], None] | None = None,
        on_timeout: Callable[[], None] | None = None,
        on_failure: Callable[[], None] | None = None,
    ):
        self.retry = retry or RetryPolicy()
        self.breaker = breaker
        self.sleep = sleep
        self.on_retry = on_retry
        self.on_timeout = on_timeout
        self.on_failure = on_failure

    def call(self, fn: Callable[[], T]) -> T:
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            raise CircuitOpenError(
                f"circuit open; next probe in {breaker.seconds_until_probe():.3f}s"
            )
        last_error: Exception | None = None
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                result = call_with_timeout(fn, self.retry.timeout_s)
            except Exception as error:  # SimulatedCrash (BaseException) passes through
                last_error = error
                if self.on_failure is not None:
                    self.on_failure()
                if isinstance(error, ScoringTimeoutError) and self.on_timeout is not None:
                    self.on_timeout()
                if breaker is not None:
                    breaker.record_failure()
                    if breaker.state == CircuitBreaker.OPEN:
                        break  # opened mid-retry: stop hammering the dependency
                if attempt == self.retry.max_attempts:
                    break
                if self.on_retry is not None:
                    self.on_retry()
                self.sleep(self.retry.backoff_s(attempt))
            else:
                if breaker is not None:
                    breaker.record_success()
                return result
        raise RetriesExhaustedError(
            f"call failed after {attempt} attempt(s): {last_error}"
        ) from last_error
