"""Production serving stack on top of :mod:`repro.serve`.

``repro.serve`` answers "top-K for this session" one caller at a time;
this package wraps it in the machinery a real deployment needs:

* :mod:`~repro.serving.batcher` — coalesce concurrent requests into one
  model call (work-conserving micro-batching: no timer);
* :mod:`~repro.serving.cache` — generation-aware TTL cache of rankings,
  invalidated the moment a session ingests a new event;
* :mod:`~repro.serving.admission` — bounded-queue load shedding,
  per-request deadlines, popularity fallback (graceful degradation);
  model-call failures surfaced by the resilient scoring path
  (:mod:`repro.reliability`: retry, per-call timeout, circuit breaker)
  degrade to the same fallback instead of erroring;
* :mod:`~repro.serving.metrics` — counters / gauges / latency histograms
  rendered at ``/metrics``;
* :mod:`~repro.serving.gateway` — the stdlib JSON-over-HTTP front end;
* :mod:`~repro.serving.loadgen` — a closed-loop load generator for
  benchmarks and end-to-end tests.

See ``docs/serving.md`` for the architecture walk-through and
``repro serve`` for a one-command demo.
"""

from .admission import AdmissionController, PopularityFallback, Recommendation
from .batcher import BatchFuture, DeadlineExceededError, MicroBatcher, QueueFullError
from .cache import ScoreCache
from .gateway import GatewayConfig, ServingGateway
from .loadgen import LoadReport, SessionPersona, run_load
from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "AdmissionController",
    "PopularityFallback",
    "Recommendation",
    "BatchFuture",
    "DeadlineExceededError",
    "MicroBatcher",
    "QueueFullError",
    "ScoreCache",
    "GatewayConfig",
    "ServingGateway",
    "LoadReport",
    "SessionPersona",
    "run_load",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]
