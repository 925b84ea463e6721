"""JSON-over-HTTP serving gateway (stdlib-only, threaded).

Request path for ``GET /recommend``::

    handler thread ──▶ ScoreCache ──hit──▶ 200 (cached)
           │ miss
           ▼
    AdmissionController ──queue full──▶ 429 (shed)
           │ admitted
           ▼
    MicroBatcher queue ──▶ scorer thread ──▶ ResilientCaller (retry +
           │                                 timeout + circuit breaker)
           │ deadline miss /                 ──▶ top_k_batch (one model
           │ breaker open /                      call for up to
           │ retries exhausted                   max_batch_size requests)
           ▼
    PopularityFallback ──▶ 200 (degraded)

``POST /events`` ingests micro-behaviors (and invalidates the session's
cache generation); ``GET /healthz`` is a liveness probe; ``GET /metrics``
renders the registry. Built on ``http.server.ThreadingHTTPServer`` so the
whole stack needs nothing outside the standard library — the point is the
architecture (batching, caching, degradation), not the web framework.

With a :class:`~repro.deploy.DeploymentManager` attached (``deployment=``),
the gateway additionally exposes the hot-swap control plane — ``GET/POST
/deploy``, ``POST /deploy/promote``, ``POST /deploy/rollback`` — samples
ingested events into shadow scoring, and scopes every cache entry by the
generation that produced it (``docs/deployment.md``).
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from ..deploy import DeploymentError
from ..reliability import CircuitBreaker, ReliabilityError, ResilientCaller, RetryPolicy
from ..serve import RecommenderService
from .admission import AdmissionController, PopularityFallback
from .batcher import DeadlineExceededError, MicroBatcher, QueueFullError
from .cache import ScoreCache
from .metrics import MetricsRegistry

__all__ = ["ServingGateway", "GatewayConfig"]

# breaker_state gauge encoding (docs/reliability.md)
_BREAKER_STATE_CODES = {
    CircuitBreaker.CLOSED: 0,
    CircuitBreaker.OPEN: 1,
    CircuitBreaker.HALF_OPEN: 2,
}

# retrieval_mode gauge encoding (docs/retrieval.md)
_RETRIEVAL_MODE_CODES = {"exact": 0, "ivf": 1, "ivfpq": 2}

# Limits on what one request may ask of the HTTP layer (docs/serving.md).
MAX_K = 1000  # largest /recommend?k=
MAX_LINE_BYTES = 65536  # request line (414) or one header line (431)
MAX_HEADERS = 100  # header lines per request (431)
MAX_BODY_BYTES = 65536  # Content-Length (413); every body here is a few fields
READ_TIMEOUT_S = 10.0  # each read once a request has begun (408), never the keep-alive wait


class GatewayConfig:
    """Tunable knobs of the serving stack, with production-ish defaults."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,  # 0 = ephemeral, read the bound port from .port
        max_batch_size: int = 32,
        max_queue_depth: int = 256,
        deadline_ms: float = 250.0,
        cache_ttl: float = 30.0,
        cache_entries: int = 4096,
        retry_attempts: int = 3,
        retry_backoff_ms: float = 5.0,
        score_timeout_ms: float | None = None,  # per-call budget; None = unbounded
        breaker_threshold: int = 8,          # consecutive failures before opening
        breaker_reset_s: float = 2.0,        # open -> half-open probe delay
        breaker_half_open_successes: int = 2,  # probe successes to close
    ):
        self.host = host
        self.port = port
        self.max_batch_size = max_batch_size
        self.max_queue_depth = max_queue_depth
        self.deadline_ms = deadline_ms
        self.cache_ttl = cache_ttl
        self.cache_entries = cache_entries
        self.retry_attempts = retry_attempts
        self.retry_backoff_ms = retry_backoff_ms
        self.score_timeout_ms = score_timeout_ms
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_s = breaker_reset_s
        self.breaker_half_open_successes = breaker_half_open_successes


class ServingGateway:
    """Bundle service + batcher + cache + admission behind an HTTP server.

    The request operations (:meth:`ingest`, :meth:`recommend`) are plain
    methods so tests and in-process callers can drive the full stack
    without sockets; the HTTP layer is a thin JSON shim over them.
    """

    def __init__(
        self,
        service: RecommenderService,
        config: GatewayConfig | None = None,
        fallback: PopularityFallback | None = None,
        registry: MetricsRegistry | None = None,
        deployment=None,
    ):
        self.service = service
        self.config = config or GatewayConfig()
        self.registry = registry or MetricsRegistry()
        # Serializes record() vs scoring. Re-entrant: a candidate scoring
        # failure inside a batch triggers rollback on the same thread.
        self.service_lock = threading.RLock()
        self.cache = ScoreCache(
            max_entries=self.config.cache_entries, ttl=self.config.cache_ttl
        )
        # Resilient scoring path: retry + timeout + circuit breaker, with
        # every state transition and retry visible at /metrics.
        r = self.registry
        breaker_state = r.gauge("breaker_state", "0=closed, 1=open, 2=half-open")
        breaker_transitions = r.counter("breaker_transitions_total", "breaker state changes")
        breaker_opens = r.counter("breaker_open_total", "times the breaker opened")
        breaker_last = r.gauge(
            "breaker_last_transition", "monotonic clock of the last breaker state change"
        )
        self._retries = r.counter("scoring_retries_total", "model-call retry attempts")
        self._score_timeouts = r.counter("scoring_timeouts_total", "model calls over budget")
        self._score_failures = r.counter("scoring_failures_total", "failed model-call attempts")

        def on_transition(old: str, new: str) -> None:
            breaker_state.set(_BREAKER_STATE_CODES[new])
            breaker_transitions.inc()
            r.counter(
                f"breaker_transition_{old}_{new}_total",
                f"breaker transitions {old} -> {new}",
            ).inc()
            breaker_last.set(self.breaker.last_transition_at)
            if new == CircuitBreaker.OPEN:
                breaker_opens.inc()

        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            reset_timeout_s=self.config.breaker_reset_s,
            half_open_successes=self.config.breaker_half_open_successes,
            on_transition=on_transition,
        )
        timeout_ms = self.config.score_timeout_ms
        self.caller = ResilientCaller(
            retry=RetryPolicy(
                max_attempts=self.config.retry_attempts,
                backoff_base_s=self.config.retry_backoff_ms / 1000.0,
                timeout_s=timeout_ms / 1000.0 if timeout_ms is not None else None,
            ),
            breaker=self.breaker,
            on_retry=self._retries.inc,
            on_timeout=self._score_timeouts.inc,
            on_failure=self._score_failures.inc,
        )
        self.batcher = MicroBatcher(
            service,
            max_batch_size=self.config.max_batch_size,
            max_queue_depth=self.config.max_queue_depth,
            registry=self.registry,
            lock=self.service_lock,
            caller=self.caller,
        )
        self.admission = AdmissionController(
            self.batcher,
            deadline_ms=self.config.deadline_ms,
            fallback=fallback,
            registry=self.registry,
        )
        self._server: ThreadingHTTPServer | None = None
        self._server_thread: threading.Thread | None = None
        self._started_at = time.monotonic()
        r = self.registry
        self._events = r.counter("events_total", "micro-behavior events ingested")
        self._events_dropped = r.counter("events_dropped_total", "events outside the vocabulary")
        self._recommends = r.counter("requests_recommend_total", "recommendation requests")
        self._cache_hits = r.counter("cache_hits_total", "recommendations served from cache")
        self._cache_misses = r.counter("cache_misses_total", "cache lookups that missed")
        self._cache_hit_rate = r.gauge("cache_hit_rate", "hits / lookups since boot")
        self._active = r.gauge("active_sessions", "live session-table size")
        self._latency = r.histogram("request_latency_ms", "recommend latency, milliseconds")

        # ANN retrieval instrumentation (exact serving leaves these at rest).
        self._retrieval_mode = r.gauge("retrieval_mode", "0=exact, 1=ivf, 2=ivfpq")
        self._retrieval_mode.set(_RETRIEVAL_MODE_CODES[service.retrieval_mode])
        self._retrieval_candidates = r.histogram(
            "retrieval_candidates", "ANN candidate-set size per scored session",
            buckets=(16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0),
        )
        self._retrieval_probes = r.histogram(
            "retrieval_probes", "cells probed per scored session",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        )
        self._retrieval_ann_ms = r.histogram(
            "retrieval_ann_latency_ms", "candidate generation + shortlist, milliseconds"
        )
        self._retrieval_rerank_ms = r.histogram(
            "retrieval_rerank_latency_ms", "exact re-rank of candidates, milliseconds"
        )
        if service.retrieval is not None:
            service.retrieval.observer = self._observe_retrieval

        # Online-training event buffer (satellite of docs/deployment.md).
        self._buffer_depth = r.gauge("event_buffer_depth", "events awaiting the online trainer")
        self._buffer_dropped = r.counter(
            "event_buffer_dropped_total", "events evicted before training saw them"
        )
        self._buffer_dropped_seen = 0  # delta-tracking against buffer.dropped

        # Deployment control plane: hot-swap, canary, shadow scoring.
        self.deployment = deployment
        if deployment is not None:
            deployment.lock = self.service_lock  # flips atomic w.r.t. scoring
            deployment.observer = self._on_deploy_event
            deployment.on_assign = self._on_canary_assign
            self._deploy_generation = r.gauge("deploy_generation", "promotions since boot")
            self._deploy_candidate = r.gauge("deploy_candidate_active", "1 while a canary runs")
            self._deploy_swaps = r.counter("deploy_swaps_total", "candidates staged")
            self._deploy_swap_failures = r.counter(
                "deploy_swap_failures_total", "stagings that never went live"
            )
            self._deploy_promotes = r.counter("deploy_promotes_total", "candidates promoted")
            self._deploy_rollbacks = r.counter("deploy_rollbacks_total", "candidates demoted")
            self._canary_incumbent = r.counter(
                "canary_assignments_incumbent_total", "scoring decisions routed to the incumbent"
            )
            self._canary_candidate = r.counter(
                "canary_assignments_candidate_total", "scoring decisions routed to the candidate"
            )
            self._shadow_incumbent_hr = r.gauge("shadow_incumbent_hr", "windowed online HR@k, incumbent")
            self._shadow_candidate_hr = r.gauge("shadow_candidate_hr", "windowed online HR@k, candidate")
            self._shadow_delta = r.gauge("shadow_delta", "candidate minus incumbent online HR@k")
            self._shadow_observations = r.gauge(
                "shadow_observations", "lifetime paired shadow evaluations"
            )
            self._deploy_generation.set(deployment.generation)
            self._deploy_candidate.set(1 if deployment.candidate is not None else 0)

    @classmethod
    def from_artifact(
        cls,
        path,
        config: GatewayConfig | None = None,
        registry: MetricsRegistry | None = None,
        retrieval: str = "auto",
        nprobe: int | None = None,
    ) -> "ServingGateway":
        """Boot the full serving stack from one artifact file — no dataset.

        The bundle carries the model spec, the weights, the vocabulary, and
        a popularity ranking, so the gateway's degraded path works too.
        ``retrieval`` picks the scoring path (``auto`` switches to ANN at
        :data:`~repro.retrieval.AUTO_ANN_THRESHOLD` catalogue items); the
        active mode is visible at ``/metrics`` as ``retrieval_mode``.
        """
        from ..artifacts import load_artifact

        bundle = load_artifact(path)
        service = RecommenderService.from_artifact(bundle, retrieval=retrieval, nprobe=nprobe)
        ranked = bundle.metadata.get("popularity") or []
        fallback = PopularityFallback.from_ranked(ranked) if ranked else None
        return cls(service, config=config, fallback=fallback, registry=registry)

    # ------------------------------------------------------------------ ops
    def ingest(self, session_id: str, item: int, operation: int) -> dict:
        """Apply one event; bumps the session's cache generation.

        When a canary is live, a deterministic sample of events doubles as
        shadow-scoring test cases: the *pre-event* session prefix is
        captured under the lock, then both generations score it against
        the item the user actually went to (outside the lock — shadow
        evaluation must never block ingest or scoring).
        """
        shadow = None
        with self.service_lock:
            deployment = self.deployment
            if deployment is not None and deployment.candidate is not None:
                shadow = self._capture_shadow(deployment, session_id, item)
            applied = self.service.record(session_id, item, operation)
            session = self.service.session(session_id)
            steps = session.num_macro_steps if session else 0
        self._events.inc()
        if applied:
            self.cache.invalidate(session_id)
        else:
            self._events_dropped.inc()
        self._active.set(self.service.active_sessions)
        self._observe_buffer()
        if applied and shadow is not None:
            example, target_class = shadow
            self.deployment.observe_event(example, target_class, session_id)
        return {"applied": applied, "session_steps": steps}

    def _capture_shadow(self, deployment, session_id: str, item: int):
        """Pre-event (example, target) pair, or ``None`` when not sampled.

        Only genuine macro transitions qualify — a repeat of the current
        macro item carries no next-item signal — and the session must
        already have a scoreable prefix. Called with the service lock held.
        """
        service = self.service
        session = service.session(session_id)
        if session is None or session.num_macro_steps == 0:
            return None
        if item not in service.vocab:
            return None
        dense = service.vocab.encode(item)
        if session.macro_items[-1] == dense:
            return None
        if not deployment.wants_shadow(session_id, session.num_macro_steps):
            return None
        return session.to_example(service.max_macro_len), dense - 1

    def _observe_buffer(self) -> None:
        buffer = self.service.event_buffer
        if buffer is None:
            return
        self._buffer_depth.set(buffer.depth)
        dropped = buffer.dropped
        if dropped > self._buffer_dropped_seen:
            self._buffer_dropped.inc(dropped - self._buffer_dropped_seen)
            self._buffer_dropped_seen = dropped

    def end_session(self, session_id: str) -> None:
        """Drop a session and its cache bookkeeping."""
        with self.service_lock:
            self.service.end_session(session_id)
        self.cache.forget(session_id)
        self._active.set(self.service.active_sessions)

    def recommend(self, session_id: str, k: int = 10, exclude_seen: bool = False) -> dict:
        """Full request path: cache → admission → batcher → fallback.

        Raises :class:`QueueFullError` / :class:`DeadlineExceededError` for
        the HTTP layer to map onto 429 / 504.
        """
        started = time.perf_counter()
        self._recommends.inc()
        raw_seen: tuple[int, ...] = ()
        with self.service_lock:
            session = self.service.session(session_id)
            if session is not None and session.num_macro_steps > 0:
                fingerprint = session.fingerprint(self.service.max_macro_len)
                if exclude_seen:  # read only by the popularity fallback below
                    window_items, _ = session.window(self.service.max_macro_len)
                    raw_seen = tuple(self.service.vocab.decode(i) for i in window_items)
            else:
                fingerprint = None

        if fingerprint is None:
            # Cold start: nothing scoreable yet — popularity if we have it.
            fb = self.admission.fallback
            items = fb.top_k(k) if fb is not None else []
            result = {
                "session_id": session_id,
                "items": items,
                "source": "cold_start",
                "cached": False,
                "degraded": False,
            }
            self._observe_latency(started)
            return result

        scope = self.service.score_scope(session_id)
        cached = self.cache.get(session_id, fingerprint, k, exclude_seen, scope=scope)
        if cached is not None:
            self._cache_hits.inc()
            self._update_hit_rate()
            result = {
                "session_id": session_id,
                "items": cached,
                "source": "cache",
                "cached": True,
                "degraded": False,
            }
            self._observe_latency(started)
            return result
        self._cache_misses.inc()
        self._update_hit_rate()

        try:
            rec = self.admission.recommend(
                session_id, k=k, exclude_seen=exclude_seen, exclude_raw=raw_seen
            )
        finally:
            self._observe_latency(started)
        if rec.source == "model" and self.service.score_scope(session_id) == scope:
            # The scope re-check closes a demotion race: if the session's
            # generation changed while this request was in flight, the
            # scores belong to a generation that must never serve again.
            self.cache.put(session_id, fingerprint, k, rec.items, exclude_seen, scope=scope)
        return {
            "session_id": session_id,
            "items": rec.items,
            "source": rec.source,
            "cached": False,
            "degraded": rec.source != "model",
        }

    def health(self) -> dict:
        payload = {
            "status": "ok",
            "active_sessions": self.service.active_sessions,
            "queue_depth": self.batcher.queue_depth,
            "breaker": self.breaker.state,
            "retrieval": self.service.retrieval_mode,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
        }
        if self.deployment is not None:
            candidate = self.deployment.candidate
            payload["deployment"] = {
                "generation": self.deployment.generation,
                "incumbent": self.deployment.incumbent.version,
                "candidate": candidate.version if candidate is not None else None,
            }
        return payload

    # --------------------------------------------------------------- deploy
    def deploy_status(self) -> dict:
        """Control-plane snapshot (``GET /deploy``)."""
        self._require_deployment()
        return self.deployment.status()

    def deploy_stage(
        self,
        artifact: str,
        canary_pct: float | None = None,
        shadow_sample: float | None = None,
        wait: bool = True,
    ) -> dict:
        """Stage a candidate artifact (``POST /deploy``)."""
        self._require_deployment()
        live = self.deployment.stage(
            artifact, canary_pct=canary_pct, shadow_sample=shadow_sample, wait=wait
        )
        return {"staged": bool(live), **self.deployment.status()}

    def deploy_promote(self, reason: str = "manual") -> dict:
        self._require_deployment()
        promoted = self.deployment.promote(reason=reason)
        return {"promoted": promoted.version, **self.deployment.status()}

    def deploy_rollback(self, reason: str = "manual") -> dict:
        self._require_deployment()
        demoted = self.deployment.rollback(reason=reason)
        return {"rolled_back": demoted.version, **self.deployment.status()}

    def _require_deployment(self) -> None:
        if self.deployment is None:
            raise DeploymentError("no deployment manager attached to this gateway")

    def _on_deploy_event(self, event: str, payload: dict) -> None:
        """DeploymentManager observer: lifecycle → /metrics."""
        if event == "canary_started":
            self._deploy_swaps.inc()
            self._deploy_candidate.set(1)
        elif event == "swap_failed":
            self._deploy_swap_failures.inc()
        elif event == "promoted":
            self._deploy_promotes.inc()
            self._deploy_generation.set(self.deployment.generation)
            self._deploy_candidate.set(0)
            # Old-generation cache entries die by scope mismatch; the LRU
            # evicts them — no flush needed.
        elif event == "rolled_back":
            self._deploy_rollbacks.inc()
            self._deploy_candidate.set(0)
        elif event == "shadow_eval":
            self._shadow_incumbent_hr.set(payload.get("incumbent_hr", 0.0))
            self._shadow_candidate_hr.set(payload.get("candidate_hr", 0.0))
            self._shadow_delta.set(payload.get("delta", 0.0))
            self._shadow_observations.set(payload.get("observations", 0))

    def _on_canary_assign(self, arm: str) -> None:
        if arm == "candidate":
            self._canary_candidate.inc()
        else:
            self._canary_incumbent.inc()

    def _observe_latency(self, started: float) -> None:
        self._latency.observe((time.perf_counter() - started) * 1000.0)

    def _observe_retrieval(self, stats) -> None:
        """RetrievalPipeline observer: per-session ANN telemetry."""
        rows = max(1, stats.rows)
        for _ in range(stats.rows):
            self._retrieval_candidates.observe(stats.candidates / rows)
            self._retrieval_probes.observe(stats.probes / rows)
        self._retrieval_ann_ms.observe(stats.ann_ms)
        self._retrieval_rerank_ms.observe(stats.rerank_ms)

    def _update_hit_rate(self) -> None:
        self._cache_hit_rate.set(self.cache.hit_rate)

    # ------------------------------------------------------------------ http
    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("gateway is not started")
        return self._server.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "ServingGateway":
        """Bind the server, start the batcher and the accept loop."""
        if self._server is not None:
            return self
        self.batcher.start()
        handler = type("GatewayHandler", (_Handler,), {"gateway": self})
        self._server = ThreadingHTTPServer((self.config.host, self.config.port), handler)
        self._server.daemon_threads = True
        self._server_thread = threading.Thread(
            target=self._server.serve_forever, name="gateway-http", daemon=True
        )
        self._started_at = time.monotonic()
        self._server_thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            self._server_thread = None
        self.batcher.stop()

    def __enter__(self) -> "ServingGateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class _HttpError(Exception):
    """A request the HTTP layer refuses; the connection closes after the reply."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs/paths onto the gateway's request operations.

    ``handle_one_request`` replaces the stdlib's: a bounded line reader into
    a plain lowercase dict instead of ``email.parser``, and one
    ``wfile.write`` per response. A cache hit costs ~30 us in process, so
    the stdlib's per-request parsing and two sends were most of what a
    client waited for.
    """

    gateway: ServingGateway  # bound via subclassing in ServingGateway.start
    # Small request/response pairs on keep-alive connections hit the classic
    # Nagle + delayed-ACK 40ms stall without this.
    disable_nagle_algorithm = True

    def handle_one_request(self) -> None:
        self.close_connection = True  # until a request says otherwise
        try:
            try:
                # A keep-alive connection may idle for as long as the client
                # likes; once a request has begun, every read is bounded.
                self.connection.settimeout(None)
                if not self.rfile.peek(1):
                    return
                self.connection.settimeout(READ_TIMEOUT_S)
                self._read_request()
                getattr(self, "do_" + self.command)()
            except _HttpError as error:
                self.close_connection = True  # the stream position is unknown
                self._json(error.status, {"error": str(error)})
            except TimeoutError:
                self.close_connection = True
                self._json(408, {"error": "timed out reading the request"})
        except OSError:  # the client went away; a reply to it fails the same way
            self.close_connection = True

    def _read_request(self) -> None:
        """Request line, headers and body into ``command/path/headers/body``."""
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            raise _HttpError(414, "request line too long")
        words = line.decode("latin-1").split()
        if len(words) != 3:
            raise _HttpError(400, "malformed request line")
        self.command, self.path, version = words
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            raise _HttpError(505, f"unsupported protocol version {version!r}")
        headers: dict[str, str] = {}
        while True:
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                raise _HttpError(431, "header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) == MAX_HEADERS:
                raise _HttpError(431, f"more than {MAX_HEADERS} headers")
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                raise _HttpError(400, "malformed header line")
            headers[name.strip().lower()] = value.strip()
        self.headers = headers
        if not hasattr(self, "do_" + self.command):
            raise _HttpError(501, f"unsupported method {self.command!r}")

        self.body = b""
        length = headers.get("content-length")
        if length is not None or self.command == "POST":
            try:
                size = int(length)
            except (TypeError, ValueError):  # missing, or not a number
                size = -1
            if size < 0:
                raise _HttpError(400, "a request body needs a non-negative integer Content-Length")
            if size > MAX_BODY_BYTES:
                raise _HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
            if headers.get("expect", "").lower() == "100-continue":
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            self.body = self.rfile.read(size)
            if len(self.body) < size:
                raise _HttpError(400, "request body shorter than its Content-Length")
        connection = headers.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            version == "HTTP/1.0" and connection != "keep-alive"
        )

    def _reply(self, status: int, body: bytes, content_type: str, headers: dict | None = None) -> None:
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
        )
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        if self.close_connection:
            head += "Connection: close\r\n"
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

    def _json(self, status: int, payload: dict, headers: dict | None = None) -> None:
        self._reply(status, json.dumps(payload).encode(), "application/json", headers)

    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        path, _, query = self.path.partition("?")
        try:
            if path == "/healthz":
                self._json(200, self.gateway.health())
            elif path == "/metrics":
                self._reply(200, self.gateway.registry.render_text().encode(), "text/plain; version=0.0.4")
            elif path == "/recommend":
                self._recommend(parse_qs(query))
            elif path == "/deploy":
                self._json(200, self.gateway.deploy_status())
            else:
                self._json(404, {"error": f"no route for {path}"})
        except DeploymentError as error:
            self._json(409, {"error": str(error)})
        except Exception as error:  # pragma: no cover - defensive 500
            self._json(500, {"error": str(error)})

    def do_POST(self) -> None:  # noqa: N802
        path = self.path.partition("?")[0]
        try:
            if path == "/events":
                self._events()
            elif path == "/sessions/end":
                payload = self._payload()
                self.gateway.end_session(str(payload["session_id"]))
                self._json(200, {"ended": True})
            elif path == "/deploy":
                self._deploy_stage()
            elif path == "/deploy/promote":
                payload = self._payload()
                self._json(200, self.gateway.deploy_promote(str(payload.get("reason", "manual"))))
            elif path == "/deploy/rollback":
                payload = self._payload()
                self._json(200, self.gateway.deploy_rollback(str(payload.get("reason", "manual"))))
            else:
                self._json(404, {"error": f"no route for {path}"})
        except (KeyError, TypeError, ValueError) as error:
            self._json(400, {"error": f"bad request: {error}"})
        except DeploymentError as error:
            self._json(409, {"error": str(error)})
        except Exception as error:  # pragma: no cover - defensive 500
            self._json(500, {"error": str(error)})

    # ------------------------------------------------------------------
    def _payload(self) -> dict:
        payload = json.loads(self.body or b"{}")
        if not isinstance(payload, dict):
            raise ValueError("the request body must be a JSON object")
        return payload

    def _events(self) -> None:
        payload = self._payload()
        result = self.gateway.ingest(
            str(payload["session_id"]), int(payload["item"]), int(payload["operation"])
        )
        self._json(200, result)

    def _deploy_stage(self) -> None:
        payload = self._payload()
        result = self.gateway.deploy_stage(
            str(payload["artifact"]),
            canary_pct=(
                float(payload["canary_pct"]) if "canary_pct" in payload else None
            ),
            shadow_sample=(
                float(payload["shadow_sample"]) if "shadow_sample" in payload else None
            ),
            wait=bool(payload.get("wait", True)),
        )
        self._json(200 if result["staged"] else 409, result)

    def _recommend(self, query: dict[str, list[str]]) -> None:
        if "session_id" not in query:
            self._json(400, {"error": "session_id query parameter is required"})
            return
        session_id = query["session_id"][0]
        try:
            k = int(query.get("k", ["10"])[0])
        except ValueError:
            k = 0
        if not 1 <= k <= MAX_K:
            self._json(400, {"error": f"k must be an integer between 1 and {MAX_K}"})
            return
        exclude_seen = query.get("exclude_seen", ["0"])[0] in ("1", "true", "yes")
        try:
            self._json(200, self.gateway.recommend(session_id, k=k, exclude_seen=exclude_seen))
        except QueueFullError:
            self._json(429, {"error": "overloaded, try again"}, headers={"Retry-After": "1"})
        except DeadlineExceededError:
            self._json(504, {"error": "deadline exceeded and no fallback configured"})
        except ReliabilityError as error:
            # Breaker open / retries exhausted with no fallback configured.
            self._json(503, {"error": str(error)}, headers={"Retry-After": "1"})
