"""Chaos tests: the serving path under injected model failures.

These drive the full in-process request pipeline (cache -> admission ->
batcher -> resilient model call -> fallback) with the ``batcher.score``
failpoint armed, and assert the degradation contract: requests always get
an answer, the breaker's state is visible, and recovery is automatic.
"""

import json
import time
import urllib.request

import numpy as np
import pytest

from repro import reliability as rel
from repro.eval import Recommender
from repro.reliability import CircuitBreaker
from repro.serve import RecommenderService
from repro.serving import GatewayConfig, PopularityFallback, ServingGateway


class EchoLast(Recommender):
    """Deterministic: rank the last macro item first."""

    name = "echo"

    def __init__(self, num_items):
        self.num_items = num_items

    def fit(self, dataset):
        return self

    def score_batch(self, batch) -> np.ndarray:
        scores = np.zeros((batch.batch_size, self.num_items))
        lengths = batch.macro_lengths()
        for b in range(batch.batch_size):
            last = batch.items[b, lengths[b] - 1]
            scores[b, last - 1] = 2.0
            scores[b, last % self.num_items] = 1.0
        return scores


def make_gateway(dataset, **config_kwargs) -> ServingGateway:
    service = RecommenderService(
        EchoLast(dataset.num_items), dataset.vocab, num_ops=dataset.num_operations
    )
    config_kwargs.setdefault("retry_backoff_ms", 1.0)
    return ServingGateway(
        service, GatewayConfig(**config_kwargs), fallback=PopularityFallback(dataset)
    )


def seed_sessions(gateway, dataset, count):
    """Create ``count`` sessions, each with one scoreable event."""
    ids = [f"chaos-{i}" for i in range(count)]
    for i, session_id in enumerate(ids):
        gateway.ingest(session_id, dataset.vocab.decode(1 + i % 20), 0)
    return ids


class TestRetriesRecover:
    def test_20pct_fault_rate_is_absorbed_by_retries(self, dataset):
        """Every 5th model call fails; retry-with-backoff hides all of it."""
        gateway = make_gateway(dataset, retry_attempts=3)
        gateway.batcher.start()
        try:
            sessions = seed_sessions(gateway, dataset, 20)
            rel.arm("batcher.score", rel.raising(RuntimeError("injected")), every=5)
            results = [gateway.recommend(s, k=5) for s in sessions]
        finally:
            gateway.batcher.stop()
        assert all(r["source"] == "model" for r in results)
        assert all(r["degraded"] is False for r in results)
        assert all(len(r["items"]) == 5 for r in results)
        assert gateway.registry.counter("scoring_retries_total").value > 0
        assert gateway.breaker.state == CircuitBreaker.CLOSED

    def test_stall_injection_is_cut_by_the_call_timeout(self, dataset):
        """A wedged model call trips the per-call timeout, not the deadline."""
        gateway = make_gateway(
            dataset, retry_attempts=1, score_timeout_ms=20.0, deadline_ms=1000.0
        )
        gateway.batcher.start()
        try:
            (session,) = seed_sessions(gateway, dataset, 1)
            rel.arm("batcher.score", rel.sleeping(0.3))
            result = gateway.recommend(session, k=5)
        finally:
            gateway.batcher.stop()
        assert result["source"] == "fallback"
        assert result["degraded"] is True
        assert gateway.registry.counter("scoring_timeouts_total").value >= 1


class TestBreakerOpensAndFallsBack:
    def test_hard_failure_opens_breaker_and_degrades(self, dataset):
        gateway = make_gateway(
            dataset,
            retry_attempts=1,
            breaker_threshold=2,
            breaker_reset_s=60.0,  # stays open for the whole test
        )
        gateway.batcher.start()
        try:
            sessions = seed_sessions(gateway, dataset, 6)
            rel.arm("batcher.score", rel.raising(RuntimeError("model down")))
            results = [gateway.recommend(s, k=5) for s in sessions]
        finally:
            gateway.batcher.stop()
        # Every request still answered, all from the popularity fallback.
        assert all(r["source"] == "fallback" and r["degraded"] for r in results)
        assert all(r["items"] for r in results)
        assert gateway.breaker.state == CircuitBreaker.OPEN
        assert gateway.health()["breaker"] == CircuitBreaker.OPEN
        # Once open, the model is not called again: exactly 2 score attempts.
        assert rel.stats("batcher.score")[0] == 2
        registry = gateway.registry
        assert registry.counter("breaker_open_total").value == 1
        assert registry.counter("requests_degraded_total").value == len(sessions)
        assert registry.gauge("breaker_state").value == 1

    def test_half_open_probe_closes_after_recovery(self, dataset):
        gateway = make_gateway(
            dataset,
            retry_attempts=1,
            breaker_threshold=1,
            breaker_reset_s=0.05,
            breaker_half_open_successes=1,
        )
        gateway.batcher.start()
        try:
            sessions = seed_sessions(gateway, dataset, 3)
            rel.arm("batcher.score", rel.raising(RuntimeError("blip")))
            degraded = gateway.recommend(sessions[0], k=5)
            assert degraded["source"] == "fallback"
            assert gateway.breaker.state == CircuitBreaker.OPEN

            rel.disarm("batcher.score")  # dependency healed
            time.sleep(0.1)  # past breaker_reset_s: next call is the probe
            probed = gateway.recommend(sessions[1], k=5)
        finally:
            gateway.batcher.stop()
        assert probed["source"] == "model"
        assert probed["degraded"] is False
        assert gateway.breaker.state == CircuitBreaker.CLOSED
        # closed->open, open->half_open, half_open->closed
        assert gateway.registry.counter("breaker_transitions_total").value == 3
        assert gateway.registry.gauge("breaker_state").value == 0


class TestMetricsVisibility:
    def test_metrics_text_exposes_the_breaker(self, dataset):
        gateway = make_gateway(dataset, retry_attempts=1, breaker_threshold=1)
        gateway.batcher.start()
        try:
            sessions = seed_sessions(gateway, dataset, 2)
            rel.arm("batcher.score", rel.raising(RuntimeError("down")))
            gateway.recommend(sessions[0], k=5)
        finally:
            gateway.batcher.stop()
        text = gateway.registry.render_text()
        for name in (
            "breaker_state",
            "breaker_transitions_total",
            "breaker_open_total",
            "scoring_retries_total",
            "scoring_timeouts_total",
            "scoring_failures_total",
            "requests_degraded_total",
        ):
            assert name in text, name
        assert "breaker_state 1" in text  # open


@pytest.mark.slow
class TestHTTPChaos:
    """End-to-end over sockets: 20% injected faults, zero unhandled 500s."""

    def test_no_500s_under_injected_faults(self, dataset):
        gateway = make_gateway(dataset, retry_attempts=3, breaker_threshold=8)
        with gateway:
            sessions = seed_sessions(gateway, dataset, 50)
            rel.arm("batcher.score", rel.raising(RuntimeError("injected")), every=5)
            statuses, bodies = [], []
            for session_id in sessions:
                url = f"{gateway.address}/recommend?session_id={session_id}&k=5"
                with urllib.request.urlopen(url, timeout=10) as response:
                    statuses.append(response.status)
                    bodies.append(json.loads(response.read()))
        assert all(status == 200 for status in statuses)
        assert all(body["items"] for body in bodies)
        assert all("degraded" in body for body in bodies)
        assert not any(500 <= status for status in statuses)
