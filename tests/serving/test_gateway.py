"""Gateway tests: in-process request path plus threaded HTTP end-to-end."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.data import generate_dataset, jd_appliances_config, prepare_dataset
from repro.eval import Recommender
from repro.serve import RecommenderService
from repro.serving import (
    GatewayConfig,
    PopularityFallback,
    QueueFullError,
    ServingGateway,
    run_load,
)


class EchoLast(Recommender):
    """Deterministic: rank the last macro item first, its successor second."""

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


@pytest.fixture(scope="module")
def dataset():
    cfg = jd_appliances_config()
    return prepare_dataset(
        generate_dataset(cfg, 200, seed=3), cfg.operations, min_support=2, name="jd"
    )


def make_gateway(dataset, **config_kwargs) -> ServingGateway:
    service = RecommenderService(
        EchoLast(dataset.num_items), dataset.vocab, num_ops=dataset.num_operations
    )
    return ServingGateway(
        service,
        GatewayConfig(**config_kwargs),
        fallback=PopularityFallback(dataset),
    )


def raw_item(dataset, dense):
    return dataset.vocab.decode(dense)


class TestInProcessPath:
    """The full request pipeline without sockets — deterministic and fast."""

    def test_ingest_then_recommend(self, dataset):
        gateway = make_gateway(dataset)
        gateway.batcher.start()
        try:
            out = gateway.ingest("u", raw_item(dataset, 5), 0)
            assert out == {"applied": True, "session_steps": 1}
            result = gateway.recommend("u", k=3)
            assert result["source"] == "model"
            assert result["items"][0] == raw_item(dataset, 5)
        finally:
            gateway.batcher.stop()

    def test_cache_hit_and_invalidate_on_event(self, dataset):
        gateway = make_gateway(dataset)
        gateway.batcher.start()
        try:
            gateway.ingest("u", raw_item(dataset, 5), 0)
            first = gateway.recommend("u", k=3)
            second = gateway.recommend("u", k=3)
            assert not first["cached"] and second["cached"]
            assert second["items"] == first["items"]
            # A new event must invalidate: next answer is freshly scored.
            gateway.ingest("u", raw_item(dataset, 6), 0)
            third = gateway.recommend("u", k=3)
            assert not third["cached"]
            assert third["items"][0] == raw_item(dataset, 6)
        finally:
            gateway.batcher.stop()

    def test_cold_start_serves_popularity(self, dataset):
        gateway = make_gateway(dataset)
        result = gateway.recommend("never-seen", k=5)
        assert result["source"] == "cold_start"
        assert result["items"] == gateway.admission.fallback.top_k(5)

    def test_unknown_item_does_not_create_session(self, dataset):
        gateway = make_gateway(dataset)
        out = gateway.ingest("u", 10**9, 0)
        assert out == {"applied": False, "session_steps": 0}
        assert gateway.service.active_sessions == 0

    def test_queue_full_sheds(self, dataset):
        gateway = make_gateway(dataset, max_queue_depth=1)  # batcher NOT started
        gateway.ingest("u", raw_item(dataset, 5), 0)
        gateway.batcher.submit("hog")  # occupies the only queue slot
        with pytest.raises(QueueFullError):
            gateway.recommend("u")
        assert gateway.registry.snapshot()["requests_shed_total"] == 1

    def test_deadline_miss_degrades_to_popularity(self, dataset):
        gateway = make_gateway(dataset, deadline_ms=15)  # batcher NOT started
        gateway.ingest("u", raw_item(dataset, 5), 0)
        result = gateway.recommend("u", k=4)
        assert result["source"] == "fallback"
        assert result["items"] == gateway.admission.fallback.top_k(4)
        assert gateway.registry.snapshot()["requests_fallback_total"] == 1

    def test_end_session(self, dataset):
        gateway = make_gateway(dataset)
        gateway.ingest("u", raw_item(dataset, 5), 0)
        gateway.end_session("u")
        assert gateway.service.active_sessions == 0


def http_json(url, payload=None):
    if payload is not None:
        req = urllib.request.Request(
            url, data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
        )
    else:
        req = url
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


@pytest.mark.slow
class TestHTTPEndToEnd:
    """Real sockets, real threads, ephemeral port."""

    @pytest.fixture
    def gateway(self, dataset):
        with make_gateway(dataset) as gw:
            yield gw

    def test_healthz(self, gateway):
        status, body = http_json(f"{gateway.address}/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_event_recommend_cycle(self, gateway, dataset):
        status, body = http_json(
            f"{gateway.address}/events",
            {"session_id": "u", "item": raw_item(dataset, 5), "operation": 0},
        )
        assert status == 200 and body["applied"]
        status, body = http_json(f"{gateway.address}/recommend?session_id=u&k=3")
        assert status == 200
        assert body["items"][0] == raw_item(dataset, 5)
        status, body = http_json(f"{gateway.address}/recommend?session_id=u&k=3")
        assert body["cached"] is True

    def test_bad_requests(self, gateway):
        with pytest.raises(urllib.error.HTTPError) as err:
            http_json(f"{gateway.address}/recommend")  # no session_id
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            http_json(f"{gateway.address}/nope")
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            http_json(f"{gateway.address}/events", {"session_id": "u"})  # missing fields
        assert err.value.code == 400

    def test_load_generator_end_to_end(self, gateway, dataset):
        items = [raw_item(dataset, d) for d in range(1, min(30, dataset.num_items) + 1)]
        report = run_load(
            gateway.config.host,
            gateway.port,
            items,
            num_ops=dataset.num_operations,
            workers=8,
            requests_per_worker=12,
            event_every=3,
        )
        assert report.errors == 0
        assert report.requests == 8 * 12
        assert set(report.status_counts) == {200}
        assert report.percentile(0.5) > 0

        # /metrics must expose the acceptance-criteria quartet after a run.
        with urllib.request.urlopen(f"{gateway.address}/metrics", timeout=10) as resp:
            text = resp.read().decode()
        assert "requests_recommend_total" in text
        assert "cache_hit_rate" in text
        assert "requests_shed_total" in text
        assert "request_latency_ms_quantile" in text
        snap = gateway.registry.snapshot()
        assert snap["requests_recommend_total"] == 8 * 12
        assert snap["request_latency_ms"]["count"] == 8 * 12
        assert snap["cache_hits_total"] + snap["cache_misses_total"] > 0
