"""Tests for load shedding, deadlines, and the popularity fallback."""

import pytest

from repro.data.preprocess import ItemVocab
from repro.data.schema import MacroSession, OperationVocab
from repro.serving import (
    AdmissionController,
    DeadlineExceededError,
    MetricsRegistry,
    MicroBatcher,
    PopularityFallback,
    QueueFullError,
)

from ..data.prepare_oracle import ObjectDataset, pack


@pytest.fixture
def tiny_dataset():
    vocab = ItemVocab([101, 102, 103])  # dense: 101->1, 102->2, 103->3
    train = [
        MacroSession([1, 2], [[0], [0]], target=2),
        MacroSession([2], [[0]], target=2),
        MacroSession([3], [[0]], target=1),
    ]
    return pack(ObjectDataset("tiny", train, [], [], vocab, OperationVocab(["click"])))


class FastService:
    def top_k_batch(self, session_ids, k=10, exclude_seen=False):
        return {sid: list(range(k)) for sid in session_ids}


class TestPopularityFallback:
    def test_ranking_by_train_popularity(self, tiny_dataset):
        fallback = PopularityFallback(tiny_dataset)
        # item 102 counted 4x, 101 2x, 103 1x (macro occurrences + targets)
        assert fallback.top_k(3) == [102, 101, 103]

    def test_exclusion_and_truncation(self, tiny_dataset):
        fallback = PopularityFallback(tiny_dataset)
        assert fallback.top_k(2, exclude_raw=(102,)) == [101, 103]
        assert fallback.top_k(99) == [102, 101, 103]


class TestAdmission:
    def test_happy_path_uses_model(self):
        batcher = MicroBatcher(FastService(), max_batch_size=1).start()
        try:
            admission = AdmissionController(batcher, deadline_ms=2000)
            rec = admission.recommend("s", k=3)
            assert rec.source == "model"
            assert rec.items == [0, 1, 2]
        finally:
            batcher.stop()

    def test_queue_full_sheds_with_429_semantics(self):
        registry = MetricsRegistry()
        batcher = MicroBatcher(FastService(), max_queue_depth=1)  # worker not running
        batcher.submit("hog")  # fills the queue
        admission = AdmissionController(batcher, registry=registry)
        with pytest.raises(QueueFullError):
            admission.recommend("s")
        assert registry.snapshot()["requests_shed_total"] == 1

    def test_deadline_miss_serves_fallback(self, tiny_dataset):
        registry = MetricsRegistry()
        batcher = MicroBatcher(FastService(), max_queue_depth=8)  # never scores
        admission = AdmissionController(
            batcher,
            deadline_ms=10,
            fallback=PopularityFallback(tiny_dataset),
            registry=registry,
        )
        rec = admission.recommend("s", k=2)
        assert rec.source == "fallback"
        assert rec.items == [102, 101]
        assert registry.snapshot()["requests_fallback_total"] == 1

    def test_fallback_respects_exclude_seen(self, tiny_dataset):
        batcher = MicroBatcher(FastService(), max_queue_depth=8)
        admission = AdmissionController(
            batcher, deadline_ms=10, fallback=PopularityFallback(tiny_dataset)
        )
        rec = admission.recommend("s", k=2, exclude_seen=True, exclude_raw=(102,))
        assert rec.items == [101, 103]

    def test_deadline_miss_without_fallback_raises(self):
        batcher = MicroBatcher(FastService(), max_queue_depth=8)
        admission = AdmissionController(batcher, deadline_ms=10, fallback=None)
        with pytest.raises(DeadlineExceededError):
            admission.recommend("s")
