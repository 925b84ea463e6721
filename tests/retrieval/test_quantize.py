"""QuantizedScorer fidelity and the serving --compute plumbing.

The reduced-precision contract (docs/performance.md, "Quantized
inference"): float16/int8 are storage formats whose scoring ends in an
exact float32 re-rank, so recall@20 against the exact float32 ranking
(``queries @ items.T``, what native scoring of a float32 model computes)
must be >= 0.999; the fused ``top_k`` must agree with select-after-score;
and serving must stamp the compute mode into its cache scope and
requantize on hot-swap. There is no ``float32`` mode: native scoring is
float32, and a float64 model still serves natively in float64.
"""

import numpy as np
import pytest

from repro.retrieval.quantize import COMPUTE_MODES, QuantizedScorer
from repro.data.dataset import DataLoader, collate
from repro.eval import ExperimentConfig, ExperimentRunner
from repro.eval.topk import top_k_indices
from repro.retrieval.factorize import factorize
from repro.serve import RecommenderService

QUANT = ("float16", "int8")


@pytest.fixture(scope="module")
def recommender(dataset):
    config = ExperimentConfig(dim=16, epochs=1, seed=0, patience=1)
    return ExperimentRunner(dataset, config).run("EMBSR").recommender


@pytest.fixture(scope="module")
def factorization(recommender):
    return factorize(recommender.model)


@pytest.fixture(scope="module")
def test_batches(dataset):
    return list(DataLoader(dataset.test, batch_size=64))


def _exact32(factorization, batch):
    """The exact float32 scores the quantized modes re-rank against."""
    table32 = np.asarray(factorization.item_matrix(), dtype=np.float32)
    return np.asarray(factorization.query_matrix(batch), dtype=np.float32) @ table32.T


def _recall_at_20(approx, exact):
    exact_top = top_k_indices(exact, 20)
    approx_top = top_k_indices(approx, 20)
    hits = sum(
        len(set(exact_top[row]) & set(approx_top[row])) for row in range(exact.shape[0])
    )
    return hits / (exact.shape[0] * 20)


class TestScorer:
    def test_invalid_mode_rejected(self, factorization):
        with pytest.raises(ValueError):
            QuantizedScorer(factorization, compute="bfloat16")

    def test_storage_footprint(self, factorization):
        f32_nbytes = np.asarray(factorization.item_matrix(), dtype=np.float32).nbytes
        f16 = QuantizedScorer(factorization, compute="float16")
        i8 = QuantizedScorer(factorization, compute="int8")
        assert f16.storage_nbytes() == f32_nbytes // 2
        # int8 stores one byte per weight plus a float32 scale per row.
        assert i8.storage_nbytes() == f32_nbytes // 4 + 4 * i8.num_items

    def test_float32_mode_is_gone(self, factorization):
        with pytest.raises(ValueError, match="float16/int8"):
            QuantizedScorer(factorization, compute="float32")

    @pytest.mark.parametrize("mode", ["float16", "int8"])
    def test_quantized_recall_at_20(self, factorization, test_batches, mode):
        exact = np.concatenate([_exact32(factorization, b) for b in test_batches])
        scorer = QuantizedScorer(factorization, compute=mode)
        approx = np.concatenate([scorer.score_batch(b) for b in test_batches])
        assert _recall_at_20(approx, exact) >= 0.999

    @pytest.mark.parametrize("mode", QUANT)
    def test_fused_top_k_matches_select_after_score(self, factorization, test_batches, mode):
        scorer = QuantizedScorer(factorization, compute=mode)
        for batch in test_batches:
            q = factorization.query_matrix(batch)
            scores = scorer.scores(q)
            idx, vals = scorer.top_k(q, 20)
            assert np.array_equal(idx, top_k_indices(scores, 20))
            assert np.array_equal(vals, np.take_along_axis(scores, idx, axis=1))

    def test_rerank_top_clamped_to_catalogue(self, factorization, test_batches):
        scorer = QuantizedScorer(factorization, compute="int8", rerank_top=10**9)
        assert scorer.rerank_top == scorer.num_items
        # With every item re-ranked, the scores are the exact float32 ones.
        batch = test_batches[0]
        assert np.array_equal(scorer.score_batch(batch), _exact32(factorization, batch))


class TestServing:
    @pytest.fixture
    def service(self, recommender, dataset):
        return RecommenderService(
            recommender, dataset.vocab, num_ops=dataset.num_operations
        )

    def _fill(self, service, dataset, n=6):
        for i, sid in enumerate(f"s{i}" for i in range(n)):
            session = dataset.test[i % len(dataset.test)]
            for item, ops in zip(session.macro_items, session.op_sequences):
                service.record(sid, dataset.vocab.decode(item), ops[0])
        return [f"s{i}" for i in range(n)]

    def test_scope_stamps_compute_mode(self, service):
        assert service.retrieval_scope() is None
        service.enable_compute("float16")
        assert service.retrieval_scope() == ("compute", "float16", None)
        service.enable_compute("native")
        assert service.retrieval_scope() is None

    def test_all_modes_accepted(self, service):
        for mode in COMPUTE_MODES:
            assert service.enable_compute(mode) == mode
        assert service.compute == COMPUTE_MODES[-1]

    def test_unknown_mode_rejected(self, service):
        with pytest.raises(ValueError):
            service.enable_compute("float8")

    def test_float32_mode_rejected_naming_the_rest(self, service):
        with pytest.raises(ValueError, match="'native', 'float16', 'int8'"):
            service.enable_compute("float32")
        assert service.compute == "native"

    def test_native_is_float32(self, service, dataset):
        sid = self._fill(service, dataset, n=1)[0]
        batch = collate([service.session(sid).to_example(service.max_macro_len)])
        assert service.recommender.score_batch(batch).dtype == np.float32

    def test_float64_model_serves_natively_in_float64(self, dataset):
        config = ExperimentConfig(dim=16, epochs=0, seed=0, dtype="float64")
        recommender = ExperimentRunner(dataset, config).run("EMBSR").recommender
        service = RecommenderService(recommender, dataset.vocab, num_ops=dataset.num_operations)
        sid = self._fill(service, dataset, n=1)[0]
        batch = collate([service.session(sid).to_example(service.max_macro_len)])
        assert recommender.score_batch(batch).dtype == np.float64
        assert service.enable_compute("native") == "native"
        assert service.top_k(sid, k=5)

    def test_conflicts_with_ann_retrieval(self, service):
        service.retrieval = object()  # stand-in for an active ANN pipeline
        with pytest.raises(ValueError):
            service.enable_compute("int8")
        service.retrieval = None

    def test_quantized_top_k_matches_reference(self, service, dataset):
        sids = self._fill(service, dataset)
        reference = {sid: service.top_k(sid, k=10) for sid in sids}
        for mode in QUANT:
            service.enable_compute(mode)
            for sid in sids:
                assert service.top_k(sid, k=10) == reference[sid], (mode, sid)

    def test_adopt_recommender_requantizes(self, service, recommender):
        service.enable_compute("int8", rerank_top=64)
        snapshot = service._quantized
        service.adopt_recommender(recommender)
        assert service.compute == "int8"
        assert service._quantized is not snapshot
        assert service._quantized.rerank_top == 64

    def test_adopt_unfactorizable_degrades_to_native(self, service, dataset):
        service.enable_compute("float16")

        class Opaque:
            name = "opaque"

            def score_batch(self, batch):
                return np.zeros((len(batch.targets), dataset.num_items - 1))

        service.adopt_recommender(Opaque())
        assert service.compute == "native"
        assert service._quantized is None
