"""Retrieval wired into serving: artifact recipes, parity, cache scoping."""

import numpy as np
import pytest

from repro.artifacts import load_artifact, save_artifact, store_retrieval_spec
from repro.registry import ModelSpec, build_module
from repro.retrieval import IndexSpec, RetrievalPipeline, build_index
from repro.serve import RecommenderService
from repro.serving import ScoreCache, ServingGateway

N_ITEMS = 80
RAW_IDS = list(range(1000, 1000 + N_ITEMS))


@pytest.fixture()
def artifact_path(tmp_path):
    spec = ModelSpec(
        name="STAMP", family="stamp", num_items=N_ITEMS, num_ops=4, params={"dim": 8, "seed": 3}
    )
    module = build_module(spec)
    path = tmp_path / "model.npz"
    save_artifact(
        path,
        spec=spec,
        weights=dict(module.state_dict()),
        item_ids=RAW_IDS,
        metadata={"popularity": RAW_IDS[:10]},
    )
    return path


def drive(service, sid="u1"):
    for item, op in [(1005, 1), (1006, 2), (1006, 1), (1010, 0)]:
        service.record(sid, item, op)


class TestArtifactRecipe:
    def test_spec_round_trip(self, artifact_path):
        spec = IndexSpec(kind="ivf", cells=8, nprobe=3, seed=9)
        store_retrieval_spec(artifact_path, spec)
        assert load_artifact(artifact_path).retrieval_spec() == spec

    def test_no_spec_returns_none(self, artifact_path):
        assert load_artifact(artifact_path).retrieval_spec() is None

    def test_store_preserves_bundle(self, artifact_path):
        before = load_artifact(artifact_path)
        store_retrieval_spec(artifact_path, IndexSpec(cells=4))
        after = load_artifact(artifact_path)
        assert after.item_ids == before.item_ids
        assert after.metadata["popularity"] == before.metadata["popularity"]
        assert set(after.weights) == set(before.weights)
        for name in before.weights:
            assert np.array_equal(after.weights[name], before.weights[name])

    def test_rebuild_from_stored_spec_is_deterministic(self, artifact_path):
        store_retrieval_spec(artifact_path, IndexSpec(kind="ivf", cells=8, seed=4))
        svc_a = RecommenderService.from_artifact(artifact_path, retrieval="ivf")
        svc_b = RecommenderService.from_artifact(artifact_path, retrieval="ivf")
        assert svc_a.retrieval.index.signature() == svc_b.retrieval.index.signature()


class TestServiceParity:
    def test_ann_full_probe_matches_exact(self, artifact_path):
        store_retrieval_spec(artifact_path, IndexSpec(kind="ivf", cells=8, nprobe=8))
        exact = RecommenderService.from_artifact(artifact_path, retrieval="exact")
        ann = RecommenderService.from_artifact(artifact_path, retrieval="ivf")
        drive(exact)
        drive(ann)
        for exclude in (False, True):
            assert exact.top_k("u1", k=12, exclude_seen=exclude) == ann.top_k(
                "u1", k=12, exclude_seen=exclude
            )

    def test_exclude_seen_never_returns_seen(self, artifact_path):
        store_retrieval_spec(artifact_path, IndexSpec(kind="ivf", cells=8, nprobe=2))
        svc = RecommenderService.from_artifact(artifact_path, retrieval="ivf")
        drive(svc)
        items = svc.top_k("u1", k=20, exclude_seen=True)
        assert len(items) == 20
        assert not {1005, 1006, 1010} & set(items)

    def test_auto_stays_exact_below_threshold(self, artifact_path):
        svc = RecommenderService.from_artifact(artifact_path, retrieval="auto")
        assert svc.retrieval_mode == "exact"
        assert svc.retrieval_scope() is None

    def test_mode_and_scope_reported(self, artifact_path):
        svc = RecommenderService.from_artifact(artifact_path, retrieval="ivfpq")
        assert svc.retrieval_mode == "ivfpq"
        kind, generation, nprobe = svc.retrieval_scope()
        assert kind == "ivfpq" and generation >= 1 and nprobe >= 1


class TestCacheScope:
    """Regression: exact-path and ANN-path entries must never alias."""

    FP = ((1, 2), ((0,), (1,)))

    def test_scope_separates_entries(self):
        cache = ScoreCache()
        cache.put("s", self.FP, 5, [1, 2, 3], scope=None)
        cache.put("s", self.FP, 5, [9, 8, 7], scope=("ivf", 1, 4))
        assert cache.get("s", self.FP, 5, scope=None) == [1, 2, 3]
        assert cache.get("s", self.FP, 5, scope=("ivf", 1, 4)) == [9, 8, 7]

    def test_new_generation_misses_old_entries(self):
        cache = ScoreCache()
        cache.put("s", self.FP, 5, [1], scope=("ivf", 1, 4))
        assert cache.get("s", self.FP, 5, scope=("ivf", 2, 4)) is None

    def test_positional_compat(self):
        # Pre-scope call sites (positional args) keep working.
        cache = ScoreCache()
        cache.put("s", self.FP, 5, [1, 2])
        assert cache.get("s", self.FP, 5) == [1, 2]

    def test_pipeline_generations_unique(self, artifact_path):
        svc_a = RecommenderService.from_artifact(artifact_path, retrieval="ivf")
        svc_b = RecommenderService.from_artifact(artifact_path, retrieval="ivf")
        assert svc_a.retrieval.generation != svc_b.retrieval.generation


class TestGateway:
    def test_gateway_serves_and_reports_mode(self, artifact_path):
        store_retrieval_spec(artifact_path, IndexSpec(kind="ivf", cells=8, nprobe=8))
        gw = ServingGateway.from_artifact(artifact_path, retrieval="ivf")
        gw.batcher.start()
        try:
            gw.ingest("s1", 1005, 1)
            gw.ingest("s1", 1008, 2)
            first = gw.recommend("s1", k=5)
            second = gw.recommend("s1", k=5)
        finally:
            gw.batcher.stop()
        assert first["source"] == "model" and len(first["items"]) == 5
        assert second["cached"] is True
        assert second["items"] == first["items"]
        assert gw.health()["retrieval"] == "ivf"
        text = gw.registry.render_text()
        assert "retrieval_mode 1" in text
        assert "retrieval_candidates_count 1" in text
        assert "retrieval_probes_count 1" in text

    def test_exact_gateway_keeps_mode_gauge_zero(self, artifact_path):
        gw = ServingGateway.from_artifact(artifact_path, retrieval="exact")
        assert "retrieval_mode 0" in gw.registry.render_text()


class TestPipeline:
    def test_rank_queries_respects_seen_mask(self):
        rng = np.random.default_rng(0)
        vecs = rng.standard_normal((60, 8))
        index = build_index(vecs, IndexSpec(cells=4, nprobe=4))

        class _Fact:
            def query_matrix(self, batch):  # pragma: no cover - unused here
                raise NotImplementedError

        pipe = RetrievalPipeline(_Fact(), index)
        q = vecs[17] + 0.01 * rng.standard_normal(8)
        unmasked = pipe.rank_queries(q[None, :], 5)[0]
        assert unmasked[0] == 17
        masked = pipe.rank_queries(q[None, :], 5, seen_classes=[np.array([17])])[0]
        assert 17 not in masked
        assert np.array_equal(masked[:4], unmasked[1:5])

    def test_stats_observer_called(self):
        rng = np.random.default_rng(1)
        vecs = rng.standard_normal((60, 8))
        index = build_index(vecs, IndexSpec(cells=4, nprobe=2))
        seen = []
        pipe = RetrievalPipeline(None, index, observer=seen.append)
        pipe.rank_queries(rng.standard_normal((3, 8)), 5)
        assert len(seen) == 1
        stats = seen[0]
        assert stats.rows == 3
        assert stats.probes >= 6  # >= nprobe per row
        assert stats.candidates > 0

    def test_float32_model_queries_do_not_depend_on_the_batch(self):
        """A float32 model's ANN queries are encoded in float64 and rounded
        once, so a session's query (and hence its answer) is the same whether
        the micro-batcher scores it alone or next to another session."""
        import types

        from repro.data.dataset import MacroSession, collate

        spec = ModelSpec(
            name="EMBSR", family="embsr", num_items=2000, num_ops=5, params={"dim": 32, "seed": 1}
        )
        assert spec.dtype == "float32"
        recommender = types.SimpleNamespace(model=build_module(spec), name="EMBSR")
        pipe = RetrievalPipeline.for_recommender(recommender, IndexSpec(cells=16, nprobe=16))
        assert pipe.index.cell_vectors.dtype == np.float32
        rng = np.random.default_rng(2)
        sessions = [
            MacroSession(
                list(rng.integers(1, 2001, n)), [list(rng.integers(0, 5, 2)) for _ in range(n)], 1
            )
            for n in rng.integers(1, 9, 40)
        ]

        def query32(group):
            return pipe.factorization.query_matrix(collate(group)).astype(np.float32)

        for first, second in zip(sessions[::2], sessions[1::2]):
            pair = query32([first, second])
            assert query32([first])[0].tobytes() == pair[0].tobytes()
            assert query32([second])[0].tobytes() == pair[1].tobytes()
            ranked = pipe.top_k_classes(collate([first, second]), 20)
            assert np.array_equal(pipe.top_k_classes(collate([first]), 20)[0], ranked[0])
