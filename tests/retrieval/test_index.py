"""IVF(-PQ) index: determinism, recall behavior, and the exactness contract."""

import numpy as np
import pytest

from repro.eval.topk import top_k_indices
from repro.retrieval import (
    AUTO_ANN_THRESHOLD,
    IndexSpec,
    RetrievalPipeline,
    build_index,
    measure_recall,
    resolve_retrieval_kind,
    sample_queries,
)


def catalogue(n=2000, dim=16, centers=12, seed=0):
    rng = np.random.default_rng(seed)
    mus = rng.standard_normal((centers, dim))
    return mus[rng.integers(0, centers, n)] + 0.2 * rng.standard_normal((n, dim))


class TestSpec:
    def test_resolve_fills_autos(self):
        spec = IndexSpec().resolve(10000, 32)
        assert spec.cells == 100
        assert spec.nprobe == max(1, spec.cells // 8)

    def test_resolve_caps_by_catalogue(self):
        spec = IndexSpec(cells=500, nprobe=600).resolve(40, 8)
        assert spec.cells == 40
        assert spec.nprobe == 40

    def test_pq_m_divides_dim(self):
        spec = IndexSpec(kind="ivfpq").resolve(1000, 24)
        assert spec.pq_m > 0 and 24 % spec.pq_m == 0

    def test_dict_round_trip(self):
        spec = IndexSpec(kind="ivfpq", cells=7, nprobe=3, seed=9, pq_m=2)
        assert IndexSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_ignores_unknown_keys(self):
        spec = IndexSpec.from_dict({"kind": "ivf", "cells": 5, "future_field": 1})
        assert spec.cells == 5

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            IndexSpec(kind="hnsw")


class TestResolveRetrievalKind:
    def test_auto_thresholds_on_catalogue_size(self):
        assert resolve_retrieval_kind("auto", AUTO_ANN_THRESHOLD - 1) == "exact"
        assert resolve_retrieval_kind("auto", AUTO_ANN_THRESHOLD) == "ivf"

    def test_explicit_modes_pass_through(self):
        for mode in ("exact", "ivf", "ivfpq"):
            assert resolve_retrieval_kind(mode, 10) == mode

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown retrieval mode"):
            resolve_retrieval_kind("annoy", 10)


class TestBuildDeterminism:
    def test_rebuild_bit_identical(self):
        vecs = catalogue()
        spec = IndexSpec(cells=32, nprobe=4, seed=11)
        a = build_index(vecs, spec)
        b = build_index(vecs, spec)
        assert np.array_equal(a.centroids, b.centroids)
        assert all(np.array_equal(x, y) for x, y in zip(a.lists, b.lists))
        assert a.signature() == b.signature()

    def test_rebuild_bit_identical_with_pq(self):
        vecs = catalogue()
        spec = IndexSpec(kind="ivfpq", cells=16, nprobe=4, seed=5, pq_m=4, pq_bits=5)
        a = build_index(vecs, spec)
        b = build_index(vecs, spec)
        assert np.array_equal(a.pq.codebooks, b.pq.codebooks)
        assert np.array_equal(a.pq.codes, b.pq.codes)

    def test_different_seed_different_index(self):
        vecs = catalogue()
        a = build_index(vecs, IndexSpec(cells=32, seed=0))
        b = build_index(vecs, IndexSpec(cells=32, seed=1))
        assert not np.array_equal(a.centroids, b.centroids)

    def test_lists_partition_catalogue(self):
        index = build_index(catalogue(), IndexSpec(cells=32, seed=2))
        merged = np.sort(np.concatenate(index.lists))
        assert np.array_equal(merged, np.arange(index.n_items))


class TestRecall:
    def test_recall_monotone_in_nprobe(self):
        vecs = catalogue(n=3000)
        index = build_index(vecs, IndexSpec(cells=32, seed=3))
        queries = sample_queries(vecs, 60, seed=4)
        recalls = [
            measure_recall(index, queries, ks=(20,), nprobe=p)["recall"][20]
            for p in (1, 4, 16, 32)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:])), recalls
        assert recalls[-1] == 1.0  # full probe is exhaustive

    def test_full_probe_exact_parity(self):
        """nprobe == n_cells must reproduce full scoring exactly, ties included."""
        vecs = catalogue(n=500, dim=8)
        index = build_index(vecs, IndexSpec(cells=8, seed=0))
        queries = sample_queries(vecs, 20, seed=1)
        for q in queries:
            exact = top_k_indices(index.vectors @ q, 15)
            cand, _ = index.candidates(q, nprobe=index.n_cells)
            short = index.shortlist(q, cand)
            ann = short[top_k_indices(index.vectors[short] @ q, 15)]
            assert np.array_equal(exact, ann)

    def test_tie_stability_of_rerank(self):
        """Duplicated vectors score identically; ascending-class order must hold."""
        rng = np.random.default_rng(7)
        base = rng.standard_normal((40, 8))
        vecs = np.concatenate([base, base])  # classes i and i+40 are exact ties
        index = build_index(vecs, IndexSpec(cells=4, seed=0))
        q = rng.standard_normal(8)
        exact = top_k_indices(index.vectors @ q, 10)
        cand, _ = index.candidates(q, nprobe=index.n_cells)
        ann = cand[top_k_indices(index.vectors[cand] @ q, 10)]
        assert np.array_equal(exact, ann)
        # The winner's duplicate sits exactly 40 classes later; stable order
        # puts the lower class first.
        assert exact[1] == exact[0] + 40

    def test_candidate_widening_meets_floor(self):
        vecs = catalogue(n=200)
        index = build_index(vecs, IndexSpec(cells=32, seed=0))
        q = sample_queries(vecs, 1, seed=2)[0]
        cand, probed = index.candidates(q, nprobe=1, min_candidates=100)
        assert len(cand) >= 100
        assert probed >= 1
        assert np.array_equal(cand, np.sort(cand))

    def test_pq_shortlist_subset_and_sorted(self):
        vecs = catalogue(n=1500)
        index = build_index(
            vecs, IndexSpec(kind="ivfpq", cells=8, seed=0, pq_m=4, pq_bits=6, rerank=64)
        )
        q = sample_queries(vecs, 1, seed=3)[0]
        cand, _ = index.candidates(q, nprobe=8)
        short = index.shortlist(q, cand)
        assert len(short) == 64
        assert np.isin(short, cand).all()
        assert np.array_equal(short, np.sort(short))


class TestNegativeSizesRejected:
    """Negative sizes are named errors; 0/None keep meaning "auto"."""

    CASES = {
        "spec cells": (lambda index: IndexSpec(cells=-4), "IndexSpec.cells must be >= 0"),
        "spec nprobe": (lambda index: IndexSpec(cells=16, nprobe=-2), "IndexSpec.nprobe must be >= 0"),
        "spec iters": (lambda index: IndexSpec(iters=-1), "IndexSpec.iters must be >= 0"),
        "spec train_size": (lambda index: IndexSpec(train_size=-1), "IndexSpec.train_size must be >= 0"),
        "spec rerank": (lambda index: IndexSpec(rerank=-1), "IndexSpec.rerank must be >= 0"),
        "spec pq_m": (lambda index: IndexSpec(kind="ivfpq", pq_m=-4), "IndexSpec.pq_m must be >= 0"),
        "spec pq_bits 0": (lambda index: IndexSpec(pq_bits=0), "IndexSpec.pq_bits must be >= 1"),
        "spec pq_bits -1": (lambda index: IndexSpec(pq_bits=-1), "IndexSpec.pq_bits must be >= 1"),
        "pipeline nprobe": (lambda index: RetrievalPipeline(None, index, nprobe=-3), "nprobe must be >= 0"),
        "rank_queries nprobe": (
            lambda index: RetrievalPipeline(None, index).rank_queries(np.ones((1, 16)), 5, nprobe=-1),
            "nprobe must be >= 0",
        ),
    }

    @pytest.fixture(scope="class")
    def index(self):
        return build_index(catalogue(n=300), IndexSpec(cells=16, seed=0))

    @pytest.mark.parametrize("case", list(CASES))
    def test_rejected_by_name(self, case, index):
        call, message = self.CASES[case]
        with pytest.raises(ValueError, match=message):
            call(index)

    def test_zero_and_none_mean_auto(self, index):
        spec = IndexSpec(kind="ivfpq", cells=0, nprobe=0, pq_m=0).resolve(10000, 32)
        assert (spec.cells, spec.nprobe, spec.pq_m) == (100, 12, 8)
        for nprobe in (0, None):
            pipeline = RetrievalPipeline(None, index, nprobe=nprobe)
            assert pipeline.nprobe == index.spec.nprobe
            pipeline.rank_queries(np.ones((1, 16)), 5, nprobe=nprobe)
            assert pipeline.last_stats.probes >= index.spec.nprobe
