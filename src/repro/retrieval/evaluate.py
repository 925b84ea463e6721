"""Recall measurement for ANN indexes.

``repro index build`` and the retrieval benchmark both need the same
question answered: of the top-``k`` items exact full scoring would
return, what fraction does the ANN path recover? :func:`measure_recall`
answers it for a batch of query vectors at one ``nprobe``;
:func:`recall_frontier` sweeps ``nprobe`` to trace the recall-latency
frontier reported in ``benchmarks/results/retrieval.json``.

Query sets come from :func:`sample_queries`: seeded perturbations of
catalogue vectors, which mimics serving (a session representation lands
*near* the items it co-occurs with, not on a random direction — uniform
random queries would understate recall for any clustered catalogue).
"""

from __future__ import annotations

import time

import numpy as np

from ..eval.topk import top_k_indices, topk_recall
from .index import IVFIndex
from .pipeline import RetrievalPipeline

__all__ = ["measure_recall", "recall_frontier", "sample_queries"]


def sample_queries(
    vectors: np.ndarray, n_queries: int, *, seed: int = 0, noise: float = 0.25
) -> np.ndarray:
    """Seeded serving-like query vectors: perturbed catalogue rows.

    Each query is a catalogue vector plus Gaussian noise scaled to
    ``noise`` times the catalogue's mean row norm, in the catalogue's
    dtype (float32 for a float32 model's index).
    """
    rng = np.random.default_rng(seed)
    n = vectors.shape[0]
    rows = rng.choice(n, size=min(n_queries, n), replace=n_queries > n)
    scale = noise * float(np.sqrt((vectors * vectors).sum(axis=1)).mean())
    queries = vectors[rows] + scale * rng.standard_normal((len(rows), vectors.shape[1]))
    return np.ascontiguousarray(queries, dtype=np.promote_types(vectors.dtype, np.float32))


def measure_recall(
    index: IVFIndex,
    queries: np.ndarray,
    ks: tuple[int, ...] = (10, 20),
    nprobe: int | None = None,
) -> dict:
    """Recall@k of ANN+re-rank against exact full scoring, plus timings.

    The ANN side is :meth:`RetrievalPipeline.rank_queries`, the ranking
    serving runs, one query per call. Returns ``{"recall": {k: float},
    "ann_ms": [...], "exact_ms": [...], "candidates": mean_candidate_count,
    "nprobe": resolved}`` where the ``*_ms`` lists hold per-query
    wall-clock milliseconds (callers take their own percentiles).
    """
    pipeline = RetrievalPipeline(None, index, nprobe=nprobe)
    vectors = index.vectors  # the exact reference; each access is a copy
    kmax = max(ks)
    hits = {k: 0 for k in ks}
    ann_ms: list[float] = []
    exact_ms: list[float] = []
    total_candidates = 0
    for query in queries:
        started = time.perf_counter()
        exact_top = top_k_indices(vectors @ query, kmax)
        exact_ms.append((time.perf_counter() - started) * 1000.0)

        started = time.perf_counter()
        ann_top = pipeline.rank_queries(query[None, :], kmax)[0]
        ann_ms.append((time.perf_counter() - started) * 1000.0)

        total_candidates += pipeline.last_stats.candidates
        for k in ks:
            hits[k] += topk_recall(exact_top, ann_top, k)
    n = max(1, len(queries))
    return {
        "recall": {k: hits[k] / n for k in ks},
        "ann_ms": ann_ms,
        "exact_ms": exact_ms,
        "candidates": total_candidates / n,
        "nprobe": pipeline.nprobe,
    }


def recall_frontier(
    index: IVFIndex,
    queries: np.ndarray,
    nprobes: tuple[int, ...],
    ks: tuple[int, ...] = (10, 20),
) -> list[dict]:
    """:func:`measure_recall` at each ``nprobe``, summarized per point."""
    points = []
    for nprobe in nprobes:
        if nprobe > index.n_cells:
            continue
        result = measure_recall(index, queries, ks=ks, nprobe=nprobe)
        ann = np.array(result["ann_ms"])
        points.append(
            {
                "nprobe": result["nprobe"],
                "recall": {str(k): result["recall"][k] for k in ks},
                "candidates": result["candidates"],
                "p50_ms": float(np.percentile(ann, 50)),
                "p95_ms": float(np.percentile(ann, 95)),
            }
        )
    return points
