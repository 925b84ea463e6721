"""Two-stage scoring: ANN candidate generation + exact re-rank.

:class:`RetrievalPipeline` is the serving-side face of the subsystem. It
owns a :class:`~repro.retrieval.factorize.ScoringFactorization` (how to
embed a request batch) and an :class:`~repro.retrieval.index.IVFIndex`
(where the catalogue lives), and exposes :meth:`top_k_classes` with the
same contract as exact serving: the ``k`` best item *classes* per row,
best first, ties in ascending class order. The contract holds because

* the re-rank scores each probed cell in place (:meth:`IVFIndex.scan`),
  and every score has the bytes full-catalogue scoring gives that item,
  and
* selection orders by (score descending, class ascending), the order of
  :func:`repro.eval.topk.top_k_indices` over the whole catalogue,

so with ``nprobe == n_cells`` the pipeline's output is *identical* to
full-catalogue scoring — including tie order — and with fewer probes the
only possible deviation is a missing candidate, which the measured
recall@k curve quantifies (``repro index build``, ``docs/retrieval.md``).

Each call records a :class:`RetrievalStats`; the gateway registers an
``observer`` to stream candidate-set sizes, probe counts, and ANN-stage
latency into ``/metrics``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .factorize import factorize
from .index import IVFIndex, IndexSpec, build_index

__all__ = ["RetrievalPipeline", "RetrievalStats"]

# Distinguishes every pipeline instance ever attached in this process, so a
# score cached under one index generation can never alias a rebuilt index's
# answers for the same session fingerprint (satellite fix, docs/serving.md).
_GENERATIONS = itertools.count(1)


def _top_k_by_class(scores: np.ndarray, classes: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` best ``classes`` by (score descending, class ascending).

    ``np.partition`` finds the k-th best score and only the candidates at
    or above it are sorted, so ties straddling the cut resolve to the lower
    classes, as :func:`~repro.eval.topk.top_k_indices` resolves them over
    the whole catalogue.
    """
    if k <= 0:
        return classes[:0]
    if k < len(scores):
        cut = len(scores) - k
        keep = np.flatnonzero(scores >= np.partition(scores, cut)[cut])
        scores, classes = scores[keep], classes[keep]
    return classes[np.lexsort((classes, -scores))[:k]]


@dataclass
class RetrievalStats:
    """One scoring call's ANN-stage telemetry."""

    rows: int
    probes: int          # cells scanned, summed over rows
    candidates: int      # items in the probed cells (padding excluded), summed over rows
    reranked: int        # rows surviving the PQ shortlist, summed over rows
    ann_ms: float        # rank cells + widen (+ PQ shortlist), milliseconds
    rerank_ms: float     # exact scan + seen mask + top-k select, milliseconds


class RetrievalPipeline:
    """ANN candidate generation in front of a fitted recommender.

    Parameters
    ----------
    factorization:
        The model's ``queries @ items.T`` decomposition.
    index:
        An :class:`IVFIndex` built over ``factorization.item_matrix()``.
    nprobe:
        Serve-time probe width; defaults to the index spec's.
    observer:
        Optional callable receiving each call's :class:`RetrievalStats`.
    """

    def __init__(
        self,
        factorization,
        index: IVFIndex,
        nprobe: int | None = None,
        observer=None,
    ):
        self.factorization = factorization
        self.index = index
        self.nprobe = index.resolve_nprobe(nprobe)
        self.observer = observer
        self.generation = next(_GENERATIONS)
        self.last_stats: RetrievalStats | None = None

    # ------------------------------------------------------------------
    @classmethod
    def for_recommender(
        cls,
        recommender,
        spec: IndexSpec | None = None,
        nprobe: int | None = None,
        observer=None,
    ) -> "RetrievalPipeline":
        """Build the whole two-stage path from a fitted recommender.

        Raises ``ValueError`` when the model does not expose the
        ``encode_sessions`` factorization seam — callers fall back to
        exact serving.
        """
        from .index import default_spec

        # Queries are encoded in float64 and rounded once to the block dtype
        # in rank_queries. A float32 encode carries ~1 ulp of noise from
        # the rows batched with it (a one-row GEMM runs gemv, and padding
        # regroups the masked sums), which reorders near-tied items between
        # a micro-batched and a solo request: 6 of 4,000 sessions on the
        # 50,000-item serve_catalog catalogue, 0 of 4,000 once rounded from
        # float64. The weights and the blocks stay in the model's dtype.
        fact = factorize(recommender.model, dtype="float64")
        if fact is None:
            raise ValueError(
                f"{getattr(recommender, 'name', type(recommender).__name__)} does not "
                "expose encode_sessions(); ANN retrieval needs the factorized head"
            )
        items = fact.item_matrix()
        spec = spec or default_spec(items.shape[0], items.shape[1])
        return cls(fact, build_index(items, spec), nprobe=nprobe, observer=observer)

    @property
    def kind(self) -> str:
        return self.index.spec.kind

    def scope(self) -> tuple:
        """Cache-key component naming this exact retrieval configuration."""
        return (self.kind, self.generation, self.nprobe)

    def describe(self) -> dict:
        spec = self.index.spec
        return {
            "kind": spec.kind,
            "cells": spec.cells,
            "nprobe": self.nprobe,
            "seed": spec.seed,
            "pq_m": spec.pq_m,
            "pq_bits": spec.pq_bits,
            "rerank": spec.rerank,
            "n_items": self.index.n_items,
            "generation": self.generation,
        }

    # ------------------------------------------------------------------
    def top_k_classes(
        self,
        batch,
        k: int,
        seen_classes: list[np.ndarray] | None = None,
        nprobe: int | None = None,
    ) -> list[np.ndarray]:
        """The ``k`` best item classes per batch row, best first.

        ``seen_classes`` rows are masked to ``-inf`` *inside* the candidate
        scores — the same masking exact serving applies — rather than
        removed, so the two paths stay comparable item for item.
        """
        queries = self.factorization.query_matrix(batch)
        return self.rank_queries(queries, k, seen_classes=seen_classes, nprobe=nprobe)

    def rank_queries(
        self,
        queries: np.ndarray,
        k: int,
        seen_classes: list[np.ndarray] | None = None,
        nprobe: int | None = None,
    ) -> list[np.ndarray]:
        """:meth:`top_k_classes` for already-embedded query vectors.

        Each row is ranked on its own, so its answer never depends on which
        other rows share the call. Queries are cast to the index's dtype
        once here, so no probed block is ever upcast.
        """
        index = self.index
        queries = np.asarray(queries, dtype=index.cell_vectors.dtype)
        nprobe = index.resolve_nprobe(nprobe or self.nprobe)
        results: list[np.ndarray] = []
        probes = candidates = reranked = 0
        ann_s = rerank_s = 0.0
        for row in range(queries.shape[0]):
            query = queries[row]
            seen = None if seen_classes is None else seen_classes[row]
            # Seen items may dominate the probed cells; widen the candidate
            # floor so masking them can never starve the top-k.
            need = k + (0 if seen is None else len(seen))
            started = time.perf_counter()
            if index.pq is None:
                cells = index.probe_cells(query, nprobe, min_candidates=need)
            else:
                cand, probed = index.candidates(query, nprobe, min_candidates=need)
                short = index.shortlist(query, cand)
            ann_s += time.perf_counter() - started

            started = time.perf_counter()
            if index.pq is None:
                scores, classes = index.scan(query, cells)
                cand, probed = classes, len(cells)
            else:
                scores, classes = index.gather_scores(query, short), short
            if seen is not None and len(seen):
                scores[np.isin(classes, seen)] = -np.inf
            results.append(_top_k_by_class(scores, classes, k))
            rerank_s += time.perf_counter() - started

            probes += probed
            candidates += len(cand)
            reranked += len(classes)
        stats = RetrievalStats(
            rows=queries.shape[0],
            probes=probes,
            candidates=candidates,
            reranked=reranked,
            ann_ms=ann_s * 1000.0,
            rerank_ms=rerank_s * 1000.0,
        )
        self.last_stats = stats
        if self.observer is not None:
            self.observer(stats)
        return results
