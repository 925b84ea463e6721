"""Reduced-precision inference scoring (``repro serve --compute ...``).

Serving's hot loop is ``queries @ item_matrix.T`` over the full catalogue.
The native path scores in the model's dtype, float32 by default.
:class:`QuantizedScorer` snapshots the scoring factorization's item
matrix once and stores it in fewer bytes:

``float16``
    The item matrix is *stored* as float16 (half the float32 footprint)
    and dequantized chunk-by-chunk into a preallocated float32 buffer for
    the matmul. NumPy's float16 GEMM is orders of magnitude slower than
    float32 (no hardware half support on the CPU path), so all arithmetic
    stays in float32; float16 is a storage/bandwidth format here.

``int8``
    Symmetric per-row quantization: ``q[i] = round(row / scale[i])`` with
    ``scale[i] = max(|row|) / 127`` — a quarter of the float32 footprint,
    dequantized chunk-wise like float16.

Both quantized modes finish with an **exact float32 re-rank**: the top
``rerank_top`` candidates per query (by approximate score) are re-scored
against the full-precision item matrix cast to float32, and the exact
scores are spliced back in. Ranking metrics at the serving cutoffs are
therefore governed by the exact scores as long as the true top-k lands in
the candidate set (asserted at recall@20 >= 0.999 in
``tests/retrieval/test_quantize.py``).

Quantization is per-*scorer*, not per-model: the model keeps its full
precision weights and training is untouched.
"""

from __future__ import annotations

import numpy as np

__all__ = ["QuantizedScorer", "COMPUTE_MODES"]

# "native" (no QuantizedScorer, model-dtype scoring) plus the reduced modes.
COMPUTE_MODES = ("native", "float16", "int8")


class QuantizedScorer:
    """Score sessions against a quantized snapshot of the item matrix.

    Parameters
    ----------
    factorization:
        A :class:`~repro.retrieval.factorize.ScoringFactorization`. Its
        item matrix is snapshotted at construction, so the scorer must be
        rebuilt if the model's weights change (serving hot-swaps build a
        fresh scorer per adopted artifact).
    compute:
        ``"float16"`` or ``"int8"``.
    rerank_top:
        Candidates per query re-scored exactly in float32. Must
        comfortably exceed the serving cutoff.
    chunk:
        Item rows dequantized per matmul block.
    """

    def __init__(
        self,
        factorization,
        compute: str,
        rerank_top: int = 128,
        chunk: int = 8192,
    ) -> None:
        if compute not in COMPUTE_MODES[1:]:
            raise ValueError(
                f"compute must be one of {'/'.join(COMPUTE_MODES[1:])}, got {compute!r}"
            )
        self.factorization = factorization
        self.compute = compute
        table = np.asarray(factorization.item_matrix(), dtype=np.float64)
        self.num_items, self.dim = table.shape
        self.rerank_top = min(int(rerank_top), self.num_items)
        self._chunk = min(int(chunk), self.num_items)
        # Exact float32 matrix: the re-rank reference.
        self._exact32 = np.ascontiguousarray(table, dtype=np.float32)
        self._scale: np.ndarray | None = None
        if compute == "float16":
            self._store = table.astype(np.float16)
        else:  # int8, symmetric per row
            scale = np.abs(table).max(axis=1) / 127.0
            scale[scale == 0.0] = 1.0
            self._scale = scale.astype(np.float32)[:, None]
            self._store = np.clip(np.rint(table / scale[:, None]), -127, 127).astype(
                np.int8
            )
        self._dequant_buf = np.empty((self._chunk, self.dim), dtype=np.float32)
        # Contiguous matmul destination for one chunk: GEMM into a strided
        # view of the [B, N] output forces slow paths, so chunks land here
        # and are copied out (grown on demand to the live batch size).
        self._out_buf = np.empty((0, self._chunk), dtype=np.float32)

    # ------------------------------------------------------------------
    def storage_nbytes(self) -> int:
        """Bytes held by the scoring-matrix storage (excludes re-rank ref)."""
        n = self._store.nbytes
        if self._scale is not None:
            n += self._scale.nbytes
        return n

    def describe(self) -> dict:
        return {
            "compute": self.compute,
            "num_items": self.num_items,
            "dim": self.dim,
            "rerank_top": self.rerank_top,
            "storage_nbytes": self.storage_nbytes(),
        }

    # ------------------------------------------------------------------
    def scores(self, queries: np.ndarray) -> np.ndarray:
        """``[B, num_items]`` float32 scores for ``[B, d]`` query vectors."""
        q = np.ascontiguousarray(queries, dtype=np.float32)
        out = self._approx_scores(q)
        self._rerank(q, out)
        return out

    def score_batch(self, batch) -> np.ndarray:
        """Score one collated batch (column ``c`` = item class ``c``)."""
        return self.scores(self.factorization.query_matrix(batch))

    def top_k(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-``k`` item indices and exact-float32 scores, best first.

        The serving hot path is score-then-select; fusing them skips the
        full-matrix selection entirely — the
        ``rerank_top`` candidates picked from the approximate scores double
        as the selection pool, so only ``[B, rerank_top]`` exact scores are
        sorted. Tie order matches :func:`~repro.eval.topk.top_k_indices`
        (equal scores in ascending index order) whenever the tied items all
        land in the candidate set.
        """
        from ..eval.topk import top_k_indices

        q = np.ascontiguousarray(queries, dtype=np.float32)
        k = min(int(k), self.num_items)
        if k > self.rerank_top:
            out = self.scores(q)
            idx = top_k_indices(out, k)
            return idx, np.take_along_axis(out, idx, axis=1)
        out = self._approx_scores(q)
        top = self._top_candidates(out)
        top.sort(axis=1)  # ascending index => stable tie order below
        exact = np.matmul(self._exact32[top], q[:, :, None])[:, :, 0]
        order = np.argsort(-exact, axis=1, kind="stable")[:, :k]
        return (
            np.take_along_axis(top, order, axis=1),
            np.take_along_axis(exact, order, axis=1).astype(np.float32, copy=False),
        )

    # ------------------------------------------------------------------
    def _approx_scores(self, q: np.ndarray) -> np.ndarray:
        """Chunked ``[B, num_items]`` matmul against the stored matrix."""
        out = np.empty((q.shape[0], self.num_items), dtype=np.float32)
        buf = self._dequant_buf
        if self._out_buf.shape[0] < q.shape[0]:
            self._out_buf = np.empty((q.shape[0], self._chunk), dtype=np.float32)
        for lo in range(0, self.num_items, self._chunk):
            hi = min(lo + self._chunk, self.num_items)
            block = buf[: hi - lo]
            np.copyto(block, self._store[lo:hi], casting="unsafe")
            if self._scale is not None:
                np.multiply(block, self._scale[lo:hi], out=block)
            chunk_out = self._out_buf[: q.shape[0], : hi - lo]
            np.matmul(q, block.T, out=chunk_out)
            out[:, lo:hi] = chunk_out
        return out

    def _top_candidates(self, out: np.ndarray) -> np.ndarray:
        """``[B, rerank_top]`` candidate indices by approximate score.

        Row-at-a-time ``argpartition`` over a contiguous 1-D slice is
        measurably faster here than the axis-1 call on the whole matrix
        (which partitions through a strided layout).
        """
        m = self.rerank_top
        top = np.empty((out.shape[0], m), dtype=np.int64)
        split = self.num_items - m
        for row in range(out.shape[0]):
            top[row] = np.argpartition(out[row], split)[split:]
        return top

    def _rerank(self, q: np.ndarray, out: np.ndarray) -> None:
        """Splice exact float32 scores over each query's top candidates."""
        m = self.rerank_top
        if m >= self.num_items:
            np.matmul(q, self._exact32.T, out=out)
            return
        top = self._top_candidates(out)
        cand = self._exact32[top]  # [B, m, d]
        exact = np.matmul(cand, q[:, :, None])[:, :, 0]
        np.put_along_axis(out, top, exact, axis=1)
