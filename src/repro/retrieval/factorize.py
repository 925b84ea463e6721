"""Factorize a model's scoring head into ``queries @ item_matrix.T``.

Every neural system in the repository ends its forward pass the same way:
a ``[B, d]`` session representation hits the item embedding table —
either a bare dot product (``session @ weight[1:].T``; NARM, STAMP,
SR-GNN, GC-SAN, BERT4Rec, RIB, HUP, MKM-SR) or the NISER-style cosine
head (:class:`~repro.core.fusion.ScorePredictor`; EMBSR and SGNN-HN).
Both are inner products against a *static* item matrix, which is exactly
the shape ANN retrieval needs: index the item matrix once, embed each
request into the same space, and the full ``[B, num_items]`` matmul —
the only part of serving that scales with the catalogue — becomes a
candidate search plus a small exact re-rank.

:func:`factorize` reads the seam the models expose
(``Module.encode_sessions``) and returns a :class:`ScoringFactorization`
whose ``query_matrix(batch) @ item_matrix().T`` reproduces
``model(batch)`` bit-for-bit (asserted per family in
``tests/retrieval/test_factorize.py``). Models without the seam (none in
the registry today) simply return ``None`` and serving stays exact.
"""

from __future__ import annotations

import numpy as np

from ..autograd import default_dtype, no_grad

__all__ = ["ScoringFactorization", "factorize"]


def _l2n(x: np.ndarray) -> np.ndarray:
    # Must mirror Tensor.l2_normalize exactly (eps inside the sqrt) so the
    # factorized scores match the forward pass bit-for-bit.
    return x / np.sqrt((x * x).sum(axis=-1, keepdims=True) + 1e-12)


class ScoringFactorization:
    """The ``scores == queries @ items.T`` decomposition of one model.

    Parameters
    ----------
    model:
        A fitted module exposing ``encode_sessions(batch) -> Tensor``.
    head:
        ``"dot"`` for bare inner-product decoders, ``"cosine"`` for the
        NISER-style normalized head.
    w_k:
        The cosine head's score scale (ignored for ``"dot"``).
    num_items:
        Real catalogue size — BERT4Rec's table carries an extra [MASK]
        row beyond it.
    dtype:
        Ambient dtype queries are computed under: the model's parameter
        dtype, so a float32 model never upcasts at serve time and a
        float64 one never mixes precisions.
    """

    def __init__(self, model, head: str, w_k: float, num_items: int, dtype: str):
        self.model = model
        self.head = head
        self.w_k = w_k
        self.num_items = num_items
        self.dtype = dtype

    # ------------------------------------------------------------------
    def item_matrix(self) -> np.ndarray:
        """``[num_items, d]`` scoring-space item vectors (row i = class i)."""
        table = self.model.item_embedding.weight.data[1 : self.num_items + 1]
        if self.head == "cosine":
            return _l2n(table)
        return table

    def query_matrix(self, batch) -> np.ndarray:
        """``[B, d]`` scoring-space queries for one collated batch."""
        self.model.eval()
        with default_dtype(self.dtype), no_grad():
            encoded = self.model.encode_sessions(batch).data
        if self.head == "cosine":
            return _l2n(encoded) * self.w_k
        return encoded

    def exact_scores(self, queries: np.ndarray, classes: np.ndarray) -> np.ndarray:
        """Exact scores of the given item classes for one query vector."""
        return self.item_matrix()[classes] @ queries

    def describe(self) -> dict:
        return {"head": self.head, "w_k": self.w_k, "num_items": self.num_items}


def factorize(model, num_items: int | None = None, dtype: str | None = None):
    """Build the :class:`ScoringFactorization` for ``model``, or ``None``.

    The head is read off the module itself: a ``predictor`` attribute that
    is a :class:`~repro.core.fusion.ScorePredictor` marks the cosine head;
    anything else with the ``encode_sessions`` seam is a bare dot product.
    ``dtype`` defaults to the dtype of the model's item table.
    """
    if not hasattr(model, "encode_sessions"):
        return None
    dtype = dtype or str(model.item_embedding.weight.data.dtype)
    if num_items is None:
        num_items = getattr(model, "num_items", None)
        if num_items is None:
            num_items = model.config.num_items
    from ..core.fusion import ScorePredictor

    predictor = getattr(model, "predictor", None)
    if isinstance(predictor, ScorePredictor):
        return ScoringFactorization(model, "cosine", predictor.w_k, num_items, dtype)
    return ScoringFactorization(model, "dot", 1.0, num_items, dtype)
