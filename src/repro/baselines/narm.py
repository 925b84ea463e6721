"""NARM: Neural Attentive Recommendation Machine (Li et al., 2017).

A GRU encoder over the macro-item sequence with two readouts: the final
hidden state (global encoder) and an attention-pooled state (local encoder,
query = last hidden). Their concatenation is decoded with a bilinear map
against item embeddings.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, concat
from ..data.dataset import SessionBatch
from ..nn import GRU, Dropout, Embedding, Linear, Module
from ..nn.init import scaled_uniform
from ..nn.module import Parameter
from .common import last_position_rep

__all__ = ["NARM"]


class NARM(Module):
    """Macro-behavior baseline: RNN + attention, bilinear decoder."""

    def __init__(self, num_items: int, dim: int = 32, dropout: float = 0.1, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.item_embedding = Embedding(num_items + 1, dim, rng=rng, padding_idx=0)
        self.gru = GRU(dim, dim, rng=rng)
        self.a1 = Linear(dim, dim, bias=False, rng=rng)
        self.a2 = Linear(dim, dim, bias=False, rng=rng)
        self.v = Parameter(scaled_uniform(rng, (dim,), dim))
        self.b = Linear(2 * dim, dim, bias=False, rng=rng)  # bilinear decoder
        self.dropout = Dropout(dropout, rng=rng)
        self.num_items = num_items

    def encode_sessions(self, batch: SessionBatch) -> Tensor:
        """[B, d] session representations (the scoring-head queries)."""
        x = self.dropout(self.item_embedding(batch.items))
        outputs, h_t = self.gru(x, mask=batch.item_mask)
        # Local encoder: attention over hidden states with h_t as query.
        energy = (self.a1(h_t).unsqueeze(1) + self.a2(outputs)).sigmoid() @ self.v
        alpha = energy * Tensor(batch.item_mask)
        c_local = (alpha.unsqueeze(2) * outputs).sum(axis=1)
        c = self.dropout(concat([h_t, c_local], axis=1))
        return self.b(c)

    def forward(self, batch: SessionBatch) -> Tensor:
        session = self.encode_sessions(batch)
        return session @ self.item_embedding.weight[1:].T
