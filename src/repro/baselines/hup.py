"""HUP: Hierarchical User Profiling (Gu et al., 2020), session-level variant.

A two-level "behavior pyramid": a micro-level GRU encodes each macro item's
operation sequence; its summary is fused with the item embedding and fed to
an item-level GRU. Attention over item-level states (query = last state)
produces the session representation. (The original paper also models
dwell time and long-term profiles, which do not exist in the session-only
setting — the paper we reproduce uses it as a session baseline in the same
way.)
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, concat
from ..core.op_encoder import encode_op_sequences
from ..data.dataset import SessionBatch
from ..nn import GRU, Dropout, Embedding, Linear, Module
from ..nn.init import scaled_uniform
from ..nn.module import Parameter

__all__ = ["HUP"]


class HUP(Module):
    """Micro-behavior baseline: hierarchical GRUs (operation -> item)."""

    def __init__(self, num_items: int, num_ops: int, dim: int = 32, dropout: float = 0.1, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.item_embedding = Embedding(num_items + 1, dim, rng=rng, padding_idx=0)
        self.op_embedding = Embedding(num_ops + 1, dim, rng=rng, padding_idx=0)
        self.micro_gru = GRU(dim, dim, rng=rng)
        self.fuse = Linear(2 * dim, dim, rng=rng)
        self.item_gru = GRU(dim, dim, rng=rng)
        self.a1 = Linear(dim, dim, bias=False, rng=rng)
        self.a2 = Linear(dim, dim, bias=False, rng=rng)
        self.v = Parameter(scaled_uniform(rng, (dim,), dim))
        self.dropout = Dropout(dropout, rng=rng)
        self.dim = dim
        self.num_items = num_items

    def encode_sessions(self, batch: SessionBatch) -> Tensor:
        """[B, d] session representations (the scoring-head queries)."""
        # Micro level: encode each macro step's operation sequence.
        op_summary = encode_op_sequences(
            self.op_embedding, self.micro_gru, batch.ops, batch.op_mask
        )

        items = self.dropout(self.item_embedding(batch.items))
        fused = self.fuse(concat([items, op_summary], axis=2)).tanh()

        # Item level: GRU + attention readout.
        outputs, h_t = self.item_gru(fused, mask=batch.item_mask)
        energy = (self.a1(h_t).unsqueeze(1) + self.a2(outputs)).sigmoid() @ self.v
        alpha = energy * Tensor(batch.item_mask)
        pooled = (alpha.unsqueeze(2) * outputs).sum(axis=1)
        return pooled + h_t

    def forward(self, batch: SessionBatch) -> Tensor:
        session = self.encode_sessions(batch)
        return session @ self.item_embedding.weight[1:].T
