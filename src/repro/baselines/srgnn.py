"""SR-GNN (Wu et al., 2019): gated GNN over the simple session graph.

Node states from the GGNN are read out with soft attention against the last
item and decoded by dot product with item embeddings.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..data.dataset import SessionBatch
from ..graphs import BatchGraph
from ..nn import Dropout, Embedding, Module
from .common import SessionGGNN, SoftAttentionReadout, last_position_rep

__all__ = ["SRGNN"]


class SRGNN(Module):
    """Macro-behavior baseline: the first GNN model for SR."""

    def __init__(self, num_items: int, dim: int = 32, num_layers: int = 1, dropout: float = 0.1, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.item_embedding = Embedding(num_items + 1, dim, rng=rng, padding_idx=0)
        self.ggnn = SessionGGNN(dim, num_layers=num_layers, rng=rng)
        self.readout = SoftAttentionReadout(dim, concat_last=True, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)
        self.num_items = num_items

    def encode_sessions(self, batch: SessionBatch, graph: BatchGraph | None = None) -> Tensor:
        """[B, d] session representations (the scoring-head queries)."""
        graph = graph or BatchGraph.from_batch(batch)
        nodes = self.dropout(self.item_embedding(graph.node_items))
        h = self.ggnn(nodes, graph)
        seq = Tensor(graph.gather) @ h  # node states at macro positions
        last = last_position_rep(seq, batch.item_mask)
        return self.readout(seq, last, batch.item_mask)

    def forward(self, batch: SessionBatch, graph: BatchGraph | None = None) -> Tensor:
        session = self.encode_sessions(batch, graph)
        return session @ self.item_embedding.weight[1:].T
