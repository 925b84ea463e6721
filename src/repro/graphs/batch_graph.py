"""Batched multigraph arrays for the GNN layers.

All graph structure is encoded as constant one-hot matrices so the gather
(node -> macro position) and scatter (ordered edge -> node) operations reduce
to batched matrix multiplications, which the autograd engine differentiates
for free.

Shapes (B = batch, n = max macro length, c = max distinct-node count):

* ``node_items``  [B, c]   — distinct item ids per session, 0-padded
* ``node_mask``   [B, c]   — validity of node slots
* ``alias``       [B, n]   — node index of each macro position
* ``gather``      [B, n, c] — one-hot: position p reads node alias[p]
* ``scatter_in``  [B, c, n-1] — transition p (edge v^p -> v^{p+1}) adds its
  in-message to node alias[p+1]
* ``scatter_out`` [B, c, n-1] — transition p adds its out-message to node
  alias[p]
* ``micro_gather`` [B, t, c] — micro step reads its item's node
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.dataset import SessionBatch

__all__ = ["BatchGraph"]


@dataclass
class BatchGraph:
    """Constant arrays describing a batch of session multigraphs."""

    node_items: np.ndarray
    node_mask: np.ndarray
    alias: np.ndarray
    gather: np.ndarray
    scatter_in: np.ndarray
    scatter_out: np.ndarray
    micro_gather: np.ndarray
    trans_mask: np.ndarray

    @property
    def batch_size(self) -> int:
        return self.node_items.shape[0]

    @property
    def max_nodes(self) -> int:
        return self.node_items.shape[1]

    @classmethod
    def from_batch(cls, batch: SessionBatch) -> "BatchGraph":
        """Build graph arrays for every session in ``batch``.

        Fully vectorized: the models build one graph per forward, so this
        is on the per-step hot path. The per-row reference construction is
        kept as :meth:`_from_batch_loops` and asserted equal in
        ``tests/graphs/test_batch_graph.py``.
        """
        items, item_mask = batch.items, batch.item_mask
        B, n = items.shape
        t = batch.micro_items.shape[1]

        # Node discovery stops at the first masked position (prefix scan).
        prefix = np.cumprod(item_mask != 0, axis=1).astype(bool)
        # first[b, p]: earliest prefix position holding the same item.
        same = (items[:, :, None] == items[:, None, :]) & prefix[:, :, None] & prefix[:, None, :]
        first = same.argmax(axis=2)
        is_new = (first == np.arange(n)) & prefix
        order = np.cumsum(is_new, axis=1) - 1  # node index of each new position
        alias = np.where(prefix, np.take_along_axis(order, first, axis=1), 0)

        counts = is_new.sum(axis=1)
        c = max(1, int(counts.max()))
        node_items = np.zeros((B, c), dtype=np.int64)
        nb, npos = np.nonzero(is_new)
        node_items[nb, order[nb, npos]] = items[nb, npos]
        node_mask = (np.arange(c) < counts[:, None]).astype(np.float64)

        # Positions outside the prefix but still mask-valid keep alias 0,
        # exactly like the reference loop (alias is initialized to zero).
        gather = np.zeros((B, n, c))
        vb, vp = np.nonzero(item_mask.astype(bool))
        gather[vb, vp, alias[vb, vp]] = 1.0

        n_trans = max(1, n - 1)
        scatter_in = np.zeros((B, c, n_trans))
        scatter_out = np.zeros((B, c, n_trans))
        trans_mask = np.zeros((B, n_trans))
        lengths = item_mask.sum(axis=1).astype(np.int64)
        if n > 1:
            tb, tp = np.nonzero(np.arange(n - 1) < (lengths - 1)[:, None])
            scatter_in[tb, alias[tb, tp + 1], tp] = 1.0
            scatter_out[tb, alias[tb, tp], tp] = 1.0
            trans_mask[tb, tp] = 1.0

        micro_gather = np.zeros((B, t, c))
        mprefix = np.cumprod(batch.micro_mask != 0, axis=1).astype(bool)
        node_valid = np.arange(c) < counts[:, None]
        hit = (batch.micro_items[:, :, None] == node_items[:, None, :]) & node_valid[:, None, :]
        if not hit.any(axis=2)[mprefix].all():
            raise KeyError("micro item not present among the session's macro nodes")
        mb, ms = np.nonzero(mprefix)
        micro_gather[mb, ms, hit.argmax(axis=2)[mb, ms]] = 1.0

        return cls(
            node_items=node_items,
            node_mask=node_mask,
            alias=alias,
            gather=gather,
            scatter_in=scatter_in,
            scatter_out=scatter_out,
            micro_gather=micro_gather,
            trans_mask=trans_mask,
        )

    @classmethod
    def _from_batch_loops(cls, batch: SessionBatch) -> "BatchGraph":
        """Reference per-row construction (the pre-vectorization semantics)."""
        B, n = batch.items.shape
        t = batch.micro_items.shape[1]

        alias = np.zeros((B, n), dtype=np.int64)
        node_lists: list[list[int]] = []
        for b in range(B):
            index: dict[int, int] = {}
            nodes: list[int] = []
            for p in range(n):
                item = int(batch.items[b, p])
                if batch.item_mask[b, p] == 0:
                    break
                if item not in index:
                    index[item] = len(nodes)
                    nodes.append(item)
                alias[b, p] = index[item]
            node_lists.append(nodes)

        c = max(1, max(len(nodes) for nodes in node_lists))
        node_items = np.zeros((B, c), dtype=np.int64)
        node_mask = np.zeros((B, c))
        for b, nodes in enumerate(node_lists):
            node_items[b, : len(nodes)] = nodes
            node_mask[b, : len(nodes)] = 1.0

        gather = np.zeros((B, n, c))
        rows = np.arange(n)
        for b in range(B):
            valid = batch.item_mask[b].astype(bool)
            gather[b, rows[valid], alias[b, valid]] = 1.0

        n_trans = max(1, n - 1)
        scatter_in = np.zeros((B, c, n_trans))
        scatter_out = np.zeros((B, c, n_trans))
        trans_mask = np.zeros((B, n_trans))
        for b in range(B):
            length = int(batch.item_mask[b].sum())
            for p in range(length - 1):
                scatter_in[b, alias[b, p + 1], p] = 1.0
                scatter_out[b, alias[b, p], p] = 1.0
                trans_mask[b, p] = 1.0

        micro_gather = np.zeros((B, t, c))
        for b in range(B):
            index = {item: i for i, item in enumerate(node_lists[b])}
            for s in range(t):
                if batch.micro_mask[b, s] == 0:
                    break
                micro_gather[b, s, index[int(batch.micro_items[b, s])]] = 1.0

        return cls(
            node_items=node_items,
            node_mask=node_mask,
            alias=alias,
            gather=gather,
            scatter_in=scatter_in,
            scatter_out=scatter_out,
            micro_gather=micro_gather,
            trans_mask=trans_mask,
        )

    def collapse_parallel_edges(self) -> "BatchGraph":
        """Return a simple-graph view: duplicate (src, dst) edges dropped.

        Keeps only the first occurrence of each ordered node pair, zeroing
        later parallel transitions out of the scatter matrices and the
        transition mask. This is the ablation hook for the paper's central
        graph-construction choice (Fig. 3): EMBSR's *multigraph* vs. the
        simple session graph used by SR-GNN-style models.
        """
        B, c, n_trans = self.scatter_in.shape
        scatter_in = self.scatter_in.copy()
        scatter_out = self.scatter_out.copy()
        trans_mask = self.trans_mask.copy()
        for b in range(B):
            seen: set[tuple[int, int]] = set()
            for p in range(n_trans):
                if trans_mask[b, p] == 0:
                    continue
                src = int(np.argmax(scatter_out[b, :, p]))
                dst = int(np.argmax(scatter_in[b, :, p]))
                if (src, dst) in seen:
                    scatter_in[b, :, p] = 0.0
                    scatter_out[b, :, p] = 0.0
                    trans_mask[b, p] = 0.0
                else:
                    seen.add((src, dst))
        return BatchGraph(
            node_items=self.node_items,
            node_mask=self.node_mask,
            alias=self.alias,
            gather=self.gather,
            scatter_in=scatter_in,
            scatter_out=scatter_out,
            micro_gather=self.micro_gather,
            trans_mask=trans_mask,
        )
