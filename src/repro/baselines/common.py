"""Shared building blocks for the GNN-based baselines.

``SessionGGNN`` is the gated graph neural network of SR-GNN (Wu et al.,
2019): a *simple* directed session graph with degree-normalized in/out
adjacency — unlike EMBSR's multigraph, parallel transitions collapse and no
edge features exist. ``SoftAttentionReadout`` is the standard session
readout used by SR-GNN, GC-SAN, SGNN-HN, and MKM-SR.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, concat
from ..graphs import BatchGraph
from ..nn import Linear, Module
from ..nn.init import scaled_uniform
from ..nn.module import Parameter

__all__ = ["SessionGGNN", "SoftAttentionReadout", "normalized_adjacency"]


def normalized_adjacency(graph: BatchGraph) -> tuple[np.ndarray, np.ndarray]:
    """Degree-normalized in/out adjacency matrices [B, c, c] (SR-GNN's A).

    ``A_out[b, i, j]`` is the normalized weight of edge ``i -> j``.
    """
    B, c, n_trans = graph.scatter_in.shape
    # scatter_out[b, i, p] = 1 iff transition p leaves node i;
    # scatter_in[b, j, p] = 1 iff transition p enters node j.
    counts = np.einsum("bip,bjp->bij", graph.scatter_out, graph.scatter_in)
    out_deg = counts.sum(axis=2, keepdims=True)
    in_deg = counts.sum(axis=1, keepdims=True)
    a_out = counts / np.maximum(out_deg, 1.0)
    a_in = np.transpose(counts, (0, 2, 1)) / np.maximum(np.transpose(in_deg, (0, 2, 1)), 1.0)
    return a_in, a_out


class SessionGGNN(Module):
    """Gated GNN over the simple session graph (SR-GNN Eqs. 1-5)."""

    def __init__(self, dim: int, num_layers: int = 1, *, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.num_layers = num_layers
        self.w_in = Linear(dim, dim, rng=rng)
        self.w_out = Linear(dim, dim, rng=rng)
        self.w_z = Linear(2 * dim, dim, bias=False, rng=rng)
        self.w_r = Linear(2 * dim, dim, bias=False, rng=rng)
        self.w_h = Linear(2 * dim, dim, bias=False, rng=rng)
        self.u_z = Linear(dim, dim, bias=False, rng=rng)
        self.u_r = Linear(dim, dim, bias=False, rng=rng)
        self.u_h = Linear(dim, dim, bias=False, rng=rng)

    def forward(self, nodes: Tensor, graph: BatchGraph) -> Tensor:
        a_in_np, a_out_np = normalized_adjacency(graph)
        a_in, a_out = Tensor(a_in_np), Tensor(a_out_np)
        mask = Tensor(graph.node_mask[..., None])
        h = nodes * mask
        for _ in range(self.num_layers):
            agg = concat([a_in @ self.w_in(h), a_out @ self.w_out(h)], axis=2)
            z = (self.w_z(agg) + self.u_z(h)).sigmoid()
            r = (self.w_r(agg) + self.u_r(h)).sigmoid()
            candidate = (self.w_h(agg) + self.u_h(r * h)).tanh()
            h = ((1.0 - z) * h + z * candidate) * mask
        return h


class SoftAttentionReadout(Module):
    """SR-GNN-style session readout.

    ``alpha_i = q^T sigmoid(W1 v_last + W2 v_i + c)``;
    ``s_global = sum_i alpha_i v_i``; returns ``W3 [s_global ; v_last]``
    (set ``concat_last=False`` to return just the attention pool).
    """

    def __init__(self, dim: int, concat_last: bool = True, *, rng: np.random.Generator):
        super().__init__()
        self.w1 = Linear(dim, dim, rng=rng)
        self.w2 = Linear(dim, dim, bias=False, rng=rng)
        self.q = Parameter(scaled_uniform(rng, (dim,), dim))
        self.concat_last = concat_last
        self.w3 = Linear(2 * dim, dim, bias=False, rng=rng) if concat_last else None

    def forward(self, seq: Tensor, last: Tensor, mask: np.ndarray) -> Tensor:
        """``seq`` [B, n, d], ``last`` [B, d], ``mask`` [B, n] -> [B, d]."""
        energy = (self.w1(last).unsqueeze(1) + self.w2(seq)).sigmoid() @ self.q  # [B, n]
        weights = energy * Tensor(mask)
        pooled = (weights.unsqueeze(2) * seq).sum(axis=1)
        if not self.concat_last:
            return pooled
        return self.w3(concat([pooled, last], axis=1))


def last_position_rep(seq: Tensor, mask: np.ndarray) -> Tensor:
    """Gather each session's representation at its final valid position."""
    lengths = mask.sum(axis=1).astype(np.int64)
    batch = np.arange(seq.shape[0])
    return seq[batch, np.maximum(lengths - 1, 0), :]
