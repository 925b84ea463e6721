"""Star multigraph GNN (paper Eqs. 5-11).

This layer implements the sequential-pattern encoder of EMBSR:

* **Aggregation** (Eqs. 5-7): every ordered edge ``v^p -> v^{p+1}`` carries a
  message built from its endpoint's node embedding *and* the GRU encoding of
  that endpoint's micro-operation sequence at that position. Incoming and
  outgoing messages use separate affine maps and are summed per node, then
  concatenated to a ``2d`` vector.
* **Update** (Eq. 8): a gated (GGNN-style) cell merges the aggregated
  message with the node's previous state.
* **Star gating** (Eq. 9) lets every satellite node absorb session-global
  information from the star node; the star is refreshed by attention over
  satellites (Eq. 10).
* **Highway** (Eq. 11) mixes pre- and post-GNN node embeddings to fight
  over-smoothing.

Setting ``use_op_gru=False`` in the parent model zeroes the ``h~`` input,
which recovers the plain SGNN-HN-style propagation (used by the SGNN-Self
family of variants and the SGNN-HN baseline).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, concat
from ..graphs import BatchGraph
from ..nn import Linear, Module
from ..nn.init import scaled_uniform
from ..nn.module import Parameter

__all__ = ["StarMultigraphGNN"]


class StarMultigraphGNN(Module):
    """Multigraph message passing with a star node and highway output."""

    def __init__(self, dim: int, num_layers: int = 1, *, rng: np.random.Generator):
        super().__init__()
        self.dim = dim
        self.num_layers = num_layers
        # Eq. 6 message functions (input [e_u ; h~] of width 2d).
        self.msg_in = Linear(2 * dim, dim, rng=rng)
        self.msg_out = Linear(2 * dim, dim, rng=rng)
        # Eq. 8 gated update; W_* consume the 2d aggregated vector.
        self.w_z = Linear(2 * dim, dim, bias=False, rng=rng)
        self.w_r = Linear(2 * dim, dim, bias=False, rng=rng)
        self.w_u = Linear(2 * dim, dim, bias=False, rng=rng)
        self.u_z = Linear(dim, dim, bias=False, rng=rng)
        self.u_r = Linear(dim, dim, bias=False, rng=rng)
        self.u_u = Linear(dim, dim, bias=False, rng=rng)
        # Eq. 9 satellite gate and Eq. 10 star attention.
        self.w_q1 = Linear(dim, dim, bias=False, rng=rng)
        self.w_k1 = Linear(dim, dim, bias=False, rng=rng)
        self.w_q2 = Linear(dim, dim, bias=False, rng=rng)
        self.w_k2 = Linear(dim, dim, bias=False, rng=rng)
        # Eq. 11 highway network.
        self.w_g = Linear(2 * dim, dim, bias=False, rng=rng)

    # ------------------------------------------------------------------
    def _aggregate(self, nodes: Tensor, htilde: Tensor, graph: BatchGraph) -> Tensor:
        """Eqs. 5-7: per-node concatenated [in ; out] message sums."""
        B, c, d = nodes.shape
        n = graph.gather.shape[1]
        if n < 2:
            return Tensor(np.zeros((B, c, 2 * d)))
        gather = Tensor(graph.gather)
        pos_embed = gather @ nodes  # [B, n, d] node state at each macro position
        trans = Tensor(graph.trans_mask[..., None])

        # Edge p: v^p -> v^{p+1}. In-message to target uses source features.
        src = concat([pos_embed[:, :-1, :], htilde[:, :-1, :]], axis=2)
        msg_in = self.msg_in(src) * trans
        # Out-message to source uses target features (Eq. 5, second line).
        dst = concat([pos_embed[:, 1:, :], htilde[:, 1:, :]], axis=2)
        msg_out = self.msg_out(dst) * trans

        agg_in = Tensor(graph.scatter_in) @ msg_in  # [B, c, d]
        agg_out = Tensor(graph.scatter_out) @ msg_out
        return concat([agg_in, agg_out], axis=2)

    def _update(self, nodes: Tensor, agg: Tensor) -> Tensor:
        """Eq. 8: gated GNN cell."""
        z = (self.w_z(agg) + self.u_z(nodes)).sigmoid()
        r = (self.w_r(agg) + self.u_r(nodes)).sigmoid()
        candidate = (self.w_u(agg) + self.u_u(r * nodes)).tanh()
        return (1.0 - z) * nodes + z * candidate

    def _star_gate(self, nodes: Tensor, star: Tensor) -> Tensor:
        """Eq. 9: blend each satellite with the star node."""
        d = self.dim
        q = self.w_q1(nodes)  # [B, c, d]
        k = self.w_k1(star).unsqueeze(1)  # [B, 1, d]
        alpha = (q * k).sum(axis=2, keepdims=True) * (1.0 / np.sqrt(d))  # [B, c, 1]
        return (1.0 - alpha) * nodes + alpha * star.unsqueeze(1)

    def _star_update(self, nodes: Tensor, star: Tensor, node_mask: np.ndarray) -> Tensor:
        """Eq. 10: attention-pool satellites into the new star state."""
        d = self.dim
        k = self.w_k2(nodes)  # [B, c, d]
        q = self.w_q2(star).unsqueeze(1)  # [B, 1, d]
        scores = (k * q).sum(axis=2) * (1.0 / np.sqrt(d))  # [B, c]
        bias = Tensor(np.where(node_mask > 0, 0.0, -1e9))
        beta = (scores + bias).softmax(axis=1)
        return (beta.unsqueeze(2) * nodes).sum(axis=1)  # [B, d]

    # ------------------------------------------------------------------
    def forward(
        self,
        nodes0: Tensor,
        star0: Tensor,
        htilde: Tensor,
        graph: BatchGraph,
    ) -> tuple[Tensor, Tensor]:
        """Propagate for ``num_layers`` rounds.

        Parameters
        ----------
        nodes0:
            [B, c, d] initial satellite embeddings (Eq. 1).
        star0:
            [B, d] initial star embedding (Eq. 2).
        htilde:
            [B, n, d] micro-operation GRU encodings per macro position
            (Eq. 4); pass zeros to disable sequential-pattern information.
        graph:
            Batched multigraph arrays.

        Returns
        -------
        (h_f, star):
            Highway-mixed node states [B, c, d] and final star [B, d].
        """
        mask = Tensor(graph.node_mask[..., None])
        nodes = nodes0 * mask
        star = star0
        for _ in range(self.num_layers):
            agg = self._aggregate(nodes, htilde, graph)
            updated = self._update(nodes, agg)
            gated = self._star_gate(updated, star)
            nodes = gated * mask
            star = self._star_update(nodes, star, graph.node_mask)
        # Eq. 11: highway between layer-0 and final node embeddings.
        g = self.w_g(concat([nodes0, nodes], axis=2)).sigmoid()
        h_f = (g * nodes0 + (1.0 - g) * nodes) * mask
        return h_f, star
