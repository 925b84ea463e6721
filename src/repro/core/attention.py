"""Operation-aware self-attention (paper Sec. IV-C, Eqs. 12-17).

Extends self-attention with *dyadic* micro-operation encodings: the key and
value for position ``j`` when attended from position ``i`` are augmented
with ``e_{r_ij}``, the embedding of the operation pair ``(o_i, o_j)``
(analogous to relative-position representations, Shaw et al. 2018).

Only the star token's row is computed: EMBSR's fusion (Eq. 18) reads
``z_s`` and no other output of the block.

Batching note: the paper appends the star token at the *end* of the
sequence. With padded batches a trailing star would sit at a
session-dependent index, so we place it at index 0 instead; this only
permutes position-embedding indices and is otherwise equivalent (attention
itself is order-free — order enters solely through ``e_{p_j}``).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..nn import Dropout, Embedding, FeedForward, LayerNorm, Linear, Module
from ..perf import fused as _fused

__all__ = ["OperationAwareSelfAttention", "relation_ids"]

_NEG_INF = -1e9


def relation_ids(ops_i: np.ndarray, ops_j: np.ndarray, num_ops: int) -> np.ndarray:
    """Dyadic relation index for shifted operation ids.

    ``r(o_i, o_j) = o_i * (num_ops + 1) + o_j`` over shifted ids (0 = pad),
    giving a table of ``(num_ops + 1)^2`` rows where index 0 is the pad-pad
    pair. The paper's ``M^R`` has ``|O|^2`` rows; the extra rows host pairs
    involving padding and are masked out of attention.
    """
    return ops_i[..., None] * (num_ops + 1) + ops_j[..., None, :]


class OperationAwareSelfAttention(Module):
    """Single-head attention with dyadic operation and position encodings.

    Modes (selected per call, so variants can share weights):

    * ``dyadic`` — full Eq. 14/16 with relation embeddings;
    * ``absolute`` — standard self-attention, operation information enters
      only through the input embeddings (SGNN-Abs-Self variant);
    * both add learned absolute position embeddings ``e_{p_j}`` to keys and
      values.
    """

    def __init__(
        self,
        dim: int,
        num_ops: int,
        max_len: int,
        dropout: float = 0.1,
        *,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.dim = dim
        self.num_ops = num_ops
        self.w_q = Linear(dim, dim, bias=False, rng=rng)
        self.relations = Embedding((num_ops + 1) ** 2, dim, rng=rng, padding_idx=0)
        self.positions = Embedding(max_len, dim, rng=rng)
        self.ffn = FeedForward(dim, rng=rng)
        self.norm = LayerNorm(dim)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(
        self,
        x: Tensor,
        seq_ops: np.ndarray,
        seq_mask: np.ndarray,
        use_dyadic: bool = True,
    ) -> Tensor:
        """The star token's output ``z_s`` (Eqs. 14-17 at ``i = s``).

        Only the star row is computed: Eq. 18 reads ``z_s`` and nothing
        else, so the queries, scores, softmax, FFN and layer norm run on
        row 0 while keys, values and position embeddings keep all T rows.

        Parameters
        ----------
        x:
            [B, T, d] input embeddings ``x_i`` (Eq. 12/13, star at index 0).
        seq_ops:
            [B, T] shifted operation id of each position (star carries the
            assumed next-item operation, Eq. 13).
        seq_mask:
            [B, T] validity mask.
        use_dyadic:
            Include ``e_{r_sj}`` terms (Eq. 14/16); off for the
            ``absolute``/plain variants.

        Returns
        -------
        Tensor
            [B, d] session-level output ``z_s``.
        """
        B, T, d = x.shape
        scale = 1.0 / np.sqrt(d)

        pos = self.positions(np.broadcast_to(np.arange(T), (B, T)))  # [B, T, d]
        keys = x + pos  # x_j + e_{p_j}
        q = self.w_q(x[:, :1])  # [B, 1, d]: the star's query

        # Content/position part of e_sj (Eq. 16): q_s . (x_j + p_j)
        scores = (q @ keys.swapaxes(-1, -2)) * scale  # [B, 1, T]
        if use_dyadic:
            rel_ids = relation_ids(seq_ops[:, :1], seq_ops, self.num_ops)  # [B, 1, T]
            # Gather-free Shaw-style kernel: never materializes the
            # [B, 1, T, d] relation tensor (see repro.perf.fused).
            scores = scores + _fused.relation_scores(q, self.relations.weight, rel_ids) * scale

        bias = np.where(seq_mask.astype(bool)[:, None, :], 0.0, _NEG_INF)  # [B, 1, T]
        alpha = (scores + Tensor(bias)).softmax(axis=-1)

        # Value side (Eq. 14): sum_j alpha_sj (x_j + e_{r_sj} + e_{p_j})
        z = alpha @ keys
        if use_dyadic:
            z = z + _fused.relation_values(alpha, self.relations.weight, rel_ids)
        z = z.reshape(B, d)

        # Post block (paper: FFN + residual + layer norm + dropout).
        return self.norm(z + self.dropout(self.ffn(z)))
