"""Operation-aware self-attention (paper Sec. IV-C, Eqs. 12-17).

Extends self-attention with *dyadic* micro-operation encodings: the key and
value for position ``j`` when attended from position ``i`` are augmented
with ``e_{r_ij}``, the embedding of the operation pair ``(o_i, o_j)``
(analogous to relative-position representations, Shaw et al. 2018).

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
        """Attend over a micro-behavior sequence.

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
            Include ``e_{r_ij}`` terms (Eq. 14/16); off for the
            ``absolute``/plain variants.

        Returns
        -------
        Tensor
            [B, T, d] outputs ``z``; the session-level ``z_s`` is row 0.
        """
        B, T, d = x.shape
        scale = 1.0 / np.sqrt(d)

        pos = self.positions(np.broadcast_to(np.arange(T), (B, T)))  # [B, T, d]
        keys = x + pos  # x_j + e_{p_j}
        q = self.w_q(x)  # [B, T, d]

        # Content/position part of e_ij (Eq. 16): q_i . (x_j + p_j)
        scores = (q @ keys.swapaxes(-1, -2)) * scale  # [B, T, T]
        if use_dyadic:
            rel_ids = relation_ids(seq_ops, seq_ops, self.num_ops)  # [B, T, T]
            # Gather-free Shaw-style kernel: never materializes the
            # [B, T, T, d] relation tensor (see repro.perf.fused).
            scores = scores + _fused.relation_scores(q, self.relations.weight, rel_ids) * scale

        bias = np.where(seq_mask.astype(bool)[:, None, :], 0.0, _NEG_INF)
        alpha = (scores + Tensor(np.broadcast_to(bias, (B, T, T)).copy())).softmax(axis=-1)

        # Value side (Eq. 14): sum_j alpha_ij (x_j + e_{r_ij} + e_{p_j})
        z = alpha @ keys
        if use_dyadic:
            z = z + _fused.relation_values(alpha, self.relations.weight, rel_ids)

        # Post block (paper: FFN + residual + layer norm + dropout).
        z = self.norm(z + self.dropout(self.ffn(z)))
        return z
