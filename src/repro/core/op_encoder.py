"""Sequential micro-operation encoding (paper Eqs. 3-4).

For each macro item ``v^i`` the micro-operation sequence
``o^i = (o^i_1, ..., o^i_k)`` is run through a GRU; the final hidden state
``h~^i`` summarizes the user's fine-grained engagement with that item and is
later attached to the multigraph edges (Eq. 5).

``h~^i`` depends on ``o^i`` alone, and a batch holds few distinct
sequences (~51 of 640 rows at batch 64 on JD-like data), so
:func:`encode_op_sequences` runs the GRU once per distinct sequence and
gathers the states back.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..nn import GRU, Embedding, Module
from ..perf import fused as _fused

__all__ = ["MicroOpEncoder", "encode_op_sequences"]


def encode_op_sequences(
    op_embedding: Embedding, gru: GRU, ops: np.ndarray, op_mask: np.ndarray
) -> Tensor:
    """``gru``'s final state over each macro step's operation sequence.

    Parameters
    ----------
    op_embedding:
        The operation table (shifted ids; row 0 = padding).
    gru:
        The GRU run over the embedded sequences.
    ops:
        [B, n, k] shifted operation ids: every valid slot holds an id >= 1.
    op_mask:
        [B, n, k] validity mask, any dtype (non-zero = valid).

    Returns
    -------
    Tensor
        [B, n, hidden] — the same values as running ``gru`` over all B·n
        embedded rows, up to roundoff (GEMM heights and gradient summation
        order change). Rows whose ops agree on their valid slots get
        byte-equal states; an empty row gets the zero initial state.

    Each row is keyed by its ids with padded slots zeroed, so the key
    determines the mask; the distinct keys are found by one sort over a
    byte view of the rows. Only those U rows are embedded and run through
    the GRU, and the [U, hidden] states are gathered back by
    ``embedding_lookup``, whose backward is one ``bincount`` scatter.
    """
    B, n, k = ops.shape
    flat_ops = ops.reshape(B * n, k)
    valid = op_mask.reshape(B * n, k) != 0
    keys = np.ascontiguousarray(np.where(valid, flat_ops, 0))
    if np.count_nonzero(keys) != np.count_nonzero(valid):  # a valid slot holds id 0
        raise ValueError(
            "operation id 0 (padding) at a valid slot: operation ids must be "
            "shifted to >= 1 for the op mask to follow from them"
        )
    row_bytes = keys.view(np.dtype((np.void, keys.itemsize * k))).ravel()
    _, first, inverse = np.unique(row_bytes, return_index=True, return_inverse=True)
    distinct = keys[first]  # [U, k]
    _, final = gru(op_embedding(distinct), mask=distinct != 0)
    return _fused.embedding_lookup(final, inverse).reshape(B, n, gru.hidden_dim)


class MicroOpEncoder(Module):
    """GRU over each macro step's operation sequence.

    The operation embedding table is passed in, not owned. By default it is
    the encoder's own table (``EMBSR.gru_op_embedding``); only with
    ``EMBSRConfig.tie_op_embeddings=True`` is it the paper's single ``M^O``
    shared with the attention layer.
    """

    def __init__(self, dim: int, *, rng: np.random.Generator):
        super().__init__()
        self.gru = GRU(dim, dim, rng=rng)
        self.dim = dim

    def forward(self, op_embedding: Embedding, ops: np.ndarray, op_mask: np.ndarray) -> Tensor:
        """``h~`` of shape [B, n, dim] from [B, n, k] shifted ``ops`` and
        their ``op_mask`` (see :func:`encode_op_sequences`). Padded macro
        positions have no valid op, so their ``h~`` is the zero state."""
        return encode_op_sequences(op_embedding, self.gru, ops, op_mask)
