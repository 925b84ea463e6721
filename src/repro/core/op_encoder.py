"""Sequential micro-operation encoding (paper Eqs. 3-4).

For each macro item ``v^i`` the micro-operation sequence
``o^i = (o^i_1, ..., o^i_k)`` is run through a GRU; the final hidden state
``h~^i`` summarizes the user's fine-grained engagement with that item and is
later attached to the multigraph edges (Eq. 5).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..nn import GRU, Embedding, Module

__all__ = ["MicroOpEncoder"]


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
        """Encode operations.

        Parameters
        ----------
        op_embedding:
            The operation table (shifted ids; row 0 = padding).
        ops:
            [B, n, k] shifted operation ids.
        op_mask:
            [B, n, k] validity mask.

        Returns
        -------
        Tensor
            ``h~`` of shape [B, n, dim] — one sequential encoding per macro
            step (zero vectors at padded macro positions).
        """
        B, n, k = ops.shape
        flat_ops = ops.reshape(B * n, k)
        flat_mask = op_mask.reshape(B * n, k)
        embedded = op_embedding(flat_ops)  # [B*n, k, d]
        _, final = self.gru(embedded, mask=flat_mask)
        htilde = final.reshape(B, n, self.dim)
        # Zero out padded macro positions (their GRU state is h0 = 0 already,
        # but the mask keeps this explicit and robust to future h0 changes).
        macro_mask = (op_mask.sum(axis=2) > 0).astype(htilde.data.dtype)[..., None]
        return htilde * Tensor(macro_mask)
