"""Recurrent layers: GRU cell and mask-aware GRU over padded sequences.

The paper uses GRUs in two places: to encode each macro-item's
micro-operation sequence (Eq. 3) and inside the RNN baselines
(GRU4Rec-style encoders in NARM / RIB / HUP / MKM-SR).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..perf import fused as _fused
from .init import scaled_uniform, zeros
from .module import Module, Parameter

__all__ = ["GRUCell", "GRU"]


class GRUCell(Module):
    """Single-step gated recurrent unit (Cho et al., 2014)."""

    def __init__(self, input_dim: int, hidden_dim: int, *, rng: np.random.Generator):
        super().__init__()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        # Gates are fused: [update | reset | candidate].
        self.w_ih = Parameter(scaled_uniform(rng, (input_dim, 3 * hidden_dim), hidden_dim))
        self.w_hh = Parameter(scaled_uniform(rng, (hidden_dim, 3 * hidden_dim), hidden_dim))
        self.b_ih = Parameter(zeros((3 * hidden_dim,)))
        self.b_hh = Parameter(zeros((3 * hidden_dim,)))

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        """Advance one step: ``x`` is [B, input_dim], ``h`` is [B, hidden_dim]."""
        outputs = _fused.gru_sequence(
            x.unsqueeze(1), self.w_ih, self.w_hh, self.b_ih, self.b_hh, h0=h
        )
        return outputs[:, 0, :]


class GRU(Module):
    """GRU over a padded batch of sequences with an explicit validity mask.

    Padded steps leave the hidden state unchanged, so the final hidden state
    equals the state after the last *valid* step of each sequence. A mask
    entry is valid when it is non-zero, whatever its dtype or value.
    """

    def __init__(self, input_dim: int, hidden_dim: int, *, rng: np.random.Generator):
        super().__init__()
        self.cell = GRUCell(input_dim, hidden_dim, rng=rng)
        self.hidden_dim = hidden_dim

    def _zero_state(self, x: Tensor) -> Tensor:
        return Tensor(np.zeros((x.shape[0], self.hidden_dim), dtype=x.data.dtype))

    def forward(
        self,
        x: Tensor,
        mask: np.ndarray | None = None,
        h0: Tensor | None = None,
    ) -> tuple[Tensor, Tensor]:
        """Run the GRU over ``x`` of shape [B, T, input_dim].

        Parameters
        ----------
        mask:
            Optional [B, T] array of any dtype; 0 marks padding and every
            non-zero value a valid step.
        h0:
            Optional initial state [B, hidden_dim]; zeros by default.

        Returns
        -------
        (outputs, final_state):
            ``outputs`` is [B, T, hidden_dim], ``final_state`` is [B, hidden_dim].
            With T = 0 no step changes the state: ``final_state`` is ``h0``.
        """
        batch, steps, _ = x.shape
        if steps == 0:  # no step, so no state change: outputs are empty
            empty = Tensor(np.zeros((batch, 0, self.hidden_dim), dtype=x.data.dtype))
            return empty, h0 if h0 is not None else self._zero_state(x)
        cell = self.cell
        outputs = _fused.gru_sequence(
            x, cell.w_ih, cell.w_hh, cell.b_ih, cell.b_hh, mask=mask, h0=h0
        )
        # Padded steps carry the state forward, so the last column IS the
        # final state even for sequences that end before step T.
        return outputs, outputs[:, -1, :]
